"""Workspace files: one YAML document naming a ring, a quiver, and the
objects, supports, and filtrations the CLI commands operate on.

Every malformed input surfaces as WorkspaceError with the path to the
offending node, so the CLI can map it to its parse-error exit code without
guessing which layer complained.
"""

from __future__ import annotations

from .complexes import ComplexRQ, Representation, RepMorphism, _trusted
from .errors import QuiverTTError, WorkspaceError
from .linalg import Matrix
from .quivers import Quiver, build_quiver
from .rings import FGModule, Ring, parse_ring, sp_all, sp_empty, sp_points, prime_ideal
from .spectrum import QSupport, q_support
from .tstruct import Filtration, filtration


class Workspace:
    __slots__ = ("ring", "quiver", "objects", "supports", "filtrations")

    def __init__(self, ring, quiver, objects, supports, filtrations):
        self.ring = ring
        self.quiver = quiver
        self.objects = objects
        self.supports = supports
        self.filtrations = filtrations


def _read_yaml(path: str):
    """The YAML document at path; unreadable, undecodable or malformed input
    raises WorkspaceError."""
    import yaml  # here, so that importing the package does not load PyYAML

    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise WorkspaceError(f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:
        raise WorkspaceError(f"{path}: {e}") from e


def load_workspace(path: str) -> Workspace:
    doc = _read_yaml(path)
    if not isinstance(doc, dict):
        raise WorkspaceError(f"{path}: top level must be a mapping")
    return build_workspace(doc, where=path)


def build_workspace(doc: dict, where: str = "workspace") -> Workspace:
    unknown = set(doc) - {"ring", "quiver", "objects", "supports", "filtrations"}
    if unknown:
        raise WorkspaceError(f"{where}: unknown sections {sorted(unknown)}")
    try:
        ring = parse_ring(str(_need(doc, "ring", where)))
    except QuiverTTError as e:
        raise WorkspaceError(f"{where}/ring: {e}") from e
    quiver = _build_quiver(_need(doc, "quiver", where), f"{where}/quiver")
    objects = {}
    budget = [_MAX_ZERO_ENTRIES]
    for name, node in _named_section(doc, "objects", where).items():
        objects[name] = _build_object(node, quiver, ring, f"{where}/objects/{name}", budget)
    supports = {}
    for name, node in _named_section(doc, "supports", where).items():
        supports[name] = parse_support(node, quiver, ring, f"{where}/supports/{name}")
    filtrations = {}
    for name, node in _named_section(doc, "filtrations", where).items():
        filtrations[name] = parse_filtration(node, quiver, ring, f"{where}/filtrations/{name}")
    return Workspace(ring, quiver, objects, supports, filtrations)


def _need(doc, key, where):
    if key not in doc:
        raise WorkspaceError(f"{where}: missing required section '{key}'")
    return doc[key]


def _named_section(doc, key, where) -> dict:
    node = doc.get(key) or {}
    if not isinstance(node, dict):
        raise WorkspaceError(f"{where}/{key}: expected a mapping of names")
    return {str(k): v for k, v in node.items()}


def _build_quiver(node, where) -> Quiver:
    if not isinstance(node, dict) or "vertices" not in node:
        raise WorkspaceError(f"{where}: need vertices: [...] and arrows: [...]")
    try:
        return build_quiver(node["vertices"], node.get("arrows") or [])
    except QuiverTTError as e:
        raise WorkspaceError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# objects: complexes given degreewise


def _elem(ring: Ring, raw, where):
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise WorkspaceError(f"{where}: entry {raw!r} is neither an integer nor a string")
        return ring.from_int(raw) if isinstance(raw, int) else ring.parse_elem(raw)
    except (QuiverTTError, ValueError) as e:
        raise WorkspaceError(f"{where}: bad entry {raw!r}: {e}") from e


def _matrix(ring: Ring, rows, where) -> Matrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise WorkspaceError(f"{where}: expected a list of rows")
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise WorkspaceError(f"{where}: ragged rows {sorted(width)}")
    cols = width.pop() if width else 0
    ents = tuple(tuple(_elem(ring, e, where) for e in row) for row in rows)
    return Matrix(ring, len(rows), cols, ents)


# The most generators one fiber may have, and the most entries the implicit
# zero matrices of one workspace (its omitted arrow maps and differential
# components) may hold together: loading builds a bounded amount, whatever
# the ranks and however many degrees and arrows there are.
_MAX_GENS = 1000
_MAX_ZERO_ENTRIES = 10**7


def _check_gens(gens: int, where) -> None:
    if gens > _MAX_GENS:
        raise WorkspaceError(f"{where}: fiber generators above the cap {_MAX_GENS}")


def _fiber(ring: Ring, spec, where) -> FGModule:
    """A fiber from 'free <rank>' or a presentation matrix, refused before
    anything is built when it has more than _MAX_GENS generators."""
    if isinstance(spec, list):
        _check_gens(len(spec), where)
        return FGModule(ring, _matrix(ring, spec, where))
    parts = spec.split() if isinstance(spec, str) else []
    if not (len(parts) == 2 and parts[0] == "free" and parts[1].isdecimal()):
        raise WorkspaceError(f"{where}: expected 'free <rank>' or a presentation, got {spec!r}")
    rank = parts[1].lstrip("0") or "0"
    # ten digits are past the cap: a longer string is never converted
    gens = int(rank) if len(rank) < 10 else _MAX_GENS + 1
    _check_gens(gens, where)
    return FGModule.free(ring, gens)


def _zeros(ring: Ring, rows: int, cols: int, budget: list, where) -> Matrix:
    """The zero matrix of an omitted arrow map or differential component,
    charged to budget[0], the entries the workspace may still build so."""
    budget[0] -= rows * cols
    if budget[0] < 0:
        raise WorkspaceError(f"{where}: implicit zero entries above the cap 10^7")
    return Matrix.zeros(ring, rows, cols)


def _int_key(k, where) -> int:
    try:
        return int(str(k))
    except ValueError:
        raise WorkspaceError(f"{where}: degree {k!r} is not an integer") from None


def _build_term(node, q: Quiver, ring: Ring, where, budget) -> Representation:
    if not isinstance(node, dict):
        raise WorkspaceError(f"{where}: expected vertex: fiber entries")
    node = {str(k): v for k, v in node.items()}
    arrow_specs = node.pop("arrow_maps", None) or {}
    fibers = {}
    for v in q.vertices:
        spec = node.pop(v, None)
        fibers[v] = FGModule.free(ring, 0) if spec is None else _fiber(ring, spec, f"{where}/{v}")
    if node:
        raise WorkspaceError(f"{where}: unknown vertices {sorted(node)}")
    known = {name for name, _, _ in q.arrows}
    arrows = {}
    for name, s, t in q.arrows:
        raw = arrow_specs.get(name)
        if raw is None:
            arrows[name] = _zeros(ring, fibers[t].gens, fibers[s].gens, budget, f"{where}/arrow_maps/{name}")
        else:
            arrows[name] = _matrix(ring, raw, f"{where}/arrow_maps/{name}")
    bad = set(map(str, arrow_specs)) - known
    if bad:
        raise WorkspaceError(f"{where}/arrow_maps: unknown arrows {sorted(bad)}")
    try:
        return Representation(q, ring, fibers, arrows)
    except QuiverTTError as e:
        raise WorkspaceError(f"{where}: {e}") from e


def _build_object(node, q: Quiver, ring: Ring, where, budget) -> ComplexRQ:
    if not isinstance(node, dict):
        raise WorkspaceError(f"{where}: expected degrees:/differentials: entries")
    unknown = set(node) - {"degrees", "differentials"}
    if unknown:
        raise WorkspaceError(f"{where}: unknown keys {sorted(unknown)}")
    terms = {}
    for k, term_node in (node.get("degrees") or {}).items():
        n = _int_key(k, where)
        terms[n] = _build_term(term_node, q, ring, f"{where}/degrees/{k}", budget)
    diffs = {}
    for k, diff_node in (node.get("differentials") or {}).items():
        n = _int_key(k, where)
        if n not in terms or n + 1 not in terms:
            raise WorkspaceError(f"{where}/differentials/{k}: needs terms in degrees {n} and {n + 1}")
        if not isinstance(diff_node, dict):
            raise WorkspaceError(f"{where}/differentials/{k}: expected vertex: matrix entries")
        diff_node = {str(kk): v for kk, v in diff_node.items()}
        mats = {}
        for v in q.vertices:
            raw = diff_node.pop(v, None)
            if raw is None:
                mats[v] = _zeros(ring, terms[n + 1].gens(v), terms[n].gens(v), budget,
                                 f"{where}/differentials/{k}/{v}")
            else:
                mats[v] = _matrix(ring, raw, f"{where}/differentials/{k}/{v}")
        if diff_node:
            raise WorkspaceError(f"{where}/differentials/{k}: unknown vertices {sorted(diff_node)}")
        try:
            diffs[n] = RepMorphism(terms[n], terms[n + 1], mats)
        except QuiverTTError as e:
            raise WorkspaceError(f"{where}/differentials/{k}: {e}") from e
    # each differential is validated once above, where its error names it
    cx = _trusted(ComplexRQ, q, ring, terms, diffs)
    try:
        cx._check_square_zero()
    except QuiverTTError as e:
        raise WorkspaceError(f"{where}: {e}") from e
    return cx


# ---------------------------------------------------------------------------
# supports and filtrations


def _vertex_component(ring: Ring, spec, where):
    if isinstance(spec, str) and spec.strip().lower() == "all":
        return sp_all(ring)
    if isinstance(spec, list):
        gens = [_elem(ring, g, where) for g in spec]  # names its own location
        try:
            return sp_points(ring, [prime_ideal(ring, g) for g in gens])
        except QuiverTTError as e:
            raise WorkspaceError(f"{where}: {e}") from e
    raise WorkspaceError(f"{where}: expected 'all' or a generator list, got {spec!r}")


def parse_support(node, q: Quiver, ring: Ring, where) -> QSupport:
    """Per-vertex 'all' or generator list; omitted vertices are empty."""
    if node is None:
        node = {}
    if isinstance(node, str):
        node = _inline_support_map(node, where)
    if not isinstance(node, dict):
        raise WorkspaceError(f"{where}: expected vertex: 'all'|[g1, ...] entries")
    node = {str(k): v for k, v in node.items()}
    comps = {}
    for v in q.vertices:
        spec = node.pop(v, None)
        comps[v] = sp_empty(ring) if spec is None else _vertex_component(ring, spec, f"{where}/{v}")
    if node:
        raise WorkspaceError(f"{where}: unknown vertices {sorted(node)}")
    return q_support(q, ring, comps)


def _inline_support_map(text: str, where) -> dict:
    """The --set form: "1: all; 2: [2, 3]" with vertices separated by ';'."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise WorkspaceError(f"{where}: expected 'vertex: spec' in {chunk!r}")
        v, spec = chunk.split(":", 1)
        spec = spec.strip()
        if spec.lower() == "all":
            out[v.strip()] = "all"
        else:
            spec = spec.removeprefix("[").removesuffix("]")
            out[v.strip()] = [g.strip() for g in spec.split(",") if g.strip()]
    return out


def parse_filtration(node, q: Quiver, ring: Ring, where) -> Filtration:
    if not isinstance(node, dict):
        raise WorkspaceError(f"{where}: expected tail_low:/levels: entries")
    unknown = set(node) - {"tail_low", "levels", "tail_high"}
    if unknown:
        raise WorkspaceError(f"{where}: unknown keys {sorted(unknown)}")
    tail_low = parse_support(_need(node, "tail_low", where), q, ring, f"{where}/tail_low")
    entries = []
    for i, pair in enumerate(node.get("levels") or []):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise WorkspaceError(f"{where}/levels[{i}]: expected [n, support]")
        n = _int_key(pair[0], f"{where}/levels[{i}]")
        entries.append((n, parse_support(pair[1], q, ring, f"{where}/levels[{i}]")))
    tail_high = node.get("tail_high")
    if tail_high is not None:
        tail_high = parse_support(tail_high, q, ring, f"{where}/tail_high")
    try:
        return filtration(q, ring, entries, tail_low, tail_high)
    except QuiverTTError as e:
        raise WorkspaceError(f"{where}: {e}") from e


def load_filtration_file(path: str, q: Quiver, ring: Ring) -> Filtration:
    """A standalone filtration document, same schema as a filtrations: entry."""
    return parse_filtration(_read_yaml(path), q, ring, path)
