"""Finite acyclic quivers: paths, subquivers, Dynkin recognition.

Vertices and arrows are referenced by name throughout.  A path is the tuple
of its arrow names in traversal order, the empty tuple being the trivial path
at a vertex.  Path lists are sorted lexicographically by that tuple, which
fixes the bases of all path-indexed free modules downstream.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CyclicQuiver, DuplicateName, ShapeMismatch, UnknownVertex


class Quiver:
    __slots__ = ("vertices", "arrows", "topo_order", "_out", "_in", "_arrow_by_name")

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise DuplicateName("repeated vertex name")
        self.arrows = tuple((str(n), str(s), str(t)) for n, s, t in arrows)
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise DuplicateName("repeated arrow name")
        vs = set(self.vertices)
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        self._arrow_by_name = {}
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise UnknownVertex(f"arrow {name}: {s} -> {t} uses an unknown vertex")
            self._out[s].append((name, s, t))
            self._in[t].append((name, s, t))
            self._arrow_by_name[name] = (name, s, t)
        self.topo_order = self._toposort()

    def _toposort(self):
        indeg = {v: len(self._in[v]) for v in self.vertices}
        queue = [v for v in self.vertices if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop(0)
            order.append(v)
            for _, _, t in self._out[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        if len(order) == len(self.vertices):
            return tuple(order)
        # walk forward through the leftover vertices until one repeats
        stuck = [v for v in self.vertices if indeg[v] > 0]
        seen, cur = [], stuck[0]
        while cur not in seen:
            seen.append(cur)
            cur = next(t for _, s, t in self._out[cur] if indeg[t] > 0 and s == cur)
        cycle = seen[seen.index(cur):] + [cur]
        raise CyclicQuiver(cycle)

    def arrow(self, name):
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise UnknownVertex(f"no arrow named {name}") from None

    def arrows_out(self, v):
        return tuple(self._out[v])

    def arrows_in(self, v):
        return tuple(self._in[v])

    def check_vertex(self, v):
        v = str(v)
        if v not in self._out:
            raise UnknownVertex(f"no vertex named {v}")
        return v

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __str__(self):
        arrows = ", ".join(f"{n}: {s} -> {t}" for n, s, t in self.arrows)
        return f"Quiver({', '.join(self.vertices)}; {arrows})"


def build_quiver(vertices, arrows) -> Quiver:
    """Arrows may be (name, source, target) triples or strings "a: 1 -> 2"."""
    parsed = []
    for a in arrows:
        if isinstance(a, str):
            try:
                name, rest = a.split(":", 1)
                s, t = rest.split("->")
            except ValueError:
                raise ShapeMismatch(f"cannot parse arrow {a!r}; expected 'name: src -> tgt'") from None
            parsed.append((name.strip(), s.strip(), t.strip()))
        else:
            parsed.append(tuple(a))
    return Quiver(vertices, parsed)


def point_quiver() -> Quiver:
    """The one-vertex quiver; complexes over it are plain R-complexes."""
    return Quiver(("pt",), ())


def vertex_set(q: Quiver, names) -> frozenset:
    out = frozenset(str(v) for v in names)
    for v in out:
        q.check_vertex(v)
    return out


def paths(q: Quiver, i, j) -> list[tuple]:
    """All oriented paths i to j as arrow-name tuples, lexicographically.

    Includes the trivial path () when i == j.  Finite because the quiver is
    acyclic.
    """
    i = q.check_vertex(i)
    j = q.check_vertex(j)
    return list(_paths_cached(q, i, j))


@lru_cache(maxsize=4096)
def _paths_cached(q: Quiver, i: str, j: str) -> tuple:
    found = []

    def walk(v, acc):
        if v == j:
            found.append(tuple(acc))
        for name, _, t in q.arrows_out(v):
            acc.append(name)
            walk(t, acc)
            acc.pop()

    walk(i, [])
    return tuple(sorted(found))


@lru_cache(maxsize=4096)
def path_positions(q: Quiver, i: str, j: str) -> dict:
    """{path: its index in `paths(q, i, j)`} for vertex names i, j of q: the
    row of each path in every path-indexed basis, one shared dict per
    (q, i, j), read and never mutated."""
    return {p: k for k, p in enumerate(_paths_cached(q, i, j))}


def full_subquiver(q: Quiver, vs: frozenset) -> Quiver:
    keep = [v for v in q.vertices if v in vs]
    arrows = [(n, s, t) for n, s, t in q.arrows if s in vs and t in vs]
    return Quiver(keep, arrows)


# ---------------------------------------------------------------------------
# Dynkin recognition on the underlying undirected graph


def _undirected_components(q: Quiver):
    adj = {v: [] for v in q.vertices}
    for _, s, t in q.arrows:
        adj[s].append(t)
        adj[t].append(s)
    seen, comps = set(), []
    for v in q.vertices:
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            w = stack.pop()
            comp.append(w)
            for x in adj[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        comps.append(comp)
    return adj, comps


def _branch_length(adj, start, first, center):
    """Length of the branch leaving center through first."""
    length, prev, cur = 1, center, first
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            return length
        if len(nxt) > 1:
            return None  # hit another branch point
        prev, cur = cur, nxt[0]
        length += 1


def is_dynkin(q: Quiver) -> bool:
    """Whether the underlying graph is a disjoint union of ADE diagrams.

    Orientation never matters.  Multiple edges (Kronecker pairs) and cycles
    fail immediately; trees are classified by their degree-3 node, if any.
    """
    pairs = [frozenset((s, t)) if s != t else None for _, s, t in q.arrows]
    if None in pairs or len(set(pairs)) != len(pairs):
        return False  # self-loop (impossible when acyclic) or multiple edge
    adj, comps = _undirected_components(q)
    edge_count = {frozenset(c): 0 for c in map(tuple, comps)}
    comp_of = {}
    for c in comps:
        for v in c:
            comp_of[v] = frozenset(c)
    for _, s, t in q.arrows:
        edge_count[comp_of[s]] += 1
    for comp in comps:
        if edge_count[frozenset(comp)] != len(comp) - 1:
            return False  # not a tree
        degs = {v: len(adj[v]) for v in comp}
        if any(d > 3 for d in degs.values()):
            return False
        branch_nodes = [v for v in comp if degs[v] == 3]
        if not branch_nodes:
            continue  # a path graph: type A
        if len(branch_nodes) > 1:
            return False
        center = branch_nodes[0]
        lengths = sorted(_branch_length(adj, center, nb, center) for nb in adj[center])
        if None in lengths:
            return False
        a, b, c = lengths
        if a == 1 and b == 1:
            continue  # type D
        if (a, b) == (1, 2) and c in (2, 3, 4):
            continue  # E6, E7, E8
        return False
    return True
