"""Representations of an acyclic quiver and bounded complexes of them.

A representation stores one finitely generated module per vertex (by
presentation; most fibers in practice are literally free) and one matrix per
arrow acting on chosen generators.  Validation is structural and exact:
arrow maps must respect relations, morphisms must be natural modulo the
target relations, differentials must square to zero.

One validation rule: the public constructors, `rep_free`, `complex_r`,
workspace loading and the public `evaluation_map` validate; everything the
package builds internally goes through `_trusted` (one object) or `_complex`
(a whole complex) and is not validated again.  That includes `cone`,
`box_tensor`, `koszul_complex`, the resolution steps, the internal hom and
`rigidity_report`'s evaluation maps: their outputs are valid by construction
when their inputs are.  Workspace loading validates each differential once,
as it builds it, and then checks only d^2 = 0 on the assembled complex.

Complexes are cohomological, sparse dictionaries degree -> representation.
The shift is (X[1])^n = X^{n+1} with differential negated per shift.  All
block orderings (tensor summands, Kan path copies, resolution terms) are
pinned so equal inputs give byte-equal outputs.

The builders skip work whose answer is known.  A free fiber is built with no
elimination: `FGModule.free` knows its invariant factors, is one shared
module per ring instance and rank, and `rep_direct_sum` uses it at every
vertex where no summand's fiber has a relation.  `rep_zero` is likewise one
object per quiver and ring instance, and `homology_fibers` builds H^n from
the Smith divisors it read (`FGModule.from_divisors`), not by eliminating
their diagonal again.
Every reader reads a missing differential or chain-map part as the shared
zero block: `ComplexRQ.diff(n, v)` and `ComplexMorphism.part(n, v)` return
the stored matrix at v, or the one `Matrix.zeros` of its shape.  The
`box_tensor` and `cone` grids put None there instead, and the Smith readers
of `homology_fibers` skip the degree; none builds a zero morphism over
every vertex.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    NonRegularRing,
    NotDerivable,
    NotPerfect,
    RingMismatch,
    ShapeMismatch,
)
from .linalg import (Matrix, cokernel_presentation, diagonal_of, is_split_mono, kernel_basis, rank,
                     smith_normal_form, solve, solve_kernel)
from .quivers import Quiver, path_positions, point_quiver, vertex_set
from .rings import FGModule, IntegersMod, Ring, check_same_ring, int_prime_factors


def _in_relations(m: Matrix, pres: Matrix) -> bool:
    """Whether every column of m lies in the column span of pres: m is zero
    as a map into the module that pres presents.  The one relations check
    of every validator below."""
    return m.is_zero() or (pres.cols > 0 and solve(pres, m) is not None)


def _trusted(cls, *args):
    """cls(*args) without validate(): only for objects valid by construction."""
    obj = cls.__new__(cls)
    obj._setup(*args)
    return obj


# ---------------------------------------------------------------------------
# representations


class Representation:
    __slots__ = ("quiver", "ring", "fibers", "arrows", "_pa_cache")

    def __init__(self, quiver: Quiver, ring: Ring, fibers: dict, arrows: dict):
        self._setup(quiver, ring, fibers, arrows)
        self.validate()

    def _setup(self, quiver, ring, fibers, arrows):
        self.quiver = quiver
        self.ring = ring
        self.fibers = {v: fibers[v] for v in quiver.vertices}
        self.arrows = {name: arrows[name] for name, _, _ in quiver.arrows}
        self._pa_cache = {}

    def validate(self):
        for v, fib in self.fibers.items():
            if fib.ring != self.ring:
                raise RingMismatch(f"fiber at {v} over the wrong ring")
        for name, s, t in self.quiver.arrows:
            m = self.arrows[name]
            src, tgt = self.fibers[s], self.fibers[t]
            if (m.rows, m.cols) != (tgt.gens, src.gens):
                raise ShapeMismatch(
                    f"arrow {name} is {m.rows}x{m.cols}, wanted {tgt.gens}x{src.gens}")
            # relations of the source must land inside relations of the target
            if not (src.is_literally_free or _in_relations(m.mul(src.presentation), tgt.presentation)):
                raise ShapeMismatch(f"arrow {name} not well defined on relations")

    def gens(self, v) -> int:
        return self.fibers[v].gens

    def is_zero_gens(self) -> bool:
        return all(f.gens == 0 for f in self.fibers.values())

    def path_action(self, i, path) -> Matrix:
        """Composite arrow matrix along a path out of vertex i."""
        key = (i, tuple(path))
        hit = self._pa_cache.get(key)
        if hit is None:
            acc = Matrix.identity(self.ring, self.gens(i))
            for name in path:
                acc = self.arrows[name].mul(acc)
            hit = self._pa_cache[key] = acc
        return hit

    def all_free(self) -> bool:
        return all(f.is_literally_free for f in self.fibers.values())


def rep_zero(quiver: Quiver, ring: Ring) -> Representation:
    """The zero representation, one shared object per quiver and ring
    instance (`Ring.shared`)."""
    return ring.shared(_rep_zero, quiver)


def _rep_zero(ring: Ring, quiver: Quiver) -> Representation:
    zero = FGModule.free(ring, 0)
    fibers = {v: zero for v in quiver.vertices}
    arrows = {n: Matrix.zeros(ring, 0, 0) for n, _, _ in quiver.arrows}
    return _trusted(Representation, quiver, ring, fibers, arrows)


def rep_free(quiver: Quiver, ring: Ring, ranks: dict, arrows: dict) -> Representation:
    fibers = {v: FGModule.free(ring, ranks.get(v, 0)) for v in quiver.vertices}
    mats = {}
    for name, s, t in quiver.arrows:
        m = arrows.get(name)
        if m is None:
            m = Matrix.zeros(ring, fibers[t].gens, fibers[s].gens)
        mats[name] = m
    return Representation(quiver, ring, fibers, mats)


def rep_direct_sum(reps: list) -> Representation:
    """The direct sum; a vertex where no summand's fiber has a relation gets
    a free fiber, with nothing to eliminate."""
    assert reps
    q, r = reps[0].quiver, reps[0].ring
    fibers = {}
    for v in q.vertices:
        pres = [rep.fibers[v].presentation for rep in reps]
        fibers[v] = (FGModule(r, Matrix.direct_sum(r, pres)) if any(p.cols for p in pres)
                     else FGModule.free(r, sum(p.rows for p in pres)))
    arrows = {name: Matrix.direct_sum(r, [rep.arrows[name] for rep in reps]) for name, _, _ in q.arrows}
    return _trusted(Representation, q, r, fibers, arrows)


class RepMorphism:
    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Representation, target: Representation, mats: dict):
        self._setup(source, target, mats)
        self.validate()

    def _setup(self, source, target, mats):
        self.source = source
        self.target = target
        self.mats = {v: mats[v] for v in source.quiver.vertices}

    def validate(self):
        if self.source.quiver != self.target.quiver:
            raise ShapeMismatch("morphism between representations of different quivers")
        q = self.source.quiver
        for v in q.vertices:
            m = self.mats[v]
            if (m.rows, m.cols) != (self.target.gens(v), self.source.gens(v)):
                raise ShapeMismatch(f"component at {v} has the wrong shape")
            src, tgt = self.source.fibers[v], self.target.fibers[v]
            if not (src.is_literally_free or _in_relations(m.mul(src.presentation), tgt.presentation)):
                raise ShapeMismatch(f"component at {v} not well defined on relations")
        for name, s, t in q.arrows:
            lhs = self.mats[t].mul(self.source.arrows[name])
            rhs = self.target.arrows[name].mul(self.mats[s])
            if not _in_relations(lhs.sub(rhs), self.target.fibers[t].presentation):
                raise ShapeMismatch(f"naturality fails at arrow {name}")

    def compose(self, earlier: "RepMorphism") -> "RepMorphism":
        mats = {v: self.mats[v].mul(earlier.mats[v]) for v in self.source.quiver.vertices}
        return _trusted(RepMorphism, earlier.source, self.target, mats)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())


def rep_mor_identity(rep: Representation) -> RepMorphism:
    mats = {v: Matrix.identity(rep.ring, rep.gens(v)) for v in rep.quiver.vertices}
    return _trusted(RepMorphism, rep, rep, mats)


# ---------------------------------------------------------------------------
# complexes


class ComplexRQ:
    """Bounded complex of representations; zero terms are simply absent.

    Complexes are immutable: no code assigns into `terms`, `diffs` or the
    fibers, arrows and matrices below them once `_setup` has run.  So two
    invariants are memoized on the object: `perfect` and the support of its
    homology (`_support`, one `QSupport` filled by the spectrum module's
    `compact_support`).  Only the builder that made the object may preset
    `_perfect`, and only to a verdict it knows: `projective_resolution` sets
    True, `shift_complex` copies its input's, and `direct_sum_complexes` and
    `cone` set True when every input's is already True.
    """

    __slots__ = ("quiver", "ring", "terms", "diffs", "_perfect", "_support")

    def __init__(self, quiver: Quiver, ring: Ring, terms: dict, diffs: dict):
        self._setup(quiver, ring, terms, diffs)
        self.validate()

    def _setup(self, quiver, ring, terms, diffs):
        self.quiver = quiver
        self.ring = ring
        self.terms = {n: rep for n, rep in sorted(terms.items()) if not rep.is_zero_gens()}
        self.diffs = {n: d for n, d in sorted(diffs.items())
                      if n in self.terms and n + 1 in self.terms and not d.is_zero()}
        self._perfect = None
        self._support = None

    def validate(self):
        for d in self.diffs.values():
            d.validate()
        self._check_square_zero()

    def _check_square_zero(self):
        """Check d^2 = 0 modulo the target relations, given valid differentials."""
        for n in self.diffs:
            if n + 1 in self.diffs:
                comp = self.diffs[n + 1].compose(self.diffs[n])
                for v in self.quiver.vertices:
                    if not _in_relations(comp.mats[v], self.terms[n + 2].fibers[v].presentation):
                        raise ShapeMismatch(f"d^2 != 0 at degree {n}, vertex {v}")

    @property
    def degrees(self):
        return sorted(self.terms)

    def term(self, n) -> Representation:
        return self.terms.get(n) or rep_zero(self.quiver, self.ring)

    def diff(self, n, v) -> Matrix:
        """d^n at vertex v: the shared zero block where x has no d^n."""
        d = self.diffs.get(n)
        if d is not None:
            return d.mats[v]
        return Matrix.zeros(self.ring, self.term(n + 1).gens(v), self.term(n).gens(v))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def perfect(self) -> bool:
        """All terms finitely generated projective (free fibers, split test)."""
        if self._perfect is None:
            self._perfect = all(_rep_is_projective(rep) for rep in self.terms.values())
        return self._perfect

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for n in self.degrees:
            ranks = ",".join(str(self.terms[n].gens(v)) for v in self.quiver.vertices)
            bits.append(f"[{n}: {ranks}]")
        return " ".join(bits)


def _rep_is_projective(rep: Representation) -> bool:
    """Split-mono criterion: fibers projective and the incoming sum splits."""
    if not rep.all_free():
        return False
    for v in rep.quiver.vertices:
        incoming = rep.quiver.arrows_in(v)
        if not sum(rep.gens(s) for _, s, _ in incoming):
            continue
        m = Matrix.blocks(rep.ring, [[rep.arrows[name] for name, _, _ in incoming]],
                          [rep.gens(v)], [rep.gens(s) for _, s, _ in incoming])
        if not is_split_mono(m):
            return False
    return True


def _complex(quiver: Quiver, ring: Ring, terms: dict, diff_mats: dict) -> ComplexRQ:
    """Trusted complex: diff_mats[n] is {vertex: matrix} from terms[n] to
    terms[n + 1]; degrees missing either neighbour get no differential."""
    diffs = {n: _trusted(RepMorphism, terms[n], terms[n + 1], mats)
             for n, mats in diff_mats.items() if n in terms and n + 1 in terms}
    return _trusted(ComplexRQ, quiver, ring, terms, diffs)


def zero_complex(quiver: Quiver, ring: Ring) -> ComplexRQ:
    return _complex(quiver, ring, {}, {})


def stalk_complex(rep: Representation, degree: int = 0) -> ComplexRQ:
    return _complex(rep.quiver, rep.ring, {degree: rep}, {})


def shift_complex(x: ComplexRQ, k: int) -> ComplexRQ:
    """(X[k])^n = X^{n+k}; the differential picks up (-1)^k."""
    diffs = {n - k: d.mats if k % 2 == 0 else {v: m.neg() for v, m in d.mats.items()}
             for n, d in x.diffs.items()}
    out = _complex(x.quiver, x.ring, {n - k: rep for n, rep in x.terms.items()}, diffs)
    out._perfect = x._perfect  # the same terms
    return out


def direct_sum_complexes(xs: list) -> ComplexRQ:
    xs = [x for x in xs if not x.is_zero]
    if not xs:
        raise ShapeMismatch("empty direct sum needs an ambient quiver; use zero_complex")
    q, r = xs[0].quiver, xs[0].ring
    degrees = sorted({n for x in xs for n in x.degrees})
    terms = {n: rep_direct_sum([x.term(n) for x in xs]) for n in degrees}
    diffs = {n: {v: Matrix.direct_sum(r, [x.diff(n, v) for x in xs]) for v in q.vertices}
             for n in degrees if n + 1 in terms}
    return _perfect_if(_complex(q, r, terms, diffs), xs)


class ComplexMorphism:
    __slots__ = ("source", "target", "parts")

    def __init__(self, source: ComplexRQ, target: ComplexRQ, parts: dict):
        self._setup(source, target, parts)
        self.validate()

    def _setup(self, source, target, parts):
        self.source = source
        self.target = target
        self.parts = dict(sorted(parts.items()))

    def part(self, n, v) -> Matrix:
        """The degree-n part at vertex v: the shared zero block where it is missing."""
        p = self.parts.get(n)
        if p is not None:
            return p.mats[v]
        return Matrix.zeros(self.source.ring, self.target.term(n).gens(v), self.source.term(n).gens(v))

    def validate(self):
        for n, p in self.parts.items():
            p.validate()
        # the square at degree n reads 0 = 0 unless a term sits in degree n or n + 1
        degrees = set(self.source.terms) | set(self.target.terms)
        for n in sorted(degrees | {n - 1 for n in degrees}):
            for v in self.source.quiver.vertices:
                left = self.target.diff(n, v).mul(self.part(n, v))
                right = self.part(n + 1, v).mul(self.source.diff(n, v))
                if not _in_relations(left.sub(right), self.target.term(n + 1).fibers[v].presentation):
                    raise ShapeMismatch(f"morphism does not commute with d at degree {n}, vertex {v}")


def cone(f: ComplexMorphism) -> ComplexRQ:
    """Mapping cone: cone^n = A^{n+1} + B^n, d(a, b) = (-da, f a + db)."""
    a, b = f.source, f.target
    q, r = a.quiver, a.ring
    degrees = sorted({n - 1 for n in a.degrees} | set(b.degrees))
    terms = {n: rep_direct_sum([a.term(n + 1), b.term(n)]) for n in degrees}
    diffs = {}
    for n in degrees:
        if n + 1 not in terms:
            continue
        da, db, fp = a.diffs.get(n + 1), b.diffs.get(n), f.parts.get(n + 1)
        mats = {}
        for v in q.vertices:
            grid = [[None if da is None else da.mats[v].neg(), None],
                    [None if fp is None else fp.mats[v], None if db is None else db.mats[v]]]
            mats[v] = Matrix.blocks(r, grid, [a.term(n + 2).gens(v), b.term(n + 1).gens(v)],
                                    [a.term(n + 1).gens(v), b.term(n).gens(v)])
        diffs[n] = mats
    return _perfect_if(_complex(q, r, terms, diffs), (a, b))


def _perfect_if(out: ComplexRQ, parts) -> ComplexRQ:
    """out, its `perfect` preset to True when every part's is known True: each
    term of out is a direct sum of terms of the parts.  Otherwise it stays lazy."""
    if all(x._perfect for x in parts):
        out._perfect = True
    return out


# ---------------------------------------------------------------------------
# constructors tied to the quiver


def projective_rep(q: Quiver, ring: Ring, i) -> Representation:
    """P(i): paths out of i, arrows acting by concatenation."""
    i = q.check_vertex(i)
    pos = {v: path_positions(q, i, v) for v in q.vertices}
    fibers = {v: FGModule.free(ring, len(pos[v])) for v in q.vertices}
    one = ring.one()
    arrows = {name: Matrix.from_entries(ring, len(pos[t]), len(pos[s]),
                                        {(pos[t][p + (name,)], col): one for p, col in pos[s].items()})
              for name, s, t in q.arrows}
    return _trusted(Representation, q, ring, fibers, arrows)


def unit_restriction(q: Quiver, ring: Ring, s) -> Representation:
    """The unit cut down to a vertex subset: R inside, identities inside."""
    s = vertex_set(q, s)
    fibers = {v: FGModule.free(ring, 1 if v in s else 0) for v in q.vertices}
    arrows = {}
    for name, a, b in q.arrows:
        if a in s and b in s:
            arrows[name] = Matrix.identity(ring, 1)
        else:
            arrows[name] = Matrix.zeros(ring, fibers[b].gens, fibers[a].gens)
    return _trusted(Representation, q, ring, fibers, arrows)


def unit_rep(q: Quiver, ring: Ring) -> Representation:
    return unit_restriction(q, ring, q.vertices)


def unit_complex(q: Quiver, ring: Ring) -> ComplexRQ:
    return stalk_complex(unit_rep(q, ring))


def proj_precompose(q: Quiver, ring: Ring, arrow_name) -> RepMorphism:
    """The map P(j) -> P(i) for an arrow a: i -> j, prefixing paths with a."""
    _, i, j = q.arrow(arrow_name)
    pi, pj = projective_rep(q, ring, i), projective_rep(q, ring, j)
    one = ring.one()
    mats = {}
    for v in q.vertices:
        rows, cols = path_positions(q, i, v), path_positions(q, j, v)
        mats[v] = Matrix.from_entries(ring, len(rows), len(cols),
                                      {(rows[(arrow_name,) + p], c): one for p, c in cols.items()})
    return _trusted(RepMorphism, pj, pi, mats)


# ---------------------------------------------------------------------------
# vertex evaluation and Kan extensions


def _reindex(x: ComplexRQ, q: Quiver, at: dict) -> ComplexRQ:
    """The complex over q whose fiber at v is x's at at[v], and 0 where at
    has no v, trusted.  An arrow of q with both ends in at keeps x's matrix
    under its name; every other arrow is 0.  Restriction and extension by
    zero are its two cases: q a full subquiver of x.quiver with every vertex
    in at, or at defined on a full subquiver of q that is x.quiver."""
    r = x.ring
    zero = FGModule.free(r, 0)
    terms = {}
    for n, rep in x.terms.items():
        fibers = {v: rep.fibers[at[v]] if v in at else zero for v in q.vertices}
        arrows = {name: rep.arrows[name] if s in at and t in at
                  else Matrix.zeros(r, fibers[t].gens, fibers[s].gens) for name, s, t in q.arrows}
        terms[n] = _trusted(Representation, q, r, fibers, arrows)
    diffs = {n: {v: d.mats[at[v]] if v in at else Matrix.zeros(r, 0, 0) for v in q.vertices}
             for n, d in x.diffs.items()}
    return _complex(q, r, terms, diffs)


def eval_vertex(x: ComplexRQ, i) -> ComplexRQ:
    """i^* X: the complex of R-modules sitting at one vertex."""
    return _reindex(x, point_quiver(), {"pt": x.quiver.check_vertex(i)})


def _copies_rep(q: Quiver, ring: Ring, fib: FGModule, slots: dict, arrow_slot):
    """Fibers fib^{slots(v)} with 0/1 block maps given by arrow_slot; slots[v]
    is {slot: its position}, as `path_positions` gives it."""
    fibers = {v: FGModule(ring, Matrix.identity(ring, len(slots[v])).kron(fib.presentation))
              for v in q.vertices}
    one = ring.one()
    arrows = {}
    for name, s, t in q.arrows:
        rows, cols = slots[t], slots[s]
        moved = {c: arrow_slot(name, s, t, slot) for slot, c in cols.items()}
        pm = Matrix.from_entries(ring, len(rows), len(cols),
                                 {(rows[tgt], c): one for c, tgt in moved.items() if tgt is not None})
        arrows[name] = pm.kron(Matrix.identity(ring, fib.gens))
    return _trusted(Representation, q, ring, fibers, arrows)


def kan_extend(m: ComplexRQ, q: Quiver, i, side: str = "left") -> ComplexRQ:
    """i_! (copies over paths i ~> j) or i_* (copies over paths j ~> i).

    m is a complex over the one-vertex quiver.  Both extensions are
    blockwise 0/1 on the path copies: concatenation slots for the left,
    projection slots for the right.
    """
    if side not in ("left", "right"):
        raise ShapeMismatch(f"side must be left or right, not {side!r}")
    i = q.check_vertex(i)
    if side == "left":
        slots = {v: path_positions(q, i, v) for v in q.vertices}

        def move(name, s, t, p):
            return p + (name,)
    else:
        slots = {v: path_positions(q, v, i) for v in q.vertices}

        def move(name, s, t, p):
            # component at target path pp pulls from source path (name,)+pp,
            # so the source slot p maps to its tail when it starts with name
            return p[1:] if p and p[0] == name else None

    terms = {n: _copies_rep(q, m.ring, rep.fibers["pt"], slots, move) for n, rep in m.terms.items()}
    diffs = {n: {v: Matrix.identity(m.ring, len(slots[v])).kron(d.mats["pt"]) for v in q.vertices}
             for n, d in m.diffs.items()}
    return _complex(q, m.ring, terms, diffs)


def i_times(m: ComplexRQ, q: Quiver, i) -> ComplexRQ:
    """Park an R-complex at one vertex: fiber m at i, zero elsewhere."""
    return _reindex(m, q, {q.check_vertex(i): "pt"})


def change_ring(x: ComplexRQ, ring: Ring) -> ComplexRQ:
    """Push every fiber presentation and matrix entry into another ring.

    Entries are read as integers and mapped by ring.from_int.  Homology
    commutes with the base change only when the new ring is flat over the
    old one (a localization, the fraction field), which is the intended use.
    """

    def push(m: Matrix) -> Matrix:
        return m.map_entries(ring.from_int, ring=ring)

    terms = {}
    for n, rep in x.terms.items():
        fibers = {v: FGModule(ring, push(f.presentation)) for v, f in rep.fibers.items()}
        arrows = {a: push(m) for a, m in rep.arrows.items()}
        terms[n] = _trusted(Representation, x.quiver, ring, fibers, arrows)
    diffs = {n: {v: push(m) for v, m in d.mats.items()} for n, d in x.diffs.items()}
    return _complex(x.quiver, ring, terms, diffs)


def _point_complex(ring: Ring, entries: dict, diff_mats: dict) -> ComplexRQ:
    """Trusted complex over the one-vertex quiver from modules and matrices."""
    pt = point_quiver()
    terms = {n: _trusted(Representation, pt, ring, {"pt": fib}, {}) for n, fib in entries.items()}
    return _complex(pt, ring, terms, {n: {"pt": m} for n, m in diff_mats.items()})


def complex_r(ring: Ring, entries: dict, diff_mats: dict) -> ComplexRQ:
    """A complex over the one-vertex quiver from modules and matrices."""
    out = _point_complex(ring, entries, diff_mats)
    out.validate()
    return out


def koszul_complex(ring: Ring, gens) -> ComplexRQ:
    """Koszul complex on a generator list, degrees [-k, 0].

    Basis in degree -j: the size-j subsets of generator indices, sorted;
    d(e_S) = sum over positions t of (-1)^t g_{S[t]} e_{S minus S[t]}.
    """
    gens = [ring.canon(g) for g in gens]
    if any(ring.is_zero(g) for g in gens):
        raise ShapeMismatch("Koszul generators must be nonzero")
    k = len(gens)
    basis = {j: sorted(combinations(range(k), j)) for j in range(k + 1)}
    entries = {-j: FGModule.free(ring, len(basis[j])) for j in range(k + 1)}
    diffs = {}
    for j in range(k, 0, -1):
        rows, cols = basis[j - 1], basis[j]
        # distinct positions t drop distinct indices, so no entry is hit twice
        diffs[-j] = Matrix.from_entries(ring, len(rows), len(cols), {
            (rows.index(S[:t] + S[t + 1:]), c): gens[idx] if t % 2 == 0 else ring.neg(gens[idx])
            for c, S in enumerate(cols) for t, idx in enumerate(S)})
    return _point_complex(ring, entries, diffs)


# ---------------------------------------------------------------------------
# tensor product


def _fiber_tensor(a: FGModule, b: FGModule) -> FGModule:
    r = a.ring
    if a.is_literally_free and b.is_literally_free:
        return FGModule.free(r, a.gens * b.gens)
    if b.is_literally_free:
        return FGModule(r, a.presentation.kron(Matrix.identity(r, b.gens)))
    if a.is_literally_free:
        return FGModule(r, Matrix.identity(r, a.gens).kron(b.presentation))
    raise NotDerivable("tensor of two non-free fibers is not computed termwise")


def rep_box(a: Representation, b: Representation) -> Representation:
    """Vertexwise tensor product with Kronecker arrow maps."""
    check_same_ring(a.ring, b.ring)
    if a.quiver != b.quiver:
        raise ShapeMismatch("tensor of representations over different quivers")
    fibers = {v: _fiber_tensor(a.fibers[v], b.fibers[v]) for v in a.quiver.vertices}
    arrows = {name: a.arrows[name].kron(b.arrows[name]) for name, _, _ in a.quiver.arrows}
    return _trusted(Representation, a.quiver, a.ring, fibers, arrows)


def box_tensor(x: ComplexRQ, y: ComplexRQ) -> ComplexRQ:
    """Total complex of the vertexwise tensor, Koszul signs on the y side.

    Computed termwise, which is only the derived tensor when both inputs are
    perfect or one of them has literally free fibers everywhere (then the
    termwise tensor is exact); anything else raises NotDerivable.
    """
    check_same_ring(x.ring, y.ring)
    if x.quiver != y.quiver:
        raise ShapeMismatch("tensor over different quivers")
    x_free = all(rep.all_free() for rep in x.terms.values())
    y_free = all(rep.all_free() for rep in y.terms.values())
    if not ((x.perfect and y.perfect) or x_free or y_free):
        raise NotDerivable("need perfect inputs or one side with free fibers")
    q, r = x.quiver, x.ring
    if x.is_zero or y.is_zero:
        return zero_complex(q, r)
    pairs = {}  # total degree -> (p, q) summands, ascending in p
    for p in x.degrees:
        for qq in y.degrees:
            pairs.setdefault(p + qq, []).append((p, qq))
    terms = {n: rep_direct_sum([rep_box(x.terms[p], y.terms[qq]) for p, qq in ps])
             for n, ps in sorted(pairs.items())}
    diffs = {}
    for n in sorted(pairs):
        if n + 1 not in pairs:
            continue
        src, tgt = pairs[n], pairs[n + 1]
        mats = {}
        for v in q.vertices:
            src_dims = [x.terms[p].gens(v) * y.terms[qq].gens(v) for p, qq in src]
            tgt_dims = [x.terms[p].gens(v) * y.terms[qq].gens(v) for p, qq in tgt]
            grid = [[None] * len(src) for _ in tgt]
            for ci, (p, qq) in enumerate(src):
                # a missing d^p or d^qq is a zero block; a present one has
                # its target term, so its summand is in tgt
                dx, dy = x.diffs.get(p), y.diffs.get(qq)
                if dx is not None:
                    ri = tgt.index((p + 1, qq))
                    grid[ri][ci] = dx.mats[v].kron(Matrix.identity(r, y.terms[qq].gens(v)))
                if dy is not None:
                    ri = tgt.index((p, qq + 1))
                    blk = Matrix.identity(r, x.terms[p].gens(v)).kron(dy.mats[v])
                    grid[ri][ci] = blk if p % 2 == 0 else blk.neg()
            mats[v] = Matrix.blocks(r, grid, tgt_dims, src_dims)
        diffs[n] = mats
    return _complex(q, r, terms, diffs)


# ---------------------------------------------------------------------------
# homology


def _homology_parts(x: ComplexRQ, n: int, vertices) -> dict:
    """{v: (K, H^n at v)} for n in x.terms.  The columns of K generate the
    cycles: the generator block of ker([d | next relations]); relations are
    boundaries, incoming relations and the relations among the generators."""
    r, cur, nxt = x.ring, x.terms[n], x.term(n + 1)
    out = {}
    for v in vertices:
        g = cur.gens(v)
        block = x.diff(n, v)
        nxt_pres = nxt.fibers[v].presentation
        if nxt_pres.cols:
            block = block.hstack(nxt_pres)
        K_full = kernel_basis(block)
        K = K_full.select_rows(range(g))
        rel_cols = x.diff(n - 1, v)
        cur_pres = cur.fibers[v].presentation
        if cur_pres.cols:
            rel_cols = rel_cols.hstack(cur_pres)
        w, rels = solve_kernel(K, rel_cols)
        if w is None:
            raise ShapeMismatch("boundaries escaped the cycle module; invalid complex")
        out[v] = (K, FGModule(r, w.hstack(rels)))
    return out


def _smith(x: ComplexRQ, k: int, v) -> tuple:
    """(rank, non-unit invariant factors) of d^k at v, read off its Smith
    diagonal through `cokernel_presentation`; (0, ()) where x has no d^k."""
    d = x.diffs.get(k)
    if d is None:
        return 0, ()
    coker = cokernel_presentation(d.mats[v])
    return d.mats[v].rows - coker.free_rank, coker.divisors


def _fibers(x: ComplexRQ, n: int, below: dict) -> tuple:
    """(`homology_fibers(x, n)`, {v: `_smith(x, n, v)`} for the vertices read).

    below holds `_smith(x, n - 1, v)` for the vertices the degree below read;
    a vertex it lacks has its d^(n-1) read here, and added to below."""
    r, vertices = x.ring, x.quiver.vertices
    cur, nxt, dn, dp = x.terms.get(n), x.terms.get(n + 1), x.diffs.get(n), x.diffs.get(n - 1)
    live = [v for v in vertices if cur is not None and cur.gens(v)]
    out, here = {}, {}
    for v in live:
        if not (r.is_domain and cur.fibers[v].is_literally_free
                and (nxt is None or nxt.fibers[v].is_literally_free)):
            continue
        if dn and dp and dp.mats[v].cols and not dn.mats[v].mul(dp.mats[v]).is_zero():
            raise ShapeMismatch("boundaries escaped the cycle module; invalid complex")
        if v not in below:
            below[v] = _smith(x, n - 1, v)
        rank_in, divs = below[v]
        here[v] = _smith(x, n, v)
        f = cur.gens(v) - rank_in - here[v][0]
        out[v] = FGModule.from_divisors(r, divs, f)
    rest = [v for v in live if v not in out]
    if rest:
        out.update((v, h) for v, (_, h) in _homology_parts(x, n, rest).items())
    zero = FGModule.free(r, 0) if len(live) < len(vertices) else None
    return {v: out.get(v, zero) for v in vertices}, here


def homology_fibers(x: ComplexRQ, n: int) -> dict:
    """{v: H^n(x) at v}: the fibers of `homology`, without its arrow maps.

    Over a domain (each one here is a PID), a vertex whose fibers in degrees n
    and n + 1 are literally free reads H^n off the Smith diagonals of d^n and
    d^(n-1) there, with no kernel and no transforms: H^n = R^f plus R/(e) for
    each non-unit nonzero diagonal entry e of d^(n-1), where f = rank C^n -
    rank d^n - rank d^(n-1).  This is exact because ker d^n is saturated in
    C^n, so it holds the saturation S of im d^(n-1): S / im d^(n-1) is that
    torsion, and ker d^n / S is free of rank f.  The check that d^n d^(n-1)
    vanishes stays.  Every other vertex with generators (Z/n, fibers with
    relations) takes the cycle-matrix path of `homology`.

    A vertex with no generators in degree n gets the zero module without
    eliminating.  `homology` cannot skip it: when the next fiber has
    relations, K there can be 0 x j with j > 0, and arrow shapes depend on j.
    """
    return _fibers(x, n, {})[0]


def _walk(x: ComplexRQ):
    """(n, fibers, here, below) for n in `x.degrees`, as `_fibers` reads them.
    d^k is d^n at degree k and d^(n-1) at degree k + 1, so each degree hands
    its `_smith` readings of d^n (here) to the next (below)."""
    here = {}
    for n in x.degrees:
        below = here if n - 1 in x.terms else {}
        fibers, here = _fibers(x, n, below)
        yield n, fibers, here, below


def homology_sweep(x: ComplexRQ):
    """(n, `homology_fibers(x, n)`) for n in `x.degrees`, off one `_walk`.
    H^n = 0 wherever C^n = 0, so the empty degrees are skipped."""
    return ((n, fibers) for n, fibers, _, _ in _walk(x))


def homology(x: ComplexRQ, n: int) -> Representation:
    """H^n as a representation: the fibers of `_homology_parts`, with the
    arrow maps they induce on cycle generators.  The reference path: no
    package code calls it; tests compare the faster readers against it."""
    q, r = x.quiver, x.ring
    if n not in x.terms:
        return rep_zero(q, r)
    parts = _homology_parts(x, n, q.vertices)
    arrows = {}
    for name, s, t in q.arrows:
        img = x.terms[n].arrows[name].mul(parts[s][0])
        m = solve(parts[t][0], img)
        if m is None:
            raise ShapeMismatch(f"arrow {name} does not preserve cycles")
        arrows[name] = m
    return _trusted(Representation, q, r, {v: parts[v][1] for v in q.vertices}, arrows)


def homology_range(x: ComplexRQ):
    ds = x.degrees
    return range(min(ds), max(ds) + 1) if ds else range(0)


def homology_fingerprint(x: ComplexRQ):
    """Sorted iso data of all homology: (degree, vertex, free rank, divisors).

    Over a field the ranks of the induced arrow maps are appended, making the
    fingerprint a complete derived invariant for the quivers we test over;
    over Z and friends it is the documented necessary-condition check.

    The fibers are those of `homology_sweep`, off the same `_walk`.  Over a
    field every nonzero relation is a unit, so a complex with relations is
    first replaced by its `_minimalize_fibers`, an isomorphic complex with
    literally free fibers.  Then the rank of arrow a: s -> t on H^n is
    rank M - rank d_s^n - rank d_t^(n-1), with M = [[a, d_t^(n-1)],
    [d_s^n, 0]], the ranks of d read off the walk's Smith diagonals.  Proof:
    (x, y) -> a x + d_t y on Z_s + C_t^(n-1) has kernel ker M and image
    a(Z_s) + B_t, so that image has dimension rank M - rank d_s^n, and B_t
    has dimension rank d_t^(n-1).  Like the sweep, it visits only the
    degrees of x.
    """
    r, q = x.ring, x.quiver
    if r.is_field and not all(rep.all_free() for rep in x.terms.values()):
        x = _minimalize_fibers(x)
    fmt = r.format_elem
    out = []
    for n, fibers, here, below in _walk(x):
        for v, fib in fibers.items():
            if not fib.is_zero_module:
                out.append((n, v, fib.free_rank, tuple(fmt(d) for d in fib.divisors.divisors)))
        if not r.is_field:
            continue
        for name, s, t in q.arrows:
            a, ds, dt = x.terms[n].arrows[name], x.diff(n, s), x.diff(n - 1, t)
            m = Matrix.blocks(r, [[a, dt], [ds, None]], [a.rows, ds.rows], [a.cols, dt.cols])
            # a vertex _fibers did not read has no generators in
            # degree n, so d_s^n has no columns and d_t^(n-1) no rows
            k = rank(m) - here.get(s, (0,))[0] - below.get(t, (0,))[0]
            if k:
                out.append((n, "->" + name, k, ()))
    return tuple(sorted(out, key=lambda t: (t[0], str(t[1]))))


def is_acyclic(x: ComplexRQ) -> bool:
    return all(fib.is_zero_module for _, fibers in homology_sweep(x) for fib in fibers.values())


# ---------------------------------------------------------------------------
# projective resolution


def _minimalize_fibers(x: ComplexRQ) -> ComplexRQ:
    """Re-coordinate every fiber so its presentation is injective diagonal.

    Change of basis by the Smith u on each fiber; all matrices in and out are
    conjugated accordingly, unit-killed generators are dropped.
    """
    r = x.ring
    q = x.quiver
    # per (degree, vertex): (u, u^-1, keep-indices, new presentation)
    coord = {}
    for n, rep in x.terms.items():
        for v in q.vertices:
            fib = rep.fibers[v]
            if fib.is_literally_free:
                coord[(n, v)] = None
                continue
            d, u, _ = smith_normal_form(fib.presentation)
            diag = diagonal_of(d)
            keep = [i for i in range(fib.gens)
                    if i >= len(diag) or r.is_zero(diag[i]) or not r.is_unit(diag[i])]
            rels = [(k, diag[i]) for k, i in enumerate(keep) if i < len(diag) and not r.is_zero(diag[i])]
            pres = Matrix.from_entries(r, len(keep), len(rels), {(k, c): e for c, (k, e) in enumerate(rels)})
            coord[(n, v)] = (u, solve(u, Matrix.identity(r, u.rows)), keep, pres)

    def convert(mat: Matrix, src_key, tgt_key) -> Matrix:
        m = mat
        if coord[src_key] is not None:
            _, u_inv, keep_s, _ = coord[src_key]
            m = m.mul(u_inv).select_columns(keep_s)
        if coord[tgt_key] is not None:
            u_t, _, keep_t, _ = coord[tgt_key]
            m = u_t.mul(m).select_rows(keep_t)
        return m

    terms = {}
    for n, rep in x.terms.items():
        fibers = {}
        for v in q.vertices:
            c = coord[(n, v)]
            fibers[v] = rep.fibers[v] if c is None else FGModule(r, c[3])
        arrows = {name: convert(rep.arrows[name], (n, s), (n, t)) for name, s, t in q.arrows}
        terms[n] = _trusted(Representation, q, r, fibers, arrows)
    diffs = {n: {v: convert(d.mats[v], (n, v), (n + 1, v)) for v in q.vertices} for n, d in x.diffs.items()}
    return _complex(q, r, terms, diffs)


def _free_fiber_replacement(x: ComplexRQ) -> ComplexRQ:
    """Quasi-isomorphic complex with literally free fibers.

    Fibers are resolved by their (injective, diagonal) presentations; the
    lifted maps are unique, which makes every required coherence strict.  The
    twisted total complex puts relations of degree m+1 next to generators of
    degree m.
    """
    if all(rep.all_free() for rep in x.terms.values()):
        return x
    x = _minimalize_fibers(x)
    q, r = x.quiver, x.ring

    def pres(n, v):
        return x.term(n).fibers[v].presentation

    def lift_through(n_tgt, v, mat):
        """Unique L with pres(n_tgt, v) * L = mat; mat lands in the relations."""
        p = pres(n_tgt, v)
        if p.cols == 0:
            if not mat.is_zero():
                raise NotPerfect("cannot lift through an empty relation module")
            return Matrix.zeros(r, 0, mat.cols)
        out = solve(p, mat)
        if out is None:
            raise NotPerfect("relation lift failed; fibers too entangled to resolve")
        return out

    degrees = x.degrees
    terms, diffs = {}, {}
    span = sorted(set(degrees) | {n - 1 for n in degrees})
    for m in span:
        fibers, arrows = {}, {}
        for v in q.vertices:
            g = x.term(m).gens(v)
            c = pres(m + 1, v).cols
            fibers[v] = FGModule.free(r, g + c)
        for name, s, t in q.arrows:
            a_gen = x.term(m).arrows[name]
            a_next = x.term(m + 1).arrows[name]
            a_rel = lift_through(m + 1, t, a_next.mul(pres(m + 1, s)))
            # naturality defect of the generator-level differential
            defect = x.diff(m, t).mul(a_gen).sub(a_next.mul(x.diff(m, s)))
            n_blk = lift_through(m + 1, t, defect)
            grid = [[a_gen, None], [n_blk.neg(), a_rel]]
            arrows[name] = Matrix.blocks(r, grid,
                                         [x.term(m).gens(t), pres(m + 1, t).cols],
                                         [x.term(m).gens(s), pres(m + 1, s).cols])
        if any(f.gens for f in fibers.values()):
            terms[m] = _trusted(Representation, q, r, fibers, arrows)
    for m in span:
        if m not in terms or m + 1 not in terms:
            continue
        mats = {}
        for v in q.vertices:
            delta = x.diff(m, v)
            delta_next = x.diff(m + 1, v)
            p_next = pres(m + 1, v)
            delta_rel = lift_through(m + 2, v, delta_next.mul(p_next))
            h_blk = lift_through(m + 2, v, delta_next.mul(delta))
            grid = [[delta, p_next], [h_blk.neg(), delta_rel.neg()]]
            mats[v] = Matrix.blocks(r, grid,
                                    [x.term(m + 1).gens(v), pres(m + 2, v).cols],
                                    [x.term(m).gens(v), p_next.cols])
        diffs[m] = mats
    return _complex(q, r, terms, diffs)


def projective_resolution(x: ComplexRQ) -> ComplexRQ:
    """A perfect complex with the same homology at every degree and vertex.

    Fibers are freed first (length-one resolutions exist over the regular
    tier), then the standard two-term projective resolution of
    representations (Ringel, J. Algebra 1976)

        0 -> sum_a P(t(a)) x X_{s(a)} -> sum_i P(i) x X_i -> X -> 0

    is applied termwise and totalized.  Refused over Z/n for composite n
    unless n is square-free and every fiber of x is already literally free;
    Z/p is a field and resolves like F_p.

    Term m is B0 = sum_i P(i) x X^m_i in vertex order, then B1 = sum_a
    P(t(a)) x X^(m+1)_(s(a)) in arrow order; in a block P(i) x R^g the path
    with index k in `path_positions` holds rows k*g .. k*g + g - 1.  Each
    arrow matrix and each differential is one `Matrix.from_entries`, its
    entries placed from those positions: the differential is P(i) x d on
    B0, phi: B1 -> B0 (p x z to p x X_a(z) minus (a then p) x z), and
    -P(t) x d on B1.  The output is perfect by construction, so its
    `perfect` is preset; it is built through `_complex` and not validated
    again.  Only the complex is built: the augmentation back to x has one
    reader, the unit's in `homs`, which builds it there.

    It stays the standard resolution, not a minimal one, though a minimal
    one can be much smaller: the samples draw chain-map coefficients from
    spaces built over it, so changing it would change `verify`'s cases and
    the benchmark's pinned pools.
    """
    q, r = x.quiver, x.ring
    if isinstance(r, IntegersMod) and not r.is_field:
        square_free = all(r.n % (p * p) != 0 for p in int_prime_factors(r.n))
        if not (square_free and all(rep.all_free() for rep in x.terms.values())):
            raise NonRegularRing(f"cannot resolve over {r.label}; input must already be perfect")
    x = _free_fiber_replacement(x)
    if x.is_zero:
        return x
    vs, arrows, one = q.vertices, q.arrows, r.one()
    minus_one = r.neg(one)
    pos = {(i, v): path_positions(q, i, v) for i in vs for v in vs}

    def place(ents, k, d, row, col, sign):
        """I_k x d (negated when sign) with its corner at (row, col)."""
        nz = [(w, z, r.neg(e) if sign else e) for w, z, e in d.nonzeros()]
        for p in range(k):
            for w, z, e in nz:
                ents[row + p * d.rows + w, col + p * d.cols + z] = e

    span = sorted(set(x.degrees) | {n - 1 for n in x.degrees})
    at, terms = {}, {}  # at[m][v]: (first row of each block of term m at v, rank)
    for m in span:
        b0, b1 = x.term(m), x.term(m + 1)
        blocks = [(i, b0.gens(i)) for i in vs] + [(t, b1.gens(s)) for _, s, t in arrows]
        at[m] = {}
        for v in vs:
            firsts, k = [], 0
            for start, g in blocks:
                firsts.append(k)
                k += len(pos[start, v]) * g
            at[m][v] = firsts, k
        if not any(k for _, k in at[m].values()):
            continue
        mats = {}
        for name, s, t in arrows:
            ents = {}
            for (start, g), col0, row0 in zip(blocks, at[m][s][0], at[m][t][0]):
                tgt = pos[start, t]
                for p, k in pos[start, s].items():
                    row, col = row0 + tgt[p + (name,)] * g, col0 + k * g
                    for z in range(g):
                        ents[row + z, col + z] = one
            mats[name] = Matrix.from_entries(r, at[m][t][1], at[m][s][1], ents)
        terms[m] = _trusted(Representation, q, r, {v: FGModule.free(r, at[m][v][1]) for v in vs}, mats)
    diffs = {}
    for m in terms:
        if m + 1 not in terms:
            continue
        d_top, d_bot, nxt = x.diffs.get(m), x.diffs.get(m + 1), x.terms.get(m + 1)
        diffs[m] = {}
        for v in vs:
            (cols, ncols), (rows, nrows) = at[m][v], at[m + 1][v]
            ents = {}
            if d_top is not None:
                for k, i in enumerate(vs):
                    place(ents, len(pos[i, v]), d_top.mats[i], rows[k], cols[k], False)
            for k, (name, s, t) in enumerate(arrows, len(vs)):
                if d_bot is not None:
                    place(ents, len(pos[t, v]), d_bot.mats[s], rows[k], cols[k], True)
                if nxt is None:
                    continue
                # phi on the B1 block of a: p x X_a(z) in the P(t) block,
                # minus (a then p) x z in the P(s) block
                gs, ps, row_s = nxt.gens(s), pos[s, v], rows[vs.index(s)]
                place(ents, len(pos[t, v]), nxt.arrows[name], rows[vs.index(t)], cols[k], False)
                for p, k_p in pos[t, v].items():
                    row, col = row_s + ps[(name,) + p] * gs, cols[k] + k_p * gs
                    for z in range(gs):
                        ents[row + z, col + z] = minus_one
            diffs[m][v] = Matrix.from_entries(r, nrows, ncols, ents)
    out = _complex(q, r, terms, diffs)
    out._perfect = True
    return out


def ensure_perfect(x: ComplexRQ) -> ComplexRQ:
    return x if x.perfect else projective_resolution(x)
