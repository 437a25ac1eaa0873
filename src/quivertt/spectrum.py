"""Prime tensor ideals of perfect complexes over RQ.

The spectrum of the perfect complexes is Spec(R) x Q0: a point is a prime
ideal of the base ring together with a vertex, standing for the kernel of
the functor "restrict to that vertex, then localize at that prime".  An
object lies in the kernel exactly when the localized fiber complex is
acyclic, and because our complexes have finitely generated homology over a
noetherian base this is a statement about homology supports, which Smith
normal form computes exactly.

Supports of objects are recorded per vertex as specialization-closed
subsets of Spec(R) (`QSupport`).  The support determines the thick tensor
ideal an object generates, which gives the translation layer at the bottom
of this file and the brute-force closure oracle that double-checks it over
finite fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (
    ComplexRQ,
    cone,
    direct_sum_complexes,
    ensure_perfect,
    homology_fingerprint,
    homology_sweep,
    i_times,
    koszul_complex,
    shift_complex,
    unit_complex,
)
from .errors import (
    BadElement,
    MonotonicityViolation,
    UnsupportedRing,
    UniverseNotClosed,
)
from .homs import ChainMapSpace
from .quivers import Quiver, point_quiver
from .rings import (
    PrimeIdeal,
    Ring,
    SpClosedSet,
    check_same_ring,
    enumerate_primes,
    module_support,
    prime_contains,
    sp_all,
    sp_closed_contains,
    sp_closed_intersection,
    sp_closed_subset,
    sp_closed_union,
    sp_empty,
    sp_points,
)


@dataclass(frozen=True)
class BalmerPoint:
    """A prime of the base ring parked at a vertex."""

    prime: PrimeIdeal
    vertex: str

    def __str__(self):
        return f"({self.prime.ring.format_elem(self.prime.gen)}, {self.vertex})"

    def sort_key(self):
        return (self.vertex, self.prime.sort_key())


@dataclass(frozen=True)
class QSupport:
    """One specialization-closed subset of Spec(R) per vertex.

    components are stored in quiver vertex order; missing vertices in the
    constructor mapping default to empty.
    """

    quiver: Quiver
    ring: Ring
    components: tuple

    def at(self, v) -> SpClosedSet:
        v = self.quiver.check_vertex(v)
        return self.components[self.quiver.vertices.index(v)]

    @property
    def is_empty(self) -> bool:
        return all(c.is_empty for c in self.components)

    def __str__(self):
        return "; ".join(f"{v}: {c}" for v, c in zip(self.quiver.vertices, self.components))


def q_support(quiver: Quiver, ring: Ring, mapping=None) -> QSupport:
    mapping = dict(mapping or {})
    comps = []
    for v in quiver.vertices:
        c = mapping.pop(v, None)
        if c is None:
            c = sp_empty(ring)
        check_same_ring(ring, c.ring)
        comps.append(c)
    if mapping:
        raise BadElement(f"support names unknown vertices: {sorted(mapping)}")
    return QSupport(quiver, ring, tuple(comps))


def q_support_all(quiver: Quiver, ring: Ring) -> QSupport:
    return QSupport(quiver, ring, tuple(sp_all(ring) for _ in quiver.vertices))


def _check_same_shape(a: QSupport, b: QSupport):
    if a.quiver != b.quiver:
        raise BadElement("supports over different quivers")
    check_same_ring(a.ring, b.ring)


def q_support_union(a: QSupport, b: QSupport) -> QSupport:
    _check_same_shape(a, b)
    return QSupport(a.quiver, a.ring, tuple(sp_closed_union(x, y) for x, y in zip(a.components, b.components)))


def q_support_intersection(a: QSupport, b: QSupport) -> QSupport:
    _check_same_shape(a, b)
    return QSupport(a.quiver, a.ring, tuple(sp_closed_intersection(x, y) for x, y in zip(a.components, b.components)))


def q_support_subset(a: QSupport, b: QSupport) -> bool:
    _check_same_shape(a, b)
    return all(sp_closed_subset(x, y) for x, y in zip(a.components, b.components))


# ---------------------------------------------------------------------------
# membership tests and supports


def xi_zero_test(x: ComplexRQ, p: PrimeIdeal, i) -> bool:
    """Whether x dies under "restrict to vertex i, localize at p".

    True iff p avoids the support of every homology module of the fiber
    complex; localization is exact, so this is the acyclicity of the
    localized complex.
    """
    check_same_ring(x.ring, p.ring)
    i = x.quiver.check_vertex(i)
    return not sp_closed_contains(compact_support(x).at(i), p)


def compact_support(x: ComplexRQ) -> QSupport:
    """Per-vertex union of homology supports; the points where x survives.

    No prime enters it, so it is memoized on the complex (`x._support`).  A
    factoring cap refused by `module_support` is re-raised with the degree
    and vertex whose homology it was reading.
    """
    if x._support is None:
        comps = {v: sp_empty(x.ring) for v in x.quiver.vertices}
        for n, fibers in homology_sweep(x):
            for v, fib in fibers.items():
                try:
                    comps[v] = sp_closed_union(comps[v], module_support(fib))
                except BadElement as e:
                    raise BadElement(f"degree {n}, vertex {v}: {e}") from None
        x._support = QSupport(x.quiver, x.ring, tuple(comps.values()))
    return x._support


def big_support_compact(x: ComplexRQ) -> QSupport:
    """Support via the residue-object test, evaluated for bounded complexes.

    Tensoring with the residue object of (p, i) detects exactly whether p
    lies in the support of the homology of the fiber at i, as long as that
    homology is finitely generated, which it is for everything this data
    model can express.  So the two support notions coincide here and we
    compute the homology-side one.
    """
    return compact_support(x)


def ideal_generators(s: QSupport) -> list:
    """Complexes generating the thick tensor ideal with support s.

    A vertex carrying the whole spectrum contributes the free rank-one
    stalk at that vertex; a finite component contributes one parked Koszul
    complex per listed prime.
    """
    q, r = s.quiver, s.ring
    out = []
    unit_pt = unit_complex(point_quiver(), r)
    for v in q.vertices:
        c = s.at(v)
        if c.is_all:
            out.append(i_times(unit_pt, q, v))
        else:
            for p in sorted(c.points, key=PrimeIdeal.sort_key):
                out.append(i_times(koszul_complex(r, (p.gen,)), q, v))
    return out


def ideal_membership(x: ComplexRQ, s: QSupport) -> bool:
    """x lies in the thick tensor ideal classified by s iff supp(x) is inside s."""
    if x.quiver != s.quiver:
        raise BadElement("object and support live over different quivers")
    check_same_ring(x.ring, s.ring)
    return q_support_subset(compact_support(x), s)


# ---------------------------------------------------------------------------
# the spectrum window and its detecting objects


def detecting_object(ring: Ring, quiver: Quiver, r_elem, i) -> ComplexRQ:
    """Parked Koszul complex on r at vertex i, plus a free stalk everywhere else.

    Membership in the point (q, j) then reads off as: j = i and r not in q.
    The free stalks pin the vertex, the Koszul factor pins the prime.
    """
    i = quiver.check_vertex(i)
    unit_pt = unit_complex(point_quiver(), ring)
    parts = [i_times(koszul_complex(ring, (r_elem,)), quiver, i)]
    for v in quiver.vertices:
        if v != i:
            parts.append(i_times(unit_pt, quiver, v))
    return direct_sum_complexes(parts)


@dataclass(frozen=True)
class SpectrumWindow:
    """All points with prime generator inside an enumeration window.

    The order is: (p, i) <= (q, j) iff i = j and q is contained in p;
    inclusions of the kernels reverse inclusions of the primes.
    """

    ring: Ring
    quiver: Quiver
    bound: int
    points: tuple

    def leq(self, a: BalmerPoint, b: BalmerPoint) -> bool:
        return a.vertex == b.vertex and prime_contains(b.prime, a.prime)

    def covers(self) -> list:
        """(closed point, generic point of its vertex) pairs, in point order:
        spectra have height at most one, so every strict relation is a cover."""
        generic = {pt.vertex: pt for pt in self.points if pt.prime.is_zero_ideal}
        return [(a, generic[a.vertex]) for a in self.points
                if not a.prime.is_zero_ideal and a.vertex in generic]

    def member(self, x: ComplexRQ, pt: BalmerPoint) -> bool:
        """Whether x lies in the prime ideal at pt (i.e. dies there)."""
        return xi_zero_test(x, pt.prime, pt.vertex)

    def detecting_objects(self) -> list:
        """(generator, vertex, object) rows, one per maximal prime and vertex."""
        rows = []
        for p in self.maximal_primes():
            for v in self.quiver.vertices:
                rows.append((p.gen, v, detecting_object(self.ring, self.quiver, p.gen, v)))
        return rows

    def maximal_primes(self) -> list:
        seen = {pt.prime for pt in self.points if not pt.prime.is_zero_ideal}
        return sorted(seen, key=PrimeIdeal.sort_key)


def spc_enumerate(ring: Ring, quiver: Quiver, bound: int) -> SpectrumWindow:
    if bound < 0:
        raise BadElement("enumeration bound must be nonnegative")
    pts = []
    for v in quiver.vertices:
        for p in enumerate_primes(ring, bound):
            pts.append(BalmerPoint(p, v))
    pts.sort(key=BalmerPoint.sort_key)
    return SpectrumWindow(ring, quiver, bound, tuple(pts))


def spc_dot(win: SpectrumWindow) -> str:
    """DOT digraph of the window poset, edges along covering relations."""
    lines = ["digraph spectrum {", "  rankdir=BT;"]
    for pt in win.points:
        lines.append(f'  "{pt}";')
    for a, b in win.covers():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the two translations of the classification


@dataclass(frozen=True)
class PerVertexForm:
    """The classification read as: one specialization-closed set per vertex."""

    quiver: Quiver
    ring: Ring
    components: tuple


@dataclass(frozen=True)
class VertexPosetMap:
    """The classification read as a monotone map Spec(R) -> subsets of Q0.

    Stored as the default value (taken at the generic point and at every
    prime not listed) plus a finite exception table.  Monotone means the
    default is contained in every exception value: shrinking the prime can
    only shrink the vertex set.
    """

    quiver: Quiver
    ring: Ring
    default: frozenset
    exceptions: tuple  # ((PrimeIdeal, frozenset), ...) sorted by prime

    def value(self, p: PrimeIdeal) -> frozenset:
        check_same_ring(self.ring, p.ring)
        for q, val in self.exceptions:
            if q == p:
                return val
        return self.default


def vertex_poset_map(quiver: Quiver, ring: Ring, default, exceptions) -> VertexPosetMap:
    dflt = frozenset(quiver.check_vertex(v) for v in default)
    table = []
    seen = set()
    for p, val in exceptions:
        check_same_ring(ring, p.ring)
        if p.is_zero_ideal:
            raise MonotonicityViolation("the generic point's value is the default; it cannot be an exception")
        if p in seen:
            raise BadElement(f"prime {p} listed twice")
        seen.add(p)
        vs = frozenset(quiver.check_vertex(v) for v in val)
        if not dflt <= vs:
            raise MonotonicityViolation(
                f"value at {p} does not contain the default; the map is not monotone"
            )
        if vs != dflt:
            table.append((p, vs))
    table.sort(key=lambda t: t[0].sort_key())
    return VertexPosetMap(quiver, ring, dflt, tuple(table))


def translate_classification(s: QSupport, mode: str):
    """Re-encode a support as per-vertex data or as a monotone poset map."""
    if mode == "per_vertex":
        return PerVertexForm(s.quiver, s.ring, s.components)
    if mode == "poset_map":
        default = frozenset(v for v in s.quiver.vertices if s.at(v).is_all)
        primes = set()
        for c in s.components:
            if not c.is_all:
                primes.update(c.points)
        exceptions = []
        for p in sorted(primes, key=PrimeIdeal.sort_key):
            val = frozenset(v for v in s.quiver.vertices if sp_closed_contains(s.at(v), p))
            exceptions.append((p, val))
        return vertex_poset_map(s.quiver, s.ring, default, exceptions)
    raise BadElement(f"unknown translation mode {mode!r}")


def untranslate_classification(form) -> QSupport:
    if isinstance(form, PerVertexForm):
        for c in form.components:
            check_same_ring(form.ring, c.ring)
        if len(form.components) != len(form.quiver.vertices):
            raise BadElement("component count does not match the vertex count")
        return QSupport(form.quiver, form.ring, tuple(form.components))
    if isinstance(form, VertexPosetMap):
        comps = []
        for v in form.quiver.vertices:
            if v in form.default:
                comps.append(sp_all(form.ring))
            else:
                pts = {p for p, val in form.exceptions if v in val}
                comps.append(sp_points(form.ring, pts))
        return QSupport(form.quiver, form.ring, tuple(comps))
    raise BadElement(f"cannot translate back from {type(form).__name__}")


# ---------------------------------------------------------------------------
# brute-force closure oracle over finite fields
#
# Iso classes are tracked by homology fingerprint, normalized so the lowest
# nonzero homology sits in degree 0; thick subcategories are shift-closed,
# so nothing is lost.  Closure steps: direct sums and summands (fingerprint
# arithmetic), tensoring with every universe element, and cones over every
# chain map between projective replacements of two members.  Chain maps out
# of a bounded complex of projectives hit every map in the homotopy
# category, so sweeping all of them finds every candidate triangle; the
# approximation lies in identifying objects with equal fingerprints, which
# is faithful for the small linear quivers the oracle is used on.
#
# The tensor step is read off the two fingerprints by Kunneth (`_fp_box`):
# the tensor is vertexwise, so over a field H^n(x box y) at a vertex is the
# sum over p + q = n of H^p(x) (x) H^q(y) there, naturally in the arrow
# maps.  Fiber dimensions multiply, and so do arrow ranks, since
# rank(f (x) g) = rank f * rank g.  This holds only over a field, which the
# oracle requires anyway; only the cone sweeps build complexes (`resolved`).
#
# The cheap steps run semi-naively (Bancilhon 1986): each newly admitted
# member is split into universe summands and tensored with the universe
# once, and summed once with itself and each earlier member at every shift;
# normalize(x + y[k]) = normalize(y + x[-k]), so unordered pairs suffice.
# A fingerprint is packed into one int, a fixed-width rank field per
# (degree, key), wide enough that adding two members never carries: a
# shifted sum is one shift and one add, looked up among the packed universe,
# and a run tracks its members by their packed ints.  Cone sweeps, smallest
# pairs first, start only once the worklist is empty, and any find goes
# back onto it.
#
# Results outside the universe's stated bounds are skipped as out of scope;
# a result inside the bounds but missing from the universe raises
# UniverseNotClosed.  The bounds are `within`, which must be a pure function
# of the fingerprint: its verdicts are memoized in the cache per `within`
# object, on the tensor products of each member and on the shifted sums of
# each member pair, kept in one row per member that `drain` reads once per
# new member.  Calls sharing a cache and one `within` sum each pair and
# tensor each member once, and a new lambda on every call gets no reuse.


def _fp_normalize(fp):
    low = min((n for n, _, _, _ in fp), default=0)
    return tuple(sorted(((n - low, key, rank, divs) for n, key, rank, divs in fp), key=lambda t: (t[0], str(t[1]))))


def _fp_box(a, b):
    """Normalized fingerprint of x box y from those of x and y (over a field)."""
    by_key = {}
    for m, key, s, _ in b:
        by_key.setdefault(key, []).append((m, s))
    tally = {}
    for n, key, r, _ in a:
        for m, s in by_key.get(key, ()):
            tally[n + m, key] = tally.get((n + m, key), 0) + r * s
    return _fp_normalize(tuple((n, key, t, ()) for (n, key), t in tally.items()))


def _fp_span(fp):
    # fingerprints are sorted by degree
    return fp[-1][0] - fp[0][0] + 1 if fp else 0


def _fp_max_dim(fp):
    return max((rank for _, key, rank, _ in fp if not str(key).startswith("->")), default=0)


def _default_within(universe_fps):
    span = max((_fp_span(fp) for fp in universe_fps), default=1)
    dim = max((_fp_max_dim(fp) for fp in universe_fps), default=1)

    def within(fp):
        return _fp_span(fp) <= span and _fp_max_dim(fp) <= dim

    return within


class _Universe:
    """Normalized fingerprints of one universe list, plain and packed.

    Kept in the closure cache and reused only for the very same objects.
    """

    def __init__(self, universe, ring):
        self.elements = tuple(universe)
        for u in universe:
            check_same_ring(ring, u.ring)
        self.fps = [_fp_normalize(homology_fingerprint(u)) for u in universe]
        self.index = {fp: pos for pos, fp in enumerate(self.fps)}
        if len(self.index) < len(self.fps):
            raise BadElement("universe lists two objects with the same fingerprint")
        self.span = max(_fp_span(fp) for fp in self.fps)
        self.keys = sorted({key for fp in self.fps for _, key, _, _ in fp}, key=str)
        # a field holds the sum of two member ranks, so packed sums never carry
        self.width = (2 * max((r for fp in self.fps for _, _, r, _ in fp), default=0)).bit_length() or 1
        self.stride = self.width * len(self.keys)  # bits per degree
        slot = {key: i * self.width for i, key in enumerate(self.keys)}
        self.packed = {fp: sum(r << (n * self.stride + slot[key]) for n, key, r, _ in fp) for fp in self.fps}
        self.unpacked = {p: fp for fp, p in self.packed.items()}
        self.nonzero = frozenset(self.unpacked) - {0}
        self.rows = {}

    def unpack(self, p):
        out, n, field = [], 0, (1 << self.width) - 1
        while p:
            row = (n, p & ((1 << self.stride) - 1))  # one degree's fields, decoded once per universe
            if row not in self.rows:
                ranks = [(key, row[1] >> (i * self.width) & field) for i, key in enumerate(self.keys)]
                self.rows[row] = [(n, key, r, ()) for key, r in ranks if r]
            out += self.rows[row]
            p >>= self.stride
            n += 1
        return tuple(out)

    def split(self, x):
        """(u, rest) for each universe summand u of x whose rest is () or in the universe."""
        px, out = self.packed[x], []
        for u in self.fps:
            for offset in range(_fp_span(x) - _fp_span(u) + 1) if u else ():
                # a field that borrows ends above every universe rank and an
                # overdrawn top field leaves rest negative: the lookup rejects both
                rest = px - (self.packed[u] << (offset * self.stride))
                if rest > 0:
                    rest >>= ((rest & -rest).bit_length() - 1) // self.stride * self.stride
                if rest == 0 or rest in self.unpacked:
                    out.append((u, self.unpacked[rest] if rest else ()))
        return out


class _ClosureState:
    """One closure run; the universe and the sweeps live in the cache dict.

    Members are tracked by their packed fingerprints (`_Universe.packed`).
    """

    def __init__(self, universe, ring, within, max_maps, cache):
        self.ring = ring
        self.max_maps = max_maps
        self.cache = cache if cache is not None else {}
        u = self.cache.get(("universe",))
        if u is None or len(u.elements) != len(universe) or any(a is not b for a, b in zip(universe, u.elements)):
            u = _Universe(universe, ring)
            self.cache.clear()  # every other entry is keyed by the old universe's fingerprints
            self.cache[("universe",)] = u
        self.u = u
        self.within_key = within  # None for the default, which the universe alone decides
        self.within = within or _default_within(u.fps)
        self.found = set()  # packed members
        self.todo = []  # packed members whose cheap steps are still to run
        self.done = []  # packed members already combined
        self.rejected = set()  # packed sums outside the universe, already refused by within

    def cached(self, key, make):
        if key not in self.cache:
            self.cache[key] = make()
        return self.cache[key]

    def resolved(self, fp):
        def make():
            # shift the stored representative so its fingerprint is normalized
            u = self.u.elements[self.u.index[fp]]
            k = min((n for n, _, _, _ in homology_fingerprint(u)), default=0)
            return ensure_perfect(shift_complex(u, k) if k else u)

        return self.cached(("res", fp), make)

    def add(self, p):
        if p and p not in self.found:
            self.found.add(p)
            self.todo.append(p)

    def admit_cone(self, fp):
        p = self.u.packed.get(fp)
        if fp and (p is None or p not in self.found) and self.within(fp):
            if p is None:
                raise UniverseNotClosed(f"mapping cone produced an object outside the universe: {fp}")
            self.add(p)

    def drain(self):
        """Run the cheap steps until no member is left on the worklist."""
        u, sums = self.u, self.cached(("sums", self.within_key), dict)
        while self.todo:
            px = self.todo.pop()
            x = u.unpacked[px]
            for v, rest in self.cached(("split", px), lambda: u.split(x)):
                self.add(u.packed[v])
                self.add(u.packed.get(rest, 0))  # rest () is packed only if the universe holds 0
            # shifted direct sums, which also stand in for cones of zero maps
            self.done.append(px)
            row = sums.setdefault(px, {})
            for py in self.done:
                hit = row.get(py)
                if hit is None:
                    hit = row[py] = sums.setdefault(py, {})[px] = self.pair_sums(min(px, py), max(px, py))
                for p in hit:
                    self.add(p)
            # tensor with every universe element
            for p in self.tensor_admitted(px, x):
                self.add(p)

    def pair_sums(self, px, py):
        """The shifted sums of the members px <= py that lie in the universe
        and that within admits, packed.  `drain` runs this once per cache and
        within, storing the tuple in both members' rows.

        Every sum outside the universe is offered to within, once per call;
        if within admits one, nothing is stored.  `tensor_admitted` stores
        within's verdicts on tensor products the same way.
        """
        u, out = self.u, []
        shifts = [j * u.stride for j in range(u.span + 1)]
        for cand in {px + (py << k) for k in shifts} | {(px << k) + py for k in shifts}:
            if cand in u.unpacked:
                if self.within(u.unpacked[cand]):
                    out.append(cand)
            elif cand not in self.rejected:
                self.rejected.add(cand)
                fp = u.unpack(cand)
                if self.within(fp):
                    raise UniverseNotClosed(f"direct sum produced an object outside the universe: {fp}")
        return tuple(out)

    def tensor_admitted(self, px, x):
        """The products of the member px (fingerprint x) with the universe
        that lie in it and that within admits, packed; computed once per
        cache and within.  Each product outside the universe is offered to
        within; if within admits one, nothing is stored."""
        key = ("tensor-in", self.within_key, px)
        if key not in self.cache:
            inside, outside = self.cached(("tensor", px), lambda: self.tensor_row(x))
            for fp in outside:
                if self.within(fp):
                    raise UniverseNotClosed(f"tensor product produced an object outside the universe: {fp}")
            self.cache[key] = tuple(p for p in inside if self.within(self.u.unpacked[p]))
        return self.cache[key]

    def tensor_row(self, x):
        """The distinct nonzero products of x with the universe: packed
        members, then fingerprints outside the universe."""
        row = dict.fromkeys(self.box_fps(x, v) for v in self.u.fps if v)
        row.pop((), None)
        packed = self.u.packed
        return tuple(packed[fp] for fp in row if fp in packed), tuple(fp for fp in row if fp not in packed)

    def box_fps(self, a, b):
        pa, pb = sorted((self.u.packed[a], self.u.packed[b]))
        return self.cached(("box", pa, pb), lambda: _fp_box(a, b))

    def cone_fps(self, a, b, k):
        """Fingerprints of cones over all nonzero chain maps a[k] -> b.

        None when the sweep would exceed this call's map cap; the caller
        decides whether that pair is actually needed.  A capped sweep is
        cached as its map-space dimension, so a call with a larger cap on
        the same cache still runs it.
        """
        key = ("cone", a, b, k)
        hit = self.cache.get(key)
        if isinstance(hit, frozenset):
            return hit
        p = self.ring.modulus_int
        if hit is not None and p ** hit > self.max_maps:
            return None
        space = ChainMapSpace(shift_complex(self.resolved(a), k), self.resolved(b))
        if p ** space.dim > self.max_maps:
            self.cache[key] = space.dim
            return None
        out = set()
        for coeffs in itertools.product(range(p), repeat=space.dim):
            if not any(coeffs):
                continue  # the zero map's cone is the shifted direct sum
            f = space.build(coeffs)
            out.add(_fp_normalize(homology_fingerprint(cone(f))))
        self.cache[key] = frozenset(out)
        return self.cache[key]

    def cone_pass(self):
        """Sweep cones between members, small pairs first, up to the first
        pair that admits something; False when no pair does."""
        capped = 0
        members = [self.u.unpacked[p] for p in self.found]
        pairs = sorted(
            ((x, y) for x in members for y in members),
            key=lambda t: (sum(r for fp in t for _, key, r, _ in fp if not str(key).startswith("->")), str(t)),
        )
        for x, y in pairs:
            for k in range(-(_fp_span(y) + 1), _fp_span(x) + 2):
                cands = self.cone_fps(x, y, k)
                if cands is None:
                    capped += 1
                    continue
                for cand in cands:
                    self.admit_cone(cand)
            if self.todo:
                return True
        if capped:
            raise UniverseNotClosed(f"{capped} cone sweeps exceed the map cap {self.max_maps}; closure not certified")
        return False


def thick_closure_bruteforce(generators, universe, within=None, max_maps=4096, cache=None):
    """Least subset of the universe containing the generators and closed
    under shifts, sums, summands, cones, and tensoring with the universe.

    Returns the members as elements of the given universe list.  `within`
    bounds the oracle's scope: fingerprints outside it are ignored rather
    than demanded of the universe (default: the universe's own degree span
    and fiber dimensions).  It must be a hashable, pure function of the
    fingerprint: its verdicts on the shifted sums of member pairs and on
    the tensor products of members are memoized per cache and `within`
    object, so pass the same object to every call that shares a cache; a
    new lambda on each call gets no reuse.  `cache` is a plain
    dict; pass the same one to successive calls over the same universe to
    share its fingerprints, the summand splits, the pair sums (one row per
    member, keyed by the other member of the pair), the cheap
    tensor fingerprints and the expensive cone sweeps.  The cache is tied to
    one universe by object identity: given a universe whose elements are
    not the very objects it holds, it is emptied first.
    The cheap steps run semi-naively, summing packed fingerprints (see the
    block comment above).
    """
    if not universe:
        raise BadElement("empty universe")
    ring = universe[0].ring
    if not ring.is_field or ring.modulus_int is None:
        raise UnsupportedRing("the closure sweep enumerates maps; it needs a finite field")
    st = _ClosureState(universe, ring, within, max_maps, cache)

    for g in generators:
        pos = next((k for k, u in enumerate(st.u.elements) if u is g), None)
        fp = st.u.fps[pos] if pos is not None else _fp_normalize(homology_fingerprint(g))
        if fp and fp not in st.u.index:
            raise UniverseNotClosed("generator is not a member of the universe")
        st.add(st.u.packed.get(fp, 0))  # the zero object adds nothing
    st.drain()
    while st.found < st.u.nonzero and st.cone_pass():
        st.drain()

    members = {st.u.unpacked[p] for p in st.found} | ({()} & st.u.index.keys())
    return [st.u.elements[st.u.index[fp]] for fp in sorted(members, key=str)]
