"""Filtrations of supports, aisle membership, and filtration systems.

A compactly generated tensor-aisle is pinned down by a weakly decreasing
Z-indexed chain of per-vertex supports: an object belongs iff the support
of its degree-n homology sits inside the chain's level n, for every n.
Over a field each level degenerates to a vertex subset and the chain is a
chain of those (`serre_translation`).

Filtration systems cut the quiver into disjoint vertex sets whose unit
restrictions filter the unit; when each piece's subquiver is Dynkin, the
aisles over the whole quiver decompose into aisles over the pieces, which
`c_aisle_decompose` performs levelwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    ComplexRQ,
    _reindex,
    homology_sweep,
)
from .errors import BadElement, IndexOutOfRange, NotAField
from .quivers import Quiver, full_subquiver, is_dynkin, vertex_set
from .rings import (
    Ring,
    check_same_ring,
    module_support,
    sp_all,
    sp_closed_subset,
    sp_empty,
)
from .spectrum import (
    QSupport,
    q_support,
    q_support_all,
    q_support_subset,
    q_support_union,
)


class _StepChain:
    """A chain constant outside the change points in `entries`."""

    def at(self, n: int):
        """The value of the last entry at or below n, tail_low when there is none."""
        val = self.tail_low
        for m, s in self.entries:
            if m <= n:
                val = s
            else:
                break
        return val


@dataclass(frozen=True)
class Filtration(_StepChain):
    """Weakly decreasing chain of QSupports, constant outside the entries.

    entries hold the change points: (n, value) with strictly increasing n
    and each value strictly below its predecessor.  at(n) is the value of
    the last entry at or below n, tail_low when there is none; tail_high
    duplicates the final value so both ends are explicit.
    """

    quiver: Quiver
    ring: Ring
    entries: tuple
    tail_low: QSupport
    tail_high: QSupport

    def __str__(self):
        rows = [f"n<={self.entries[0][0] - 1 if self.entries else '*'}: {self.tail_low}"]
        for n, s in self.entries:
            rows.append(f"n>={n}: {s}")
        return "\n".join(rows)


def filtration(quiver: Quiver, ring: Ring, entries, tail_low: QSupport, tail_high=None) -> Filtration:
    """Canonicalize and validate: strictly increasing indices, repeated
    values merged away, weak decrease enforced."""
    check_same_ring(ring, tail_low.ring)
    canon = []
    prev = tail_low
    last_n = None
    for n, s in sorted(entries, key=lambda t: t[0]):
        if last_n == n:
            raise BadElement(f"two filtration values at level {n}")
        last_n = n
        check_same_ring(ring, s.ring)
        if s.quiver != quiver:
            raise BadElement("filtration level over the wrong quiver")
        if not q_support_subset(s, prev):
            raise BadElement(f"filtration increases at level {n}")
        if s != prev:
            canon.append((n, s))
            prev = s
    if tail_high is not None and tail_high != prev:
        raise BadElement("tail_high does not match the last level")
    return Filtration(quiver, ring, tuple(canon), tail_low, prev)


def standard_filtration(quiver: Quiver, ring: Ring) -> Filtration:
    """Everything for n <= 0, nothing for n >= 1: the standard aisle."""
    return filtration(quiver, ring, [(1, q_support(quiver, ring))], q_support_all(quiver, ring))


def aisle_membership(x: ComplexRQ, f: Filtration) -> bool:
    """Whether every homology support sits inside its level of the chain."""
    if x.quiver != f.quiver:
        raise BadElement("object and filtration live over different quivers")
    check_same_ring(x.ring, f.ring)
    for n, fibers in homology_sweep(x):
        level = f.at(n)
        for v, fib in fibers.items():
            if not sp_closed_subset(module_support(fib), level.at(v)):
                return False
    return True


def filtration_from_objects(xs) -> Filtration:
    """The smallest filtration whose aisle contains every given object.

    Level n collects the homology supports in all degrees >= n, since the
    aisle absorbs upward shifts, which lower degrees.
    """
    if not xs:
        raise BadElement("need at least one object")
    q, r = xs[0].quiver, xs[0].ring
    empty = q_support(q, r)
    by_degree = {}
    for x in xs:
        if x.quiver != q:
            raise BadElement("objects over different quivers")
        check_same_ring(r, x.ring)
        for n, fibers in homology_sweep(x):
            s = QSupport(q, r, tuple(module_support(fib) for fib in fibers.values()))
            if not s.is_empty:
                by_degree[n] = q_support_union(by_degree.get(n, empty), s)
    degrees = sorted(by_degree)
    if not degrees:
        return filtration(q, r, [], empty)
    # suffix unions; level n holds everything appearing at degree n or above,
    # so the value drops right after each populated degree
    suffix = {}
    acc = empty
    for d in reversed(degrees):
        acc = q_support_union(acc, by_degree[d])
        suffix[d] = acc
    entries = []
    for pos, d in enumerate(degrees):
        nxt = suffix[degrees[pos + 1]] if pos + 1 < len(degrees) else empty
        entries.append((d + 1, nxt))
    return filtration(q, r, entries, suffix[degrees[0]])


# ---------------------------------------------------------------------------
# field case: levels are vertex subsets


@dataclass(frozen=True)
class SerreChain(_StepChain):
    """Weakly decreasing chain of vertex subsets, constant outside entries."""

    quiver: Quiver
    entries: tuple  # (n, frozenset) change points
    tail_low: frozenset
    tail_high: frozenset


def serre_chain(quiver: Quiver, entries, tail_low) -> SerreChain:
    tail_low = vertex_set(quiver, tail_low)
    canon, prev, last_n = [], tail_low, None
    for n, s in sorted(entries, key=lambda t: t[0]):
        if last_n == n:
            raise BadElement(f"two chain values at level {n}")
        last_n = n
        s = vertex_set(quiver, s)
        if not s <= prev:
            raise BadElement(f"chain increases at level {n}")
        if s != prev:
            canon.append((n, s))
            prev = s
    return SerreChain(quiver, tuple(canon), tail_low, prev)


def serre_translation(f: Filtration) -> SerreChain:
    """Over a field each level is determined by which vertices carry it all."""
    if not f.ring.is_field:
        raise NotAField("the vertex-chain form exists over fields only")

    def verts(s: QSupport):
        return frozenset(v for v in f.quiver.vertices if s.at(v).is_all)

    return serre_chain(
        f.quiver,
        [(n, verts(s)) for n, s in f.entries],
        verts(f.tail_low),
    )


def serre_untranslate(chain: SerreChain, ring: Ring) -> Filtration:
    if not ring.is_field:
        raise NotAField("the vertex-chain form exists over fields only")

    def support(vs):
        return q_support(chain.quiver, ring, {v: sp_all(ring) for v in vs})

    return filtration(
        chain.quiver,
        ring,
        [(n, support(s)) for n, s in chain.entries],
        support(chain.tail_low),
    )


# ---------------------------------------------------------------------------
# filtration systems


@dataclass(frozen=True)
class FiltrationSystem:
    """Disjoint vertex sets S_k; part k is the unit restricted to S_k."""

    quiver: Quiver
    parts: tuple  # frozensets of vertex names


def filtration_system(quiver: Quiver, parts) -> FiltrationSystem:
    return FiltrationSystem(quiver, tuple(vertex_set(quiver, p) for p in parts))


def _successor_closed(q: Quiver, s: frozenset) -> bool:
    return all(t in s for _, a, t in q.arrows if a in s)


def check_filtration_system(c: FiltrationSystem, q: Quiver) -> dict:
    """Report whether the parts filter the unit, and whether each part's
    subquiver is Dynkin.

    The certificate for the filtering is an ordering of the parts whose
    partial unions are closed under arrow targets: each union is then a
    subrepresentation of the unit and the successive quotients are exactly
    the unit restrictions to the parts.  Greedy search is complete here
    because closed sets are closed under union.
    """
    report = {"is_system": False, "is_dynkin_support": False, "witness": None}
    for i, a in enumerate(c.parts):
        for b in c.parts[i + 1:]:
            if a & b:
                report["witness"] = f"parts overlap on {sorted(a & b)}"
                return report
    covered = frozenset().union(*c.parts) if c.parts else frozenset()
    missing = set(q.vertices) - covered
    if missing:
        report["witness"] = f"vertices not covered: {sorted(missing)}"
        return report
    remaining = list(range(len(c.parts)))
    acc = frozenset()
    order = []
    while remaining:
        pick = None
        for k in remaining:
            if _successor_closed(q, acc | c.parts[k]):
                pick = k
                break
        if pick is None:
            report["witness"] = f"no part extends {sorted(acc)} to a target-closed set"
            return report
        acc |= c.parts[pick]
        order.append(pick)
        remaining.remove(pick)
    report["is_system"] = True
    report["witness"] = order
    report["is_dynkin_support"] = all(is_dynkin(full_subquiver(q, p)) for p in c.parts)
    return report


def _check_part(c: FiltrationSystem, k: int) -> frozenset:
    if not 0 <= k < len(c.parts):
        raise IndexOutOfRange(f"part index {k} outside 0..{len(c.parts) - 1}")
    return c.parts[k]


def component_restrict(x: ComplexRQ, k: int, c: FiltrationSystem) -> ComplexRQ:
    """Forget everything outside part k's subquiver."""
    sub = full_subquiver(x.quiver, _check_part(c, k))
    return _reindex(x, sub, {v: v for v in sub.vertices})


def component_times(m: ComplexRQ, k: int, c: FiltrationSystem) -> ComplexRQ:
    """Embed a complex over part k's subquiver, zero outside the part."""
    sub = full_subquiver(c.quiver, _check_part(c, k))
    if m.quiver != sub:
        raise BadElement("complex is not over the part's subquiver")
    return _reindex(m, c.quiver, {v: v for v in sub.vertices})


def c_aisle_decompose(f: Filtration, c: FiltrationSystem) -> list:
    """Cut a filtration along the parts: one filtration per subquiver."""
    out = []
    for part in c.parts:
        sub = full_subquiver(f.quiver, part)

        def cut(s: QSupport):
            return QSupport(sub, f.ring, tuple(s.at(v) for v in sub.vertices))

        out.append(
            filtration(sub, f.ring, [(n, cut(s)) for n, s in f.entries], cut(f.tail_low))
        )
    return out


def c_aisle_reassemble(fs: list, c: FiltrationSystem, ring: Ring) -> Filtration:
    """Disjoint union over the parts; vertices outside every part get nothing."""
    q = c.quiver
    if len(fs) != len(c.parts):
        raise BadElement("one filtration per part, in part order")
    part_of = {}
    for k, part in enumerate(c.parts):
        for v in part:
            part_of[v] = k
    levels = sorted({n for f in fs for n, _ in f.entries})

    def glue(n):
        comps = []
        for v in q.vertices:
            k = part_of.get(v)
            comps.append(fs[k].at(n).at(v) if k is not None else sp_empty(ring))
        return QSupport(q, ring, tuple(comps))

    low = min(levels) - 1 if levels else 0
    return filtration(q, ring, [(n, glue(n)) for n in levels], glue(low))
