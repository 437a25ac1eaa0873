"""Points, supports, ideals, and the classification translations."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

import quivertt.linalg as linalg
import quivertt.spectrum as spectrum
from quivertt import (
    BadElement,
    FGModule,
    Integers,
    IntegersLocalized,
    MonotonicityViolation,
    PolyOverPrimeField,
    PrimeField,
    Rationals,
    UniverseNotClosed,
    UnknownVertex,
    UnsupportedRing,
    big_support_compact,
    box_tensor,
    build_quiver,
    change_ring,
    compact_support,
    complex_r,
    direct_sum_complexes,
    ensure_perfect,
    enumerate_primes,
    eval_vertex,
    homology_fingerprint,
    i_times,
    ideal_generators,
    ideal_membership,
    is_acyclic,
    koszul_complex,
    parse_ring,
    prime_ideal,
    projective_rep,
    q_support,
    q_support_all,
    q_support_subset,
    q_support_union,
    shift_complex,
    spc_dot,
    spc_enumerate,
    stalk_complex,
    thick_closure_bruteforce,
    translate_classification,
    unit_complex,
    unit_restriction,
    untranslate_classification,
    vertex_poset_map,
    xi_zero_test,
    zero_complex,
)
from quivertt.rings import sp_closed_contains, sp_points
from quivertt.samples import random_perfect_complex, random_q_support
from quivertt.spectrum import _ClosureState, _fp_box, _fp_normalize, _fp_span, _Universe

Z = Integers()
A2 = build_quiver([1, 2], ["a: 1 -> 2"])
A3 = build_quiver([1, 2, 3], ["a: 1 -> 2", "b: 2 -> 3"])


def parked_koszul(g, i, q=A2):
    return i_times(koszul_complex(Z, [g]), q, i)


# --- pointwise membership -----------------------------------------------------


def test_xi_on_parked_koszul():
    x = parked_koszul(2, 1)
    assert not xi_zero_test(x, prime_ideal(Z, 2), 1)
    assert xi_zero_test(x, prime_ideal(Z, 3), 1)
    assert xi_zero_test(x, prime_ideal(Z, Z.zero()), 1)
    for p in enumerate_primes(Z, 7):
        assert xi_zero_test(x, p, 2)


def test_support_of_unit_and_parked():
    u = unit_complex(A2, Z)
    s = compact_support(u)
    assert all(s.at(v).is_all for v in A2.vertices)
    s2 = compact_support(parked_koszul(2, 1))
    assert str(s2.at("1")) == "{(2)}" and s2.at("2").is_empty


def test_support_of_torsion_cone():
    from quivertt.complexes import ComplexMorphism, RepMorphism, cone
    from quivertt import Matrix

    u = unit_complex(A2, Z)
    rep = u.term(0)
    six = {v: Matrix.identity(Z, 1).scale(6) for v in A2.vertices}
    c = cone(ComplexMorphism(u, u, {0: RepMorphism(rep, rep, six)}))
    s = compact_support(c)
    assert str(s.at("1")) == "{(2), (3)}" and str(s.at("2")) == "{(2), (3)}"


def _torsion_mix():
    # torsion at two primes on two vertices, free homology on the third
    free3 = stalk_complex(unit_restriction(A3, Z, ("3",)))
    return direct_sum_complexes([parked_koszul(6, "2", A3), shift_complex(parked_koszul(5, "1", A3), 1), free3])


def test_vertex_support_is_computed_once_per_complex(monkeypatch):
    # the support does not depend on the prime: a whole window of xi tests
    # takes at most one homology fiber per (vertex, degree)
    x = _torsion_mix()
    calls = Counter()
    real_sweep = spectrum.homology_sweep

    def homology_sweep(c):
        for n, fibers in real_sweep(c):
            for v in fibers:
                calls[v, n] += 1
            yield n, fibers

    monkeypatch.setattr(spectrum, "homology_sweep", homology_sweep)
    win = spc_enumerate(Z, A3, 7)
    answers = [xi_zero_test(x, pt.prime, pt.vertex) for pt in win.points]
    assert calls and max(calls.values()) == 1
    support = compact_support(x)
    assert max(calls.values()) == 1
    monkeypatch.undo()

    fresh = _torsion_mix()
    assert fresh is not x
    assert answers == [xi_zero_test(fresh, pt.prime, pt.vertex) for pt in win.points]
    assert support == compact_support(_torsion_mix())
    assert not all(answers) and any(answers)


def test_compact_support_reads_each_smith_diagonal_once(monkeypatch):
    # d^k at v serves as d^n at degree k (its rank) and as d^(n-1) at degree
    # k + 1 (its torsion); one sweep over the degrees eliminates it once
    calls = Counter()
    real = linalg._diagonal

    def counted(m):
        calls[id(m)] += 1
        return real(m)

    monkeypatch.setattr(linalg, "_diagonal", counted)
    both = 0
    for ring in (Z, Rationals(), IntegersLocalized(3), PolyOverPrimeField(3)):
        for k in range(3):
            x = random_perfect_complex(A3, ring, random.Random(f"sweep:{ring}:{k}"))
            diffs = {id(m): (n, v) for n, d in x.diffs.items() for v, m in d.mats.items()}
            calls.clear()
            compact_support(x)
            read = {key: c for key, c in calls.items() if key in diffs}
            assert read and max(read.values()) == 1
            assert is_acyclic(x) == compact_support(x).is_empty
            for n, v in (diffs[key] for key in read):
                both += bool(x.terms[n].gens(v) and x.terms[n + 1].gens(v))
    assert both


def test_xi_checks_the_vertex_before_computing(monkeypatch):
    def homology_sweep(c):
        raise AssertionError("homology computed before the vertex was checked")

    monkeypatch.setattr(spectrum, "homology_sweep", homology_sweep)
    with pytest.raises(UnknownVertex):
        xi_zero_test(_torsion_mix(), prime_ideal(Z, 2), "9")


def test_support_intersects_under_box():
    x = parked_koszul(2, 1)
    y = parked_koszul(3, 1)
    assert compact_support(box_tensor(x, y)).is_empty
    sq = compact_support(box_tensor(x, x))
    assert sq == compact_support(x)


# --- big support and its localization oracle ------------------------------------


def localization_hits(x, bound):
    """Parked two-term detection: park at i, then localize; the cone on
    C_(q) -> C otimes Q is acyclic exactly when C_(q) is, so one base change
    per point decides it."""
    hits = set()
    for i in x.quiver.vertices:
        ci = eval_vertex(x, i)
        if not is_acyclic(change_ring(ci, Rationals())):
            hits.add(("0", i))
        for p in enumerate_primes(Z, bound):
            if p.is_zero_ideal:
                continue
            if not is_acyclic(change_ring(ci, IntegersLocalized(p.gen))):
                hits.add((Z.format_elem(p.gen), i))
    return hits


def window_hits(s, bound):
    hits = set()
    for i in s.quiver.vertices:
        comp = s.at(i)
        if comp.is_all:
            hits.add(("0", i))
        for p in enumerate_primes(Z, bound):
            if not p.is_zero_ideal and sp_closed_contains(comp, p):
                hits.add((Z.format_elem(p.gen), i))
    return hits


def test_big_support_trivial_cases():
    u1 = ensure_perfect(stalk_complex(unit_restriction(A2, Z, ("1",))))
    s = big_support_compact(u1)
    assert s.at("1").is_all and s.at("2").is_empty
    s2 = big_support_compact(parked_koszul(2, 1))
    assert str(s2.at("1")) == "{(2)}" and s2.at("2").is_empty


def test_big_support_matches_localization_oracle():
    d4 = build_quiver([1, 2, 3, 4], ["a: 1 -> 2", "b: 3 -> 2", "c: 4 -> 2"])
    rng = random.Random(20)
    for t in range(20):
        q = A2 if t % 2 == 0 else d4
        x = random_perfect_complex(q, Z, rng)
        s = big_support_compact(x)
        assert s == compact_support(x)
        assert window_hits(s, 7) == localization_hits(x, 7)


# --- ideal generators and membership ---------------------------------------------


def test_generators_of_full_support():
    s = q_support_all(A3, Z)
    gens = ideal_generators(s)
    assert len(gens) == 3
    for g, v in zip(gens, A3.vertices):
        sg = compact_support(g)
        assert sg.at(v).is_all
        assert all(sg.at(w).is_empty for w in A3.vertices if w != v)


def test_generators_of_single_point():
    s = q_support(A2, Z, {"1": sp_points(Z, {prime_ideal(Z, 2)})})
    gens = ideal_generators(s)
    assert len(gens) == 1
    assert compact_support(gens[0]) == s


def test_generators_roundtrip_random():
    rng = random.Random(31)
    for _ in range(20):
        s = random_q_support(A3, Z, rng)
        total = q_support(A3, Z)
        for g in ideal_generators(s):
            sg = compact_support(g)
            assert q_support_subset(sg, s)
            total = q_support_union(total, sg)
        assert total == s


def test_membership_is_support_containment():
    u = unit_complex(A2, Z)
    assert ideal_membership(u, q_support_all(A2, Z))
    s3 = q_support(A2, Z, {"1": sp_points(Z, {prime_ideal(Z, 3)})})
    assert not ideal_membership(parked_koszul(2, 1), s3)
    assert ideal_membership(parked_koszul(3, 1), s3)


def test_membership_radicality():
    rng = random.Random(12)
    for _ in range(10):
        x = random_perfect_complex(A2, Z, rng)
        s = random_q_support(A2, Z, rng)
        assert ideal_membership(x, s) == ideal_membership(box_tensor(x, x), s)


# --- the enumeration window --------------------------------------------------------


def test_window_over_field_is_discrete():
    win = spc_enumerate(PrimeField(5), A3, 10)
    assert len(win.points) == 3
    assert win.covers() == []


def test_window_over_dvr_is_disjoint_chains():
    win = spc_enumerate(IntegersLocalized(3), A2, 10)
    assert len(win.points) == 4
    covers = win.covers()
    assert len(covers) == 2
    for a, b in covers:
        assert a.vertex == b.vertex
        assert not a.prime.is_zero_ideal and b.prime.is_zero_ideal


def test_window_counts_over_integers():
    win = spc_enumerate(Z, A3, 6)
    assert len(win.points) == 12
    assert len(win.covers()) == 9


@pytest.mark.parametrize("text,bound", [("Z", 0), ("Z", 7), ("Z", 40), ("Q", 7), ("Fp(5)", 7),
                                        ("Zmod(12)", 7), ("Zloc(3)", 7), ("FpX(3)", 3), ("FpX(2)", 4)])
def test_covers_match_the_definition(text, bound):
    # a < b is a cover when nothing lies strictly between; scanned over all points
    win = spc_enumerate(parse_ring(text), A3, bound)
    pts = win.points
    want = [(a, b) for a in pts for b in pts
            if a != b and win.leq(a, b)
            and not any(c not in (a, b) and win.leq(a, c) and win.leq(c, b) for c in pts)]
    assert win.covers() == want


def test_window_dot_export():
    dot = spc_dot(spc_enumerate(PrimeField(2), A2, 0))
    assert dot.startswith("digraph spectrum {")
    assert '"(0, 1)";' in dot and '"(0, 2)";' in dot
    assert "->" not in dot.replace("rankdir", "")


def test_detecting_objects_small_window():
    win = spc_enumerate(Z, A2, 3)
    rows = win.detecting_objects()
    assert len(rows) == 4  # primes 2, 3 at two vertices
    for r_elem, v, obj in rows:
        for pt in win.points:
            in_prime = not pt.prime.is_zero_ideal and Z.divide(r_elem, pt.prime.gen) is not None
            assert win.member(obj, pt) == (pt.vertex == v and not in_prime)


# --- classification translations -----------------------------------------------------


def test_translate_all_both_modes():
    s = q_support_all(A2, Z)
    pv = translate_classification(s, "per_vertex")
    assert untranslate_classification(pv) == s
    pm = translate_classification(s, "poset_map")
    assert pm.default == frozenset(A2.vertices)
    assert pm.exceptions == ()
    assert untranslate_classification(pm) == s


def test_translate_single_point():
    s = q_support(A2, Z, {"1": sp_points(Z, {prime_ideal(Z, 2)})})
    pm = translate_classification(s, "poset_map")
    assert pm.default == frozenset()
    assert len(pm.exceptions) == 1
    p, val = pm.exceptions[0]
    assert Z.format_elem(p.gen) == "2" and val == frozenset({"1"})
    assert untranslate_classification(pm) == s


def test_translate_roundtrip_random():
    rng = random.Random(8)
    for _ in range(25):
        s = random_q_support(A3, Z, rng)
        for mode in ("per_vertex", "poset_map"):
            assert untranslate_classification(translate_classification(s, mode)) == s


def test_poset_map_monotonicity_enforced():
    with pytest.raises(MonotonicityViolation):
        vertex_poset_map(A2, Z, {"1"}, [(prime_ideal(Z, 2), frozenset({"2"}))])


# --- a tiny closure sanity run ---------------------------------------------------------


def test_closure_of_nothing_and_unit():
    f2 = PrimeField(2)
    u1 = ensure_perfect(stalk_complex(unit_restriction(A2, f2, ("1",))))
    u2 = ensure_perfect(stalk_complex(unit_restriction(A2, f2, ("2",))))
    universe = [zero_complex(A2, f2), u1, u2, direct_sum_complexes([u1, u2])]
    empty = thick_closure_bruteforce([], universe)
    assert len(empty) == 1 and empty[0].is_zero
    c1 = thick_closure_bruteforce([u1], universe)
    assert any(x is u1 for x in c1) and all(x is not u2 for x in c1)


# --- closure oracle: error paths and the shared cache ----------------------------------

F2 = PrimeField(2)
P1 = stalk_complex(projective_rep(A2, F2, 1))
U1 = stalk_complex(unit_restriction(A2, F2, ("1",)))
U2 = stalk_complex(unit_restriction(A2, F2, ("2",)))


def _sums(parts):
    return direct_sum_complexes(parts) if parts else zero_complex(A2, F2)


def _small_universe():
    # every sum of distinct P1, U1, U2 in degree 0: closed under the steps
    # that stay inside _one_copy_each
    return [_sums(list(c)) for r in range(4) for c in itertools.combinations((P1, U1, U2), r)]


def _one_copy_each(fp):
    if _fp_span(fp) > 1:
        return False
    row = {key: rank for _, key, rank, _ in fp}
    r = row.get("->a", 0)
    return r <= 1 and 0 <= row.get("1", 0) - r <= 1 and 0 <= row.get("2", 0) - r <= 1


def test_closure_direct_sum_outside_universe_raises():
    universe = [zero_complex(A2, F2), U1]
    with pytest.raises(UniverseNotClosed, match="direct sum"):
        thick_closure_bruteforce([U1], universe, within=lambda fp: True)


def _one_copy_at_vertex_1(fp):
    # (P1 + U2) box itself is P1 + 3 U2: one copy at vertex 1, so this
    # allows it, while every shifted sum of two copies is out of scope
    return _fp_span(fp) <= 1 and all(rank <= 1 for _, key, rank, _ in fp if key == "1")


def test_closure_tensor_product_outside_universe_raises():
    x = _sums([P1, U2])
    with pytest.raises(UniverseNotClosed, match="tensor product"):
        thick_closure_bruteforce([x], [zero_complex(A2, F2), x], within=_one_copy_at_vertex_1)


def test_closure_tensor_product_outside_universe_raises_on_every_call():
    # a refused call stores no verdict, so a second call on the cache refuses too
    x = _sums([P1, U2])
    universe, cache, messages = [zero_complex(A2, F2), x], {}, []
    for _ in range(2):
        with pytest.raises(UniverseNotClosed, match="tensor product") as err:
            thick_closure_bruteforce([x], universe, within=_one_copy_at_vertex_1, cache=cache)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_closure_generator_outside_universe_raises():
    with pytest.raises(UniverseNotClosed, match="generator"):
        thick_closure_bruteforce([U2], [zero_complex(A2, F2), U1])


def test_closure_cone_cap_raises():
    universe = _small_universe()
    with pytest.raises(UniverseNotClosed, match="map cap"):
        thick_closure_bruteforce([U1], universe, within=_one_copy_each, max_maps=1)


def test_closure_capped_sweep_is_retried_under_a_larger_cap():
    # a sweep skipped under a small cap must not stay skipped in the cache
    universe = _small_universe()
    cache = {}
    with pytest.raises(UniverseNotClosed, match="map cap"):
        thick_closure_bruteforce([U1], universe, within=_one_copy_each, max_maps=1, cache=cache)
    got = thick_closure_bruteforce([U1], universe, within=_one_copy_each, cache=cache)
    want = thick_closure_bruteforce([U1], universe, within=_one_copy_each)
    assert len(want) == 2
    assert [id(m) for m in got] == [id(m) for m in want]


def test_closure_needs_a_finite_field():
    with pytest.raises(UnsupportedRing):
        thick_closure_bruteforce([], [zero_complex(A2, Z)])


def test_closure_rejects_repeated_fingerprints():
    with pytest.raises(BadElement, match="same fingerprint"):
        thick_closure_bruteforce([], [zero_complex(A2, F2), U1, shift_complex(U1, 1)])


def test_closure_shared_cache_matches_fresh_cache():
    universe = _small_universe()
    calls = [[x] for x in universe] + [[U1, U2], [P1, U2], []]

    def run(gens, cache):
        got = thick_closure_bruteforce(gens, universe, within=_one_copy_each, cache=cache)
        return [next(k for k, u in enumerate(universe) if u is m) for m in got]

    fresh = [run(g, None) for g in calls]
    # universe order: 0, P1, U1, U2, then the sums of two, then of all three
    assert {frozenset(r) for r in fresh} == {frozenset(c) for c in ({0}, {0, 2}, {0, 3}, range(8))}
    for order in (calls, calls[::-1]):
        shared = {}
        got = [run(g, shared) for g in order]
        assert got == (fresh if order is calls else fresh[::-1])


def test_closure_cache_follows_the_universe_it_is_given():
    first = _small_universe()
    second = first[::-1]  # the same objects in another order
    third = _small_universe()  # fresh copies
    cache = {}
    for universe in (first, second, third, first):
        for gens in ([U1], [U2], [P1]):
            got = thick_closure_bruteforce(gens, universe, within=_one_copy_each, cache=cache)
            want = thick_closure_bruteforce(gens, universe, within=_one_copy_each)
            assert [id(m) for m in got] == [id(m) for m in want]
            assert all(any(m is u for u in universe) for m in got)


def test_closure_reads_universe_generator_fingerprints_from_the_cache(monkeypatch):
    universe = _small_universe()
    cache = {}
    want = [thick_closure_bruteforce([u], universe, within=_one_copy_each, cache=cache) for u in universe]
    calls = []
    real = spectrum.homology_fingerprint

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(spectrum, "homology_fingerprint", counted)
    got = [thick_closure_bruteforce([u], universe, within=_one_copy_each, cache=cache) for u in universe]
    assert got == want
    assert calls == []
    # a generator that is not a universe element is still fingerprinted
    thick_closure_bruteforce([shift_complex(U1, 1)], universe, within=_one_copy_each, cache=cache)
    assert len(calls) == 1


def _shifted_sum(a, b, k, sign=1):
    # normalized a + sign * b[k] on plain fingerprints; None if a rank goes negative
    tally = {}
    for n, key, r, _ in a:
        tally[n, key] = r
    for n, key, r, _ in b:
        tally[n - k, key] = tally.get((n - k, key), 0) + sign * r
    if min(tally.values()) < 0:
        return None
    return _fp_normalize(tuple((n, key, r, ()) for (n, key), r in tally.items() if r))


def test_closure_offers_every_shifted_sum_to_within():
    universe = _small_universe()
    offered = set()

    def within(fp):
        offered.add(fp)
        return _one_copy_each(fp)

    assert len(thick_closure_bruteforce([P1], universe, within=within)) == len(universe)
    fps = {_fp_normalize(homology_fingerprint(x)) for x in universe}
    members = [fp for fp in fps if fp]
    sums = {_shifted_sum(a, b, k) for a in members for b in members for k in (-1, 0, 1)}
    assert sums - fps <= offered


def test_closure_sum_verdicts_do_not_leak_between_within_objects():
    # 2 U1 is refused by _one_copy_each; a later within that admits it must
    # still see it, though both calls share one cache
    universe = [zero_complex(A2, F2), U1]
    cache = {}
    assert len(thick_closure_bruteforce([U1], universe, within=_one_copy_each, cache=cache)) == 2
    with pytest.raises(UniverseNotClosed, match="direct sum"):
        thick_closure_bruteforce([U1], universe, within=lambda fp: True, cache=cache)


def test_closure_tensor_verdicts_do_not_leak_between_within_objects():
    # _one_copy_each refuses (P1 + U2) box itself; a later within that
    # admits it must still see it, though both calls share one cache
    x = _sums([P1, U2])
    universe, cache = [zero_complex(A2, F2), x], {}
    assert len(thick_closure_bruteforce([x], universe, within=_one_copy_each, cache=cache)) == 2
    with pytest.raises(UniverseNotClosed, match="tensor product"):
        thick_closure_bruteforce([x], universe, within=_one_copy_at_vertex_1, cache=cache)


def test_closure_offers_each_sum_outside_the_universe_once_per_cache():
    # every call below reaches the whole universe by the cheap steps, so no
    # cone is offered; each sum outside the universe is offered once, and
    # sums and tensor products outside it are offered by the first call only
    universe = _small_universe()
    fps = [_fp_normalize(homology_fingerprint(x)) for x in universe]
    products = {_fp_box(a, b) for a in fps for b in fps}
    offered = Counter()
    by_call = []

    def within(fp):
        offered[fp] += 1
        by_call[-1].add(fp)
        return _one_copy_each(fp)

    p1u1, p1u1u2 = universe[4], universe[7]
    cache = {}
    for gens in ([p1u1], [P1], [p1u1u2], [P1, U2], [p1u1]):
        by_call.append(set())
        assert len(thick_closure_bruteforce(gens, universe, within=within, cache=cache)) == len(universe)
    sums = {fp: n for fp, n in offered.items() if fp not in fps and fp not in products}
    assert sums and max(sums.values()) == 1
    first = by_call[0] - set(fps)
    assert first & products and all(not (call - set(fps)) for call in by_call[1:])


def _closure_calls():
    universe = _small_universe()
    return universe, [[x] for x in universe] + [[U1, U2], [P1, U2], []]


def _recording_within(log):
    def within(fp):
        log.append(repr(fp))
        return _one_copy_each(fp)

    return within


def test_closure_sums_each_member_pair_once_per_cache(monkeypatch):
    universe, calls = _closure_calls()
    want = [thick_closure_bruteforce(g, universe, within=_one_copy_each) for g in calls]
    runs = Counter()
    real = _ClosureState.pair_sums

    def counted(self, px, py):
        runs[px, py] += 1
        return real(self, px, py)

    monkeypatch.setattr(_ClosureState, "pair_sums", counted)
    cache = {}
    assert [thick_closure_bruteforce(g, universe, within=_one_copy_each, cache=cache) for g in calls] == want
    assert runs and max(runs.values()) == 1 and all(px <= py for px, py in runs)
    first = sum(runs.values())
    assert [thick_closure_bruteforce(g, universe, within=_one_copy_each, cache=cache) for g in calls] == want
    assert sum(runs.values()) == first  # a repeated call reads every pair from its rows

    # a second within object on the same cache sums the pairs again and gets its own verdicts
    log = []
    within = _recording_within(log)
    assert [thick_closure_bruteforce(g, universe, within=within, cache=cache) for g in calls] == want
    assert sum(runs.values()) == 2 * first and log
    with pytest.raises(UniverseNotClosed, match="direct sum"):
        thick_closure_bruteforce([U1], universe, within=lambda fp: True, cache=cache)


def test_closure_offers_within_the_same_sequence():
    # the order and multiplicity of within's calls on one shared cache, pinned
    # as recorded before member-pair sums moved into per-member rows
    universe, calls = _closure_calls()
    log, cache = [], {}
    within = _recording_within(log)
    for gens in calls + calls[::-1]:
        thick_closure_bruteforce(gens, universe, within=within, cache=cache)
    assert len(log) == 122
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert digest == "96e90fb5d2b5819ca41873525fe61cf92e488279a85d879bfea319d7a55a15ed"


def test_packed_fingerprints_match_tuple_arithmetic():
    wide = [_sums([P1, shift_complex(U2, 1)]), _sums([U1, U1, shift_complex(P1, -1)])]
    u = _Universe(_small_universe() + wide, F2)
    assert u.span == 2

    members = [fp for fp in u.fps if fp]
    for a, b in itertools.product(members, repeat=2):
        for k in range(-u.span, u.span + 1):
            if k <= 0:
                p = u.packed[a] + (u.packed[b] << (-k * u.stride))
            else:
                p = (u.packed[a] << (k * u.stride)) + u.packed[b]
            assert u.unpack(p) == _shifted_sum(a, b, k)
    for x in members:
        want = []
        for v in members:
            for offset in range(_fp_span(x) - _fp_span(v) + 1):
                rest = _shifted_sum(x, v, -offset, sign=-1)
                if rest is not None and (not rest or rest in u.index):
                    want.append((v, rest))
        assert u.split(x) == want


def test_box_fingerprint_is_read_off_the_factors():
    # Kunneth over a field: the closed form matches the built product
    def built(x, y):
        return _fp_normalize(homology_fingerprint(box_tensor(x, y)))

    universe = _small_universe()
    for x, y in itertools.product(universe, repeat=2):
        assert _fp_box(homology_fingerprint(x), homology_fingerprint(y)) == built(x, y)
    f3, rng = PrimeField(3), random.Random(6)
    arrow_rows = 0
    for _ in range(20):
        x, y = (random_perfect_complex(A3, f3, rng, pieces=1) for _ in range(2))
        want = built(x, y)
        assert _fp_box(homology_fingerprint(x), homology_fingerprint(y)) == want
        arrow_rows += any(str(key).startswith("->") for _, key, _, _ in want)
    assert arrow_rows  # arrow ranks are exercised, not only fiber dimensions


def _nested_box(a, b):
    # the closed form as a plain double loop over both fingerprints
    tally = {}
    for n, key, r, _ in a:
        for m, other, s, _ in b:
            if other == key:
                tally[n + m, key] = tally.get((n + m, key), 0) + r * s
    return _fp_normalize(tuple((n, key, t, ()) for (n, key), t in tally.items()))


def test_box_fingerprint_matches_the_double_loop():
    wide = [_sums([P1, shift_complex(U2, 1)]), _sums([U1, U1, shift_complex(P1, -1)])]
    members = [_fp_normalize(homology_fingerprint(x)) for x in _small_universe() + wide]
    for a, b in itertools.combinations_with_replacement(members, 2):
        assert _fp_box(a, b) == _nested_box(a, b) == _fp_box(b, a)
