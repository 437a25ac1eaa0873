"""Acceptance battery: one test per shipped guarantee, all exact.

Each test is a self-contained scenario with its own seeds; nothing here
trusts another test's state.  Counts and witnesses are pinned, not sampled:
a failure means the library broke a promise, not that a tolerance drifted.
"""

import itertools
import random
import time

from quivertt import (
    box_tensor,
    build_quiver,
    check_filtration_system,
    compact_support,
    direct_sum_complexes,
    ensure_perfect,
    filtration_system,
    homology_fingerprint,
    ideal_generators,
    ideal_membership,
    internal_hom,
    is_acyclic,
    is_rigid,
    koszul_complex,
    parse_ring,
    projective_rep,
    q_support,
    q_support_subset,
    q_support_union,
    spc_enumerate,
    sp_all,
    stalk_complex,
    translate_classification,
    unit_complex,
    unit_restriction,
    untranslate_classification,
    zero_complex,
)
from quivertt.checks import (
    check_adjunction_dim,
    check_aisle_generators,
    check_aisle_standard,
    check_kan_formulas,
    check_kunneth_points,
    check_unit_filtration_systems,
    check_vertex_embeddings,
)
from quivertt.samples import random_q_support
from quivertt.spectrum import _fp_normalize, _fp_span, thick_closure_bruteforce

Z = parse_ring("Z")
F2 = parse_ring("Fp(2)")
A2 = build_quiver([1, 2], ["a: 1 -> 2"])
A3 = build_quiver([1, 2, 3], ["a: 1 -> 2", "b: 2 -> 3"])
D4 = build_quiver([1, 2, 3, 4], ["a: 1 -> 2", "b: 3 -> 2", "c: 4 -> 2"])
# six-vertex Euclidean tree: fork into 3, fork out of 4
D5T = build_quiver(
    [1, 2, 3, 4, 5, 6],
    ["a: 1 -> 3", "b: 2 -> 3", "c: 3 -> 4", "d: 4 -> 5", "e: 4 -> 6"],
)


def _fp(x):
    return homology_fingerprint(x)


def test_criterion_01_spectrum_window_is_a_reversed_product_poset():
    win = spc_enumerate(Z, A3, 6)
    pts = win.points
    assert len(pts) == 12

    def key(pt):
        return int(Z.format_elem(pt.prime.gen)), pt.vertex

    assert {key(p) for p in pts} == {(g, v) for g in (0, 2, 3, 5) for v in ("1", "2", "3")}

    # reference order on the window of the integer spectrum, by divisibility
    def subseteq(qg, pg):
        return qg == 0 if pg == 0 else qg % pg == 0

    for a, b in itertools.product(pts, repeat=2):
        ga, va = key(a)
        gb, vb = key(b)
        # anti-isomorphism: the point order reverses ideal containment,
        # and never relates distinct vertices
        assert win.leq(a, b) == (va == vb and subseteq(gb, ga))

    covers = win.covers()
    assert len(covers) == 9
    assert all(key(lo)[0] != 0 and key(hi)[0] == 0 and lo.vertex == hi.vertex for lo, hi in covers)


def test_criterion_02_closure_oracle_finds_exactly_four_ideals():
    p1 = projective_rep(A2, F2, 1)
    u1 = unit_restriction(A2, F2, ("1",))
    u2 = unit_restriction(A2, F2, ("2",))
    slots = [(n, rep, off) for n, rep in (("P1", p1), ("U1", u1), ("U2", u2)) for off in (0, 1)]
    universe, seen = [zero_complex(A2, F2)], {()}
    for rr in range(1, len(slots) + 1):
        for combo in itertools.combinations(slots, rr):
            if min(off for _, _, off in combo) != 0:
                continue
            x = direct_sum_complexes([stalk_complex(rep, off) for _, rep, off in combo])
            fp = _fp_normalize(homology_fingerprint(x))
            if fp in seen:
                continue
            seen.add(fp)
            universe.append(x)
    assert len(universe) == 57

    # sums of shifted stalks of the three indecomposables, spread at most 2:
    # exactly what a closure step can produce from this universe
    def within(fp):
        if _fp_span(fp) > 2:
            return False
        by_deg = {}
        for n, vkey, rank, _ in fp:
            by_deg.setdefault(n, {})[vkey] = rank
        for row in by_deg.values():
            r = row.get("->a", 0)
            if not (0 <= r <= 1 and 0 <= row.get("1", 0) - r <= 1 and 0 <= row.get("2", 0) - r <= 1):
                return False
        return True

    index_of = {id(x): k for k, x in enumerate(universe)}
    cache = {}

    def closure(gens):
        got = thick_closure_bruteforce(gens, universe, within=within, cache=cache)
        return frozenset(index_of[id(m)] for m in got)

    closures = {closure([x]) for x in universe}
    reps = [next(iter(c)) for c in closures]
    for i, j in itertools.combinations(reps, 2):
        closures.add(closure([universe[i], universe[j]]))
    closures.add(closure([]))
    assert len(closures) == 4  # 2^(number of vertices)

    # and they are exactly the support ideals of the four vertex subsets
    support_classes = set()
    for ss in ({}, {"1"}, {"2"}, {"1", "2"}):
        s = q_support(A2, F2, {v: sp_all(F2) for v in ss})
        support_classes.add(
            frozenset(k for k, x in enumerate(universe) if ideal_membership(x, s))
        )
    assert closures == support_classes


def test_criterion_03_source_vertex_unit_is_not_rigid():
    for ring in (F2, Z):
        u1 = stalk_complex(unit_restriction(A2, ring, ("1",)), 0)
        u = unit_complex(A2, ring)
        assert not is_rigid(u1), ring
        assert is_rigid(u), ring
        r1 = ensure_perfect(u1)
        assert is_acyclic(internal_hom(r1, ensure_perfect(u))), ring
        assert _fp(internal_hom(r1, r1)) == _fp(u1), ring


def test_criterion_04_koszul_pairs_multiply_like_their_ideals():
    primes = (2, 3, 5, 7)
    for a, b in itertools.product(primes, repeat=2):
        prod = box_tensor(koszul_complex(Z, (a,)), koszul_complex(Z, (b,)))
        pair = koszul_complex(Z, (a, b))
        assert _fp(prod) == _fp(pair), (a, b)
        assert is_acyclic(prod) == (a != b), (a, b)


def test_criterion_05_classification_roundtrips_on_random_supports():
    for k in range(100):
        rng = random.Random(f"supports:{k}")
        s = random_q_support(D4, Z, rng)
        total = q_support(D4, Z)
        for g in ideal_generators(s):
            sg = compact_support(g)
            assert q_support_subset(sg, s), k
            total = q_support_union(total, sg)
        assert total == s, k
        for mode in ("per_vertex", "poset_map"):
            assert untranslate_classification(translate_classification(s, mode)) == s, (k, mode)


def test_criterion_06_embedding_and_extension_identities():
    # criterion 06 has a 10 s budget; it runs in about 1 s
    start = time.perf_counter()
    for k in range(50):
        ok, detail = check_vertex_embeddings(random.Random(f"embed:{k}"))
        assert ok, (k, detail)
        ok, detail = check_kan_formulas(random.Random(f"kan:{k}"))
        assert ok, (k, detail)
    assert time.perf_counter() - start < 10


def test_criterion_07_tensor_hom_adjunction_dimensions():
    for k in range(50):
        ok, detail = check_adjunction_dim(random.Random(f"adjoint:{k}"))
        assert ok, (k, detail)


def test_criterion_08_aisle_membership_matches_homology_vanishing():
    for k in range(50):
        ok, detail = check_aisle_standard(random.Random(f"aisle:{k}"))
        assert ok, (k, detail)
    for k in range(25):  # two generators per case
        ok, detail = check_aisle_generators(random.Random(f"aislegen:{k}"))
        assert ok, (k, detail)


def test_criterion_09_filtration_system_verdicts():
    for k in range(20):
        ok, detail = check_unit_filtration_systems(random.Random(f"filtsys:{k}"))
        assert ok, (k, detail)
    singles = filtration_system(D5T, [frozenset((v,)) for v in D5T.vertices])
    rep = check_filtration_system(singles, D5T)
    assert rep["is_system"] and rep["is_dynkin_support"]
    # five-vertex part plus the leftover sink: still a system, still Dynkin
    split = filtration_system(D5T, [frozenset("12345"), frozenset("6")])
    rep = check_filtration_system(split, D5T)
    assert rep["is_system"] and rep["is_dynkin_support"]
    # the whole quiver as one part: a system whose support is not Dynkin
    whole = filtration_system(D5T, [frozenset(D5T.vertices)])
    rep = check_filtration_system(whole, D5T)
    assert rep["is_system"] and not rep["is_dynkin_support"]


def test_criterion_10_pointwise_kunneth_nonvanishing():
    for k in range(100):
        ok, detail = check_kunneth_points(random.Random(f"kunneth:{k}"))
        assert ok, (k, detail)
