"""Complexes of representations: homology, tensor, Kan extensions, resolutions."""

import random
import time
from pathlib import Path

import pytest

import quivertt.complexes as complexes
from quivertt import (
    ChainMapSpace,
    ComplexRQ,
    FGModule,
    Integers,
    IntegersLocalized,
    Matrix,
    NotDerivable,
    PolyOverPrimeField,
    PrimeField,
    Rationals,
    ShapeMismatch,
    box_tensor,
    build_quiver,
    change_ring,
    complex_r,
    cone,
    direct_sum_complexes,
    ensure_perfect,
    eval_vertex,
    homology,
    homology_fibers,
    homology_fingerprint,
    homology_range,
    i_times,
    is_acyclic,
    kan_extend,
    koszul_complex,
    load_workspace,
    parse_ring,
    point_quiver,
    projective_rep,
    projective_resolution,
    rank,
    rep_free,
    shift_complex,
    solve,
    stalk_complex,
    unit_complex,
    unit_restriction,
    zero_complex,
)
from quivertt.complexes import ComplexMorphism, Representation, RepMorphism, rep_mor_identity
from quivertt.samples import random_acyclic_quiver, random_free_rep, random_perfect_complex, random_point_complex

Z = Integers()
A2 = build_quiver([1, 2], ["a: 1 -> 2"])
A3 = build_quiver([1, 2, 3], ["a: 1 -> 2", "b: 2 -> 3"])
WS = Path(__file__).resolve().parent.parent / "workspaces"


def fibers_of(h):
    return {v: str(h.fibers[v]) for v in h.quiver.vertices}


def scale_map(x, c):
    """Multiplication by the integer c on every term of x."""
    ring = x.ring
    parts = {}
    for n in x.degrees:
        rep = x.term(n)
        mats = {v: Matrix.identity(ring, rep.gens(v)).scale(ring.from_int(c)) for v in x.quiver.vertices}
        parts[n] = RepMorphism(rep, rep, mats)
    return ComplexMorphism(x, x, parts)


# --- Koszul complexes ---------------------------------------------------------


def test_koszul_single_prime():
    k2 = koszul_complex(Z, [2])
    assert k2.degrees == [-1, 0]
    assert k2.perfect
    h = homology(k2, 0)
    assert str(h.fibers["pt"]) == "R/(2)"
    assert homology(k2, -1).fibers["pt"].is_zero_module


def test_koszul_coprime_pair_acyclic():
    assert is_acyclic(koszul_complex(Z, [2, 3]))


def test_koszul_over_poly_ring():
    r = PolyOverPrimeField(2)
    kx = koszul_complex(r, [r.parse_elem("x")])
    assert str(homology(kx, 0).fibers["pt"]) == "R/(x)"


def test_koszul_squares_to_zero_three_generators():
    k = koszul_complex(Z, [2, 3, 5])
    assert k.degrees == [-3, -2, -1, 0]
    # validation already ran in koszul_complex; run it again explicitly
    k.validate()


# --- structural operations ----------------------------------------------------


def test_shift_moves_homology():
    k2 = koszul_complex(Z, [4])
    s = shift_complex(k2, 1)
    assert homology_fingerprint(s) == tuple(
        (n - 1, key, rank, tors) for n, key, rank, tors in homology_fingerprint(k2)
    )
    assert homology_fingerprint(shift_complex(s, -1)) == homology_fingerprint(k2)


def test_direct_sum_adds_fibers():
    u = unit_complex(A2, Z)
    two = direct_sum_complexes([u, u])
    assert two.term(0).gens("1") == 2
    assert fibers_of(homology(two, 0)) == {"1": "R^2", "2": "R^2"}


@pytest.mark.parametrize("text", ["Z", "Q", "Fp(5)", "Zmod(12)", "Zloc(3)", "FpX(3)"])
def test_direct_sum_of_mixed_fibers_matches_elimination(text, monkeypatch):
    # a vertex where no summand has a relation gets FGModule.free; one with
    # a relation (6 is R/(6) over Z, a unit or zero on some rings) eliminates
    ring = parse_ring(text)
    six = Matrix.from_rows(ring, [[6]])
    free = rep_free(A2, ring, {"1": 2, "2": 1}, {"a": Matrix.from_rows(ring, [[1, -1]])})
    torsion_1 = Representation(A2, ring, {"1": FGModule(ring, six), "2": FGModule.free(ring, 1)},
                               {"a": Matrix.zeros(ring, 1, 1)})
    torsion_2 = Representation(A2, ring, {"1": FGModule.free(ring, 1), "2": FGModule(ring, six)},
                               {"a": Matrix.from_rows(ring, [[1]])})
    calls = []
    orig = complexes.FGModule.__init__

    def counted(self, *args):
        calls.append(args)
        orig(self, *args)

    # one elimination per vertex where some summand's fiber has a relation
    for reps, eliminations in (([free, torsion_1, free], 1), ([torsion_2, free], 1),
                               ([free, free], 0), ([torsion_1, torsion_2], 2)):
        monkeypatch.setattr(complexes.FGModule, "__init__", counted)
        calls.clear()
        got = complexes.rep_direct_sum(reps)
        monkeypatch.undo()
        assert len(calls) == eliminations
        for v in A2.vertices:
            pres = Matrix.direct_sum(ring, [rep.fibers[v].presentation for rep in reps])
            want = FGModule(ring, pres)
            assert got.fibers[v].presentation == pres
            assert (got.fibers[v].divisors, got.fibers[v].iso_key()) == (want.divisors, want.iso_key())
        assert got.arrows["a"] == Matrix.direct_sum(ring, [rep.arrows["a"] for rep in reps])
        got.validate()
    if text == "Z":
        assert str(complexes.rep_direct_sum([free, torsion_1, free]).fibers["1"]) == "R^4 + R/(6)"


def test_builders_read_missing_degrees_as_zero_blocks():
    # x has terms in degrees 0 and 2 and no differential, y = R -2-> R parked
    # at vertex 1, and f: x -> x is the identity in degree 0 only
    x = direct_sum_complexes([unit_complex(A2, Z), shift_complex(stalk_complex(projective_rep(A2, Z, 1)), -2)])
    y = i_times(koszul_complex(Z, [2]), A2, 1)
    f = ComplexMorphism(x, x, {0: rep_mor_identity(x.terms[0])})
    built = box_tensor(x, y), cone(f), direct_sum_complexes([x, y])
    for c in built:
        c.validate()
    tensor, c, total = built
    # P(1) is R at vertex 1, so both summands of x carry H(y) = R/(2) there
    assert homology_fingerprint(tensor) == ((0, "1", 0, ("2",)), (2, "1", 0, ("2",)))
    # the cone kills degree 0 and leaves P(1) in degrees 1 and 2
    assert homology_fingerprint(c) == ((1, "1", 1, ()), (1, "2", 1, ()), (2, "1", 1, ()), (2, "2", 1, ()))
    # x + y: H(y) = R/(2) joins the unit's R at vertex 1 in degree 0
    assert homology_fingerprint(total) == ((0, "1", 1, ("2",)), (0, "2", 1, ()), (2, "1", 1, ()), (2, "2", 1, ()))


def test_readers_take_a_missing_degree_as_the_shared_zero_block():
    # terms in degrees 0 and 2 only.  Over Z: P(1) in degree 0 and R/(2) at
    # vertex 2 in degree 2.  Over F2: in degree 0 vertex 1 holds R^2 / (1, 1),
    # mapped onto vertex 2's R by [1 1], and in degree 2 sits the simple S(1)
    f2 = PrimeField(2)
    z_two = Representation(A2, Z, {"1": FGModule.free(Z, 0), "2": FGModule(Z, Matrix.from_rows(Z, [[2]]))},
                           {"a": Matrix.zeros(Z, 1, 0)})
    x_z = ComplexRQ(A2, Z, {0: projective_rep(A2, Z, 1), 2: z_two}, {})
    rel = Representation(A2, f2, {"1": FGModule(f2, Matrix.from_rows(f2, [[1], [1]])), "2": FGModule.free(f2, 1)},
                         {"a": Matrix.from_rows(f2, [[1, 1]])})
    x_f2 = ComplexRQ(A2, f2, {0: rel, 2: unit_restriction(A2, f2, ("1",))}, {})
    for r, x in ((Z, x_z), (f2, x_f2)):
        for v in A2.vertices:
            assert x.diff(1, v) is Matrix.zeros(r, x.term(2).gens(v), 0)
            assert x.diff(-1, v) is Matrix.zeros(r, x.term(0).gens(v), 0)

    # the cycle-matrix path, with no d^n and no d^(n-1) at a fiber with relations
    (k, h), = complexes._homology_parts(x_z, 2, ["2"]).values()
    assert k == Matrix.identity(Z, 1) and str(h) == "R/(2)"
    (k, h), = complexes._homology_parts(x_f2, 0, ["1"]).values()
    assert k == Matrix.identity(f2, 2) and (h.free_rank, h.divisors.divisors) == (1, ())
    assert {v: str(h) for v, h in homology_fibers(x_z, 2).items()} == {"1": "0", "2": "R/(2)"}
    assert {v: h.free_rank for v, h in homology_fibers(x_f2, 0).items()} == {"1": 1, "2": 1}
    assert homology(x_f2, 0).arrows["a"] == Matrix.from_rows(f2, [[1, 1]])

    want_z = ((0, "1", 1, ()), (0, "2", 1, ()), (2, "2", 0, ("2",)))
    want_f2 = ((0, "->a", 1, ()), (0, "1", 1, ()), (0, "2", 1, ()), (2, "1", 1, ()))
    assert homology_fingerprint(x_z) == want_z
    assert homology_fingerprint(x_f2) == want_f2

    # over Z, R/(2) is freed to R -2-> R in degrees 1 and 2; both standard
    # resolutions add P(2) in degree -1, the F2 one also P(2) in degree 1
    # under S(1), and neither has a d^0
    for r, x, want, top, d1 in ((Z, x_z, want_z, {"1": 0, "2": 1}, 2), (f2, x_f2, want_f2, {"1": 1, "2": 1}, 1)):
        res = projective_resolution(x)
        ranks = {m: {v: res.terms[m].gens(v) for v in A2.vertices} for m in res.degrees}
        assert ranks == {-1: {"1": 0, "2": 1}, 0: {"1": 1, "2": 2}, 1: {"1": 0, "2": 1}, 2: top}
        assert res.diff(-1, "2") == Matrix.from_rows(r, [[r.neg(r.one())], [r.one()]])
        assert 0 not in res.diffs and res.diff(0, "2") is Matrix.zeros(r, 1, 2)
        assert res.diff(1, "2") == Matrix.from_rows(r, [[d1]])
        assert res.perfect and homology_fingerprint(res) == want

    # chain maps from the free gap complex P(1) + P(2)[-2] to its shifts: only
    # the shift by -2 has a map, P(2) -> P(1) in degree 2; the shifts by 1 and
    # -1 fill every degree in between, so each differential equation reads
    # two missing blocks
    p1 = projective_rep(A2, Z, 1)
    y = ComplexRQ(A2, Z, {0: p1, 2: projective_rep(A2, Z, 2)}, {})
    dims = {k: ChainMapSpace(y, shift_complex(y, k)).dim for k in (-2, -1, 0, 1, 2)}
    assert dims == {-2: 1, -1: 0, 0: 2, 1: 0, 2: 0}
    # P(1) in degree 0 has no d^0, c = P(1) -id-> P(1) has one: f^0 has to
    # vanish on c, and is any endomorphism of P(1) on c[1], which ends in degree 0
    c = ComplexRQ(A2, Z, {0: p1, 1: p1}, {0: rep_mor_identity(p1)})
    assert [ChainMapSpace(stalk_complex(p1), t).dim for t in (c, shift_complex(c, 1))] == [0, 1]
    f = ChainMapSpace(y, shift_complex(y, -2)).build((1,))
    # the map is +-1 at vertex 2 in degree 2; y has no degree 4, so part 4 is missing
    assert f.part(2, "2") in (Matrix.from_rows(Z, [[1]]), Matrix.from_rows(Z, [[-1]]))
    assert 4 not in f.parts and f.part(4, "2") is Matrix.zeros(Z, 1, 0)
    f = ComplexMorphism(f.source, f.target, f.parts)
    # cone: P(1) in degree -1, P(2) -> P(1) injective in degrees 1, 2, and P(2) in degree 4
    assert homology_fingerprint(cone(f)) == ((-1, "1", 1, ()), (-1, "2", 1, ()), (2, "1", 1, ()), (4, "2", 1, ()))

    # a missing part is the zero block: the identity in degree 0 only is a
    # chain map of x, but not a map into c = P(1) -id-> P(1); nor is the
    # identity in degree 1 only a map from c, where part 0 is the missing one
    ComplexMorphism(x_z, x_z, {0: rep_mor_identity(p1)})
    with pytest.raises(ShapeMismatch, match="degree 0, vertex 1"):
        ComplexMorphism(x_z, c, {0: rep_mor_identity(p1)})
    with pytest.raises(ShapeMismatch, match="degree 0, vertex 1"):
        ComplexMorphism(c, stalk_complex(p1, 1), {1: rep_mor_identity(p1)})


def test_zero_complex_is_zero():
    z = zero_complex(A2, Z)
    assert z.is_zero and is_acyclic(z)


def test_invalid_differential_rejected():
    urep = unit_complex(A2, Z).term(0)
    ident = {v: Matrix.identity(Z, 1) for v in A2.vertices}
    with pytest.raises(ShapeMismatch):
        ComplexRQ(
            A2,
            Z,
            {0: urep, 1: urep, 2: urep},
            {0: RepMorphism(urep, urep, ident), 1: RepMorphism(urep, urep, ident)},
        )


def test_morphism_naturality_checked():
    urep = unit_complex(A2, Z).term(0)
    with pytest.raises(ShapeMismatch):
        RepMorphism(urep, urep, {"1": Matrix.identity(Z, 1), "2": Matrix.identity(Z, 1).scale(2)})


# --- relations checks ---------------------------------------------------------
# Each validator asks whether a defect lies in the target's relations.  Over Z
# with an R/(2) or R/(6) fiber, each pair below has a nonzero defect: inside
# the relations the input is accepted, outside it is refused with the message.

PT = point_quiver()
R1 = FGModule.free(Z, 1)


def cyclic(n):
    """R/(n), one generator."""
    return FGModule(Z, Matrix.from_rows(Z, [[n]]))


def point_rep(fib):
    return Representation(PT, Z, {"pt": fib}, {})


def mat(e):
    return Matrix.from_rows(Z, [[e]])


def test_arrow_relations_check():
    # R/(2) -> R/(6): the relation 2 goes to 6 under 3, in (6); to 2 under 1
    Representation(A2, Z, {"1": cyclic(2), "2": cyclic(6)}, {"a": mat(3)})
    with pytest.raises(ShapeMismatch, match="^arrow a not well defined on relations$"):
        Representation(A2, Z, {"1": cyclic(2), "2": cyclic(6)}, {"a": mat(1)})


def test_component_relations_check():
    a, b = point_rep(cyclic(2)), point_rep(cyclic(6))
    RepMorphism(a, b, {"pt": mat(3)})
    with pytest.raises(ShapeMismatch, match="^component at pt not well defined on relations$"):
        RepMorphism(a, b, {"pt": mat(1)})


def test_naturality_relations_check():
    # defect f2 a - b f1 into R/(2): 3 - 1 = 2 lies in (2), 2 - 1 = 1 does not
    a = Representation(A2, Z, {"1": R1, "2": R1}, {"a": mat(1)})
    b = Representation(A2, Z, {"1": R1, "2": cyclic(2)}, {"a": mat(1)})
    RepMorphism(a, b, {"1": mat(1), "2": mat(3)})
    with pytest.raises(ShapeMismatch, match="^naturality fails at arrow a$"):
        RepMorphism(a, b, {"1": mat(1), "2": mat(2)})


def test_square_zero_relations_check():
    # R -> R -> R/(2): d^2 = 4 lies in (2), d^2 = 1 does not
    fibers = {0: R1, 1: R1, 2: cyclic(2)}
    complex_r(Z, fibers, {0: mat(1), 1: mat(4)})
    with pytest.raises(ShapeMismatch, match="^d\\^2 != 0 at degree 0, vertex pt$"):
        complex_r(Z, fibers, {0: mat(1), 1: mat(1)})


def test_chain_map_relations_check():
    # x = (R -1-> R), y = (R -1-> R/(2)); at degree 0 the defect d f0 - f1 d
    # is 1 - 3 = -2, in (2), or 1 - 2 = -1, not in it
    x = complex_r(Z, {0: R1, 1: R1}, {0: mat(1)})
    y = complex_r(Z, {0: R1, 1: cyclic(2)}, {0: mat(1)})

    def parts(f1):
        return {0: RepMorphism(x.terms[0], y.terms[0], {"pt": mat(1)}),
                1: RepMorphism(x.terms[1], y.terms[1], {"pt": mat(f1)})}

    ComplexMorphism(x, y, parts(3))
    with pytest.raises(ShapeMismatch, match="^morphism does not commute with d at degree 0, vertex pt$"):
        ComplexMorphism(x, y, parts(2))


def test_morphism_validation_visits_only_occupied_degrees():
    # the commutation square at degree n is 0 = 0 unless a term sits in degree
    # n or n + 1, so a span of 10^9 empty degrees is not walked
    s = complex_r(Z, {0: R1}, {})
    two = complex_r(Z, {0: R1, 1: R1}, {0: mat(2)})
    x = direct_sum_complexes([s, shift_complex(two, -10**9)])
    t0 = time.perf_counter()
    ComplexMorphism(x, x, {n: rep_mor_identity(x.terms[n]) for n in x.degrees})
    assert time.perf_counter() - t0 < 2.0
    # zero in degree 10^9 + 1 only: d f - f d = 2 at degree 10^9
    parts = {n: rep_mor_identity(x.terms[n]) for n in (0, 10**9)}
    with pytest.raises(ShapeMismatch, match="^morphism does not commute with d at degree 1000000000, vertex pt$"):
        ComplexMorphism(x, x, parts)
    assert time.perf_counter() - t0 < 4.0


# --- cones and homology -------------------------------------------------------


def test_cone_of_multiplication():
    u = unit_complex(A2, Z)
    c = cone(scale_map(u, 6))
    assert fibers_of(homology(c, 0)) == {"1": "R/(6)", "2": "R/(6)"}
    # the induced arrow map stays the identity on the quotient
    assert homology(c, 0).arrows["a"].entries == ((1,),)


def test_cone_vertex_evaluation():
    c = cone(scale_map(unit_complex(A2, Z), 2))
    for v in (1, 2):
        cv = eval_vertex(c, v)
        assert cv.degrees == [-1, 0]
        assert str(homology(cv, 0).fibers["pt"]) == "R/(2)"


def test_homology_of_unit():
    u = unit_complex(A2, Z)
    assert fibers_of(homology(u, 0)) == {"1": "R", "2": "R"}
    assert all(homology(u, n).fibers[v].is_zero_module for n in (-1, 1) for v in A2.vertices)


def test_homology_range_brackets_support():
    x = shift_complex(koszul_complex(Z, [2]), 3)
    ns = homology_range(x)
    assert all(n in ns for n in (-4, -3))


def _mixed_diagonal_complex(ring, diag, c):
    """Point complex R^4 -> R^5 -> R whose d^-1 has Smith diagonal `diag`
    behind unimodular transforms, and d^0 is c times a row of U^-1 that
    kills im d^-1.  With r = rank d^-1: H^-1 = R^(4 - r), H^0 = R^(4 - r)
    plus torsion, H^1 = R/(c)."""
    def ints(rows):
        return Matrix.from_rows(ring, [[ring.from_int(e) for e in row] for row in rows])

    u = ints([[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [1, -1, 1, 0, 0], [0, 3, 1, 1, 0], [1, 0, -2, 1, 1]])
    v = ints([[1, 1, 0, 2], [0, 1, -1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    es = [ring.parse_elem(t) for t in diag]
    d = Matrix.from_rows(ring, [[es[i] if i == j else 0 for j in range(4)] for i in range(5)])
    row = solve(u, Matrix.identity(ring, 5)).entries[4]
    d0 = Matrix.from_rows(ring, [[ring.mul(ring.parse_elem(c), e) for e in row]])
    free = {n: FGModule.free(ring, k) for n, k in ((-1, 4), (0, 5), (1, 1))}
    return complex_r(ring, free, {-1: u.mul(d).mul(v), 0: d0})


def _relation_samples():
    """Complexes the diagonal path must leave alone, as (label, complex)."""
    out = []
    zmod = parse_ring("Zmod(12)")
    for k in range(6):
        # Z/12 is not regular: free point complexes parked at every vertex
        rng = random.Random(f"fibers:Zmod(12):{k}")
        q = random_acyclic_quiver(rng, 3)
        out.append(("Zmod(12)", direct_sum_complexes([i_times(random_point_complex(zmod, rng), q, v)
                                                      for v in q.vertices])))
    out.append(("T6", load_workspace(WS / "z_a3.yaml").objects["T6"]))
    # a free fiber onto Z/2: the cycles are 2Z, not ker d = 0, so H^0 = Z
    onto = {0: FGModule.free(Z, 1), 1: FGModule(Z, Matrix.from_rows(Z, [[2]]))}
    out.append(("onto Z/2", complex_r(Z, onto, {0: Matrix.from_rows(Z, [[1]])})))
    return out


def _one_path_samples():
    """Seeded complexes over all six rings, and hand-built ones, as (label, complex)."""
    out = []
    for text in ("Z", "Q", "Fp(5)", "Zloc(3)", "FpX(3)"):
        ring = parse_ring(text)
        for k in range(6):
            rng = random.Random(f"fibers:{text}:{k}")
            out.append((text, random_perfect_complex(random_acyclic_quiver(rng, 3), ring, rng)))
    # Smith diagonals of d^-1 mixing units, non-units and zeros
    for text, diag, c in (("Z", ("1", "2", "6", "0"), "3"), ("Zloc(3)", ("2", "3", "18", "0"), "6"),
                          ("FpX(3)", ("1", "x", "x^2+x", "0"), "x+1"), ("Q", ("1", "2", "0", "0"), "3")):
        out.append((text, _mixed_diagonal_complex(parse_ring(text), diag, c)))
    # zero differentials in and out: none at all on the point, all-zero
    # matrices at vertex 2 of A2; and a stalk, missing degrees n - 1 and n + 1
    free = {n: FGModule.free(Z, k) for n, k in ((-1, 2), (0, 3), (1, 1))}
    flat = complex_r(Z, free, {-1: Matrix.zeros(Z, 3, 2), 0: Matrix.zeros(Z, 1, 3)})
    mixed = _mixed_diagonal_complex(Z, ("1", "2", "6", "0"), "3")
    out.append(("Z", flat))
    out.append(("Z", direct_sum_complexes([i_times(mixed, A2, 1), i_times(flat, A2, 2)])))
    out.append(("Z", stalk_complex(rep_free(A2, Z, {"1": 2, "2": 1}, {"a": Matrix.from_rows(Z, [[1, 3]])}))))
    return out + _relation_samples()


def test_homology_fibers_are_the_fibers_of_homology(monkeypatch):
    # a live vertex takes the cycle-matrix path iff `_homology_parts` sees it;
    # the others read the Smith diagonals
    seen = []
    real = complexes._homology_parts

    def recorded(x, n, vertices):
        seen.extend(vertices)
        return real(x, n, vertices)

    monkeypatch.setattr(complexes, "_homology_parts", recorded)
    took = {}  # (label, path) -> [nonzero fibers, fibers with torsion]
    for label, x in _one_path_samples():
        ns = homology_range(x)
        outside = [ns.start - 1, ns.stop] if ns else [0]
        for n in list(ns) + outside:
            seen.clear()
            fibers = homology_fibers(x, n)
            cycle_path = set(seen)
            h = homology(x, n)
            assert list(fibers) == list(x.quiver.vertices), label
            assert ({v: m.iso_key() for v, m in fibers.items()}
                    == {v: h.fibers[v].iso_key() for v in x.quiver.vertices}), (label, n)
            for v, m in fibers.items():
                if n in x.terms and x.terms[n].gens(v):
                    count = took.setdefault((label, v in cycle_path), [0, 0])
                    count[0] += not m.is_zero_module
                    count[1] += bool(m.divisors.divisors)
    for label in ("Z", "Q", "Fp(5)", "Zloc(3)", "FpX(3)"):
        assert (label, True) not in took and took[(label, False)][0], label
    for label in ("Z", "Zloc(3)", "FpX(3)"):
        assert took[(label, False)][1], label
    for label in ("Zmod(12)", "T6", "onto Z/2"):
        assert (label, False) not in took and took[(label, True)][0], label
    assert took[("T6", True)][1]


def test_homology_fibers_of_a_mixed_smith_diagonal():
    x = _mixed_diagonal_complex(Z, ("1", "2", "6", "0"), "3")
    assert [str(homology_fibers(x, n)["pt"]) for n in (-1, 0, 1)] == ["R", "R + R/(2) + R/(6)", "R/(3)"]


def test_homology_fibers_are_built_from_their_known_divisors():
    # the diagonal path builds H^n from the divisors it read, with no second
    # elimination: eliminating its presentation again must give the same
    # divisors, and the module must be the H^n that `homology` finds
    rings = ("Z", "Q", "Fp(5)", "Zloc(3)", "FpX(3)")
    samples = [(label, x) for label, x in _one_path_samples() if label in rings]
    for text, gens in (("Z", ["2", "4"]), ("Z", ["6"]), ("Q", ["2", "3"]), ("Fp(5)", ["2"]),
                       ("Zloc(3)", ["3", "9"]), ("FpX(3)", ["x", "x^2+x"])):
        ring = parse_ring(text)
        samples.append((text, koszul_complex(ring, [ring.parse_elem(g) for g in gens])))
    chains = set()
    for label, x in samples:
        r = x.ring
        for n in x.degrees:
            h = homology(x, n)
            for v, fib in homology_fibers(x, n).items():
                ds, f = fib.divisors.divisors, fib.free_rank
                elim = FGModule(r, fib.presentation)
                assert fib.presentation == Matrix.from_entries(r, len(ds) + f, len(ds),
                                                               {(i, i): d for i, d in enumerate(ds)})
                assert fib.presentation == elim.presentation and fib.divisors == elim.divisors, (label, n, v)
                assert fib.iso_key() == elim.iso_key() == h.fibers[v].iso_key(), (label, n, v)
                if len(set(ds)) > 1:
                    chains.add(label)
    assert chains == {"Z", "Zloc(3)", "FpX(3)"}


def test_homology_fibers_keep_the_invalid_complex_check(monkeypatch):
    # a trusted free complex with d^0 d^-1 = [1] != 0, on the diagonal path
    def refuse(x, n, vertices):
        raise AssertionError("free fibers took the cycle-matrix path")

    monkeypatch.setattr(complexes, "_homology_parts", refuse)
    pt = point_quiver()
    one = Matrix.from_rows(Z, [[1]])
    terms = {n: complexes._trusted(Representation, pt, Z, {"pt": FGModule.free(Z, 1)}, {}) for n in (-1, 0, 1)}
    x = complexes._complex(pt, Z, terms, {-1: {"pt": one}, 0: {"pt": one}})
    with pytest.raises(ShapeMismatch, match="boundaries escaped the cycle module"):
        homology_fibers(x, 0)


def test_homology_fibers_eliminate_each_cycle_matrix_once(monkeypatch):
    # literally free fibers over a domain read two Smith diagonals: no kernel
    # and no solve.  Fibers with relations, and Z/n, eliminate one cycle
    # matrix per live vertex: one kernel, and no `solve` against it
    free = [random_perfect_complex(A3, ring, random.Random(f"once:{ring}:{k}"))
            for ring in (Z, IntegersLocalized(3), PolyOverPrimeField(3)) for k in range(4)]
    relations = _relation_samples()
    calls = []
    real = complexes.kernel_basis

    def counted(m):
        calls.append(m)
        return real(m)

    def refuse(*args):
        raise AssertionError("homology eliminated a cycle matrix it did not need")

    monkeypatch.setattr(complexes, "solve", refuse)
    with monkeypatch.context() as m:
        m.setattr(complexes, "kernel_basis", refuse)
        m.setattr(complexes, "solve_kernel", refuse)
        for x in free:
            for n in homology_range(x):
                homology_fibers(x, n)
    monkeypatch.setattr(complexes, "kernel_basis", counted)
    live_total = 0
    for _, x in relations:
        for n in homology_range(x):
            calls.clear()
            homology_fibers(x, n)
            live = [v for v in x.quiver.vertices if n in x.terms and x.terms[n].gens(v)]
            assert len(calls) == len(live)
            live_total += len(live)
    assert live_total


def _fingerprint_from_homology(x):
    """The fingerprint read off `homology` in every degree: its fibers, and
    over a field the ranks of its arrow maps modulo the target relations."""
    out = []
    for n in homology_range(x):
        h = homology(x, n)
        for v in x.quiver.vertices:
            fib = h.fibers[v]
            if not fib.is_zero_module:
                f = x.ring.format_elem
                out.append((n, v, fib.free_rank, tuple(f(d) for d in fib.divisors.divisors)))
        if x.ring.is_field:
            for name, _, t in x.quiver.arrows:
                a = h.arrows[name]
                pres = h.fibers[t].presentation
                arrow_rank = rank(a.hstack(pres)) - rank(pres)
                if arrow_rank:
                    out.append((n, "->" + name, arrow_rank, ()))
    return tuple(sorted(out, key=lambda t: (t[0], str(t[1]))))


def _with_killed_generator(x, degree, rng):
    """x with one more generator at every vertex in one degree, killed by a
    relation.  The arrows and the differential into that degree hit it with
    random coefficients, so the complex is isomorphic to x, but no fiber in
    that degree is literally free."""
    r, q = x.ring, x.quiver
    z, one = r.zero(), r.one()
    elems = [r.from_int(k) for k in range(-2, 3)]

    def ghost_row(m):
        return Matrix.from_rows(r, m.entries + (tuple(rng.choice(elems) for _ in range(m.cols)),))

    def ghost_col(m, e):
        return Matrix.from_rows(r, tuple(row + (e if i == m.rows - 1 else z,) for i, row in enumerate(m.entries)))

    terms = dict(x.terms)
    rep = terms[degree]
    fibers = {v: FGModule(r, Matrix.from_rows(r, ((z,),) * rep.gens(v) + ((one,),))) for v in q.vertices}
    arrows = {name: ghost_col(ghost_row(m), one) for name, m in rep.arrows.items()}
    terms[degree] = Representation(q, r, fibers, arrows)
    diffs = {}
    for n, d in x.diffs.items():
        mats = d.mats
        if n == degree - 1:
            mats = {v: ghost_row(m) for v, m in mats.items()}
        elif n == degree:
            mats = {v: Matrix.from_entries(r, m.rows, m.cols + 1, {(i, j): e for i, j, e in m.nonzeros()})
                    for v, m in mats.items()}
        diffs[n] = RepMorphism(terms[n], terms[n + 1], mats)
    return ComplexRQ(q, r, terms, diffs)


def test_fingerprint_arrow_ranks_match_the_homology_fingerprint(monkeypatch):
    # all six rings; over a field a complex with relations is minimalized
    # once, and every degree then takes the rank formula: no `homology` call
    samples = [x for _, x in _one_path_samples()]
    killed = []
    for text in ("Q", "Fp(5)", "Fp(2)", "Zmod(5)"):
        ring = parse_ring(text)
        for k in range(4):
            rng = random.Random(f"fingerprint:{text}:{k}")
            x = random_perfect_complex(random_acyclic_quiver(rng, 3), ring, rng)
            killed.append((x, _with_killed_generator(x, rng.choice(x.degrees), rng)))
    samples += [y for _, y in killed]
    assert {str(x.ring) for x in samples} >= {"Z", "Q", "Fp(5)", "Zmod(12)", "Zloc(3)", "FpX(3)", "Zmod(5)"}
    want = [_fingerprint_from_homology(x) for x in samples]
    calls = []
    minimalized = []
    real = complexes._minimalize_fibers

    def counted(x):
        minimalized.append(id(x))
        return real(x)

    parts = []  # (complex, degree) of each cycle-matrix elimination
    real_parts = complexes._homology_parts

    def counted_parts(x, n, vertices):
        parts.append((id(x), n))
        return real_parts(x, n, vertices)

    monkeypatch.setattr(complexes, "homology", lambda x, n: calls.append(n))
    monkeypatch.setattr(complexes, "_minimalize_fibers", counted)
    monkeypatch.setattr(complexes, "_homology_parts", counted_parts)
    for x, fp in zip(samples, want):
        assert homology_fingerprint(x) == fp
    assert calls == []
    assert minimalized == [id(y) for _, y in killed]
    assert len(parts) == len(set(parts))
    assert any(name.startswith("->") for fp in want for _, name, _, _ in fp)
    for x, y in killed:
        assert homology_fingerprint(y) == homology_fingerprint(x)


def test_homology_keeps_cycle_generators_at_vertices_without_generators():
    # at vertex 2, degree 0 has no generators but the next fiber, Z/6
    # presented by [6 0], has a zero relation, so the cycle matrix there is
    # 0 x 1: `homology` builds arrow maps on it, `homology_fibers` skips it
    r = Z
    x0 = Representation(A2, r, {"1": FGModule.free(r, 1), "2": FGModule.free(r, 0)},
                        {"a": Matrix.zeros(r, 0, 1)})
    x1 = Representation(A2, r, {"1": FGModule.free(r, 0), "2": FGModule(r, Matrix.from_rows(r, [[6, 0]]))},
                        {"a": Matrix.zeros(r, 1, 0)})
    x = ComplexRQ(A2, r, {0: x0, 1: x1}, {})
    h = homology(x, 0)
    assert (h.arrows["a"].rows, h.arrows["a"].cols) == (1, 1)
    assert h.fibers["2"].gens == 1 and h.fibers["2"].is_zero_module
    fibers = homology_fibers(x, 0)
    assert fibers["2"].gens == 0 and str(fibers["1"]) == "R"
    assert str(homology_fibers(x, 1)["2"]) == "R/(6)"


# --- vertex functors ----------------------------------------------------------


def test_eval_vertex_of_unit_and_projective():
    u = unit_complex(A2, Z)
    assert fibers_of(homology(eval_vertex(u, 1), 0)) == {"pt": "R"}
    p1 = stalk_complex(projective_rep(A2, Z, 1))
    assert eval_vertex(p1, 2).term(0).gens("pt") == 1


def test_kan_left_gives_projective():
    m = complex_r(Z, {0: FGModule.free(Z, 1)}, {})
    ext = kan_extend(m, A2, 1, "left")
    p1 = stalk_complex(projective_rep(A2, Z, 1))
    assert homology_fingerprint(ext) == homology_fingerprint(p1)
    assert ext.term(0).arrows["a"].entries == ((1,),)


def test_kan_left_at_sink():
    m = complex_r(Z, {0: FGModule.free(Z, 1)}, {})
    ext = kan_extend(m, A2, 2, "left")
    assert [ext.term(0).gens(v) for v in A2.vertices] == [0, 1]


def test_kan_right_empty_product():
    m = complex_r(Z, {0: FGModule.free(Z, 1)}, {})
    ext = kan_extend(m, A2, 1, "right")
    assert [ext.term(0).gens(v) for v in A2.vertices] == [1, 0]


def test_parking_and_restriction():
    k2 = koszul_complex(Z, [2])
    parked = i_times(k2, A2, 1)
    assert homology_fingerprint(eval_vertex(parked, 1)) == homology_fingerprint(k2)
    assert is_acyclic(eval_vertex(parked, 2))
    u1 = i_times(complex_r(Z, {0: FGModule.free(Z, 1)}, {}), A2, 1)
    assert fibers_of(homology(u1, 0)) == {"1": "R", "2": "0"}


# --- box tensor ---------------------------------------------------------------


def test_box_unit_law():
    u = unit_complex(A2, Z)
    x = cone(scale_map(u, 6))
    assert homology_fingerprint(box_tensor(u, x)) == homology_fingerprint(x)
    assert homology_fingerprint(box_tensor(x, u)) == homology_fingerprint(x)


def test_box_disjoint_vertex_units():
    f2 = PrimeField(2)
    u1 = stalk_complex(unit_restriction(A2, f2, ("1",)))
    u2 = stalk_complex(unit_restriction(A2, f2, ("2",)))
    assert is_acyclic(box_tensor(ensure_perfect(u1), ensure_perfect(u2)))


def test_box_parked_koszul_tor():
    # Z/2 x Z/2 contributes a Tor term one degree down
    k = i_times(koszul_complex(Z, [2]), A2, 1)
    sq = box_tensor(k, k)
    assert fibers_of(homology(sq, 0)) == {"1": "R/(2)", "2": "0"}
    assert fibers_of(homology(sq, -1)) == {"1": "R/(2)", "2": "0"}


def test_box_needs_a_usable_side():
    tors = Matrix.from_rows(Z, [[2]])
    m = complex_r(Z, {0: FGModule(Z, tors)}, {})
    x = i_times(m, A2, 1)
    with pytest.raises(NotDerivable):
        box_tensor(x, x)
    ok = box_tensor(ensure_perfect(x), ensure_perfect(x))
    assert not is_acyclic(ok)


def test_box_koszul_signs_square():
    # totalization signs: box_tensor does not validate its output, so d^2 = 0
    # on the 2x2 grid is checked here
    a = koszul_complex(Z, [2])
    b = koszul_complex(Z, [3])
    prod = box_tensor(a, b)
    prod.validate()


# --- resolutions and perfection ------------------------------------------------


def test_resolution_of_projective_stalk():
    f2 = PrimeField(2)
    u2 = stalk_complex(unit_restriction(A2, f2, ("2",)))
    assert u2.perfect  # the sink simple is the projective P(2)
    r = projective_resolution(u2)
    assert r.perfect
    assert homology_fingerprint(r) == homology_fingerprint(u2)


def test_resolution_of_source_simple():
    f2 = PrimeField(2)
    u1 = stalk_complex(unit_restriction(A2, f2, ("1",)))
    assert not u1.perfect
    r = projective_resolution(u1)
    assert r.perfect and len(r.degrees) == 2
    assert homology_fingerprint(r) == homology_fingerprint(u1)


def test_resolution_of_torsion_fibers():
    # Z/4 at both vertices, the arrow the identity
    z4 = FGModule(Z, Matrix.from_rows(Z, [[4]]))
    x = stalk_complex(Representation(A2, Z, {"1": z4, "2": z4}, {"a": Matrix.identity(Z, 1)}))
    assert not x.perfect
    r = ensure_perfect(x)
    assert r.perfect
    assert homology_fingerprint(r) == homology_fingerprint(x)


def test_ensure_perfect_random_battery():
    rng = random.Random(17)
    for _ in range(6):
        x = random_perfect_complex(A3, Z, rng)
        assert x.perfect
        assert homology_fingerprint(ensure_perfect(x)) == homology_fingerprint(x)


RESOLVING_RINGS = ("Z", "Q", "Fp(2)", "Fp(5)", "Zloc(3)", "FpX(3)", "Zmod(6)")


def _reference_resolution(x):
    """The standard resolution assembled block by block: P(i) x R^g from
    `projective_rep` arrows kron identities, each term's arrows and each
    block of the differential by `Matrix.direct_sum`, phi's P(s) part from
    `proj_precompose`, and each differential by `Matrix.blocks`.
    ({m: (ranks, arrows)}, {m: {v: differential}}) for the nonzero terms."""
    q, r = x.quiver, x.ring
    x = complexes._free_fiber_replacement(x)
    vs = q.vertices
    projs = {v: projective_rep(q, r, v) for v in vs}

    def ident(n):
        return Matrix.identity(r, n)

    def b0(n):  # (path start, multiplicity) of sum_i P(i) x X^n_i
        return [(i, x.term(n).gens(i)) for i in vs]

    def b1(n):  # ... of sum_a P(t(a)) x X^n_(s(a))
        return [(t, x.term(n).gens(s)) for _, s, t in q.arrows]

    def rank(blocks, v):
        return sum(projs[start].gens(v) * g for start, g in blocks)

    def id_kron(blocks, mats, v):  # blockwise P(start) x f at v
        return Matrix.direct_sum(r, [ident(projs[start].gens(v)).kron(f) for (start, _), f in zip(blocks, mats)])

    terms, diffs = {}, {}
    for m in sorted(set(x.degrees) | {n - 1 for n in x.degrees}):
        blocks = b0(m) + b1(m + 1)
        if any(rank(blocks, v) for v in vs):
            arrows = {name: Matrix.direct_sum(r, [projs[start].arrows[name].kron(ident(g)) for start, g in blocks])
                      for name, _, _ in q.arrows}
            terms[m] = ({v: rank(blocks, v) for v in vs}, arrows)
    for m in terms:
        if m + 1 not in terms:
            continue
        d_top, d_bot, nxt = x.diffs.get(m), x.diffs.get(m + 1), x.terms.get(m + 1)
        diffs[m] = {}
        for v in vs:
            top = bot = phi = None
            if d_top is not None:
                top = id_kron(b0(m), [d_top.mats[i] for i in vs], v)
            if d_bot is not None:
                bot = id_kron(b1(m + 2), [d_bot.mats[s] for _, s, _ in q.arrows], v).neg()
            if nxt is not None:
                grid = [[None] * len(q.arrows) for _ in vs]
                for k, (name, s, t) in enumerate(q.arrows):
                    grid[vs.index(t)][k] = ident(projs[t].gens(v)).kron(nxt.arrows[name])
                    pre = complexes.proj_precompose(q, r, name).mats[v]
                    grid[vs.index(s)][k] = pre.kron(ident(nxt.gens(s))).neg()
                phi = Matrix.blocks(r, grid, [projs[i].gens(v) * nxt.gens(i) for i in vs],
                                    [projs[t].gens(v) * nxt.gens(s) for _, s, t in q.arrows])
            diffs[m][v] = Matrix.blocks(r, [[top, phi], [None, bot]],
                                        [rank(b0(m + 1), v), rank(b1(m + 2), v)],
                                        [rank(b0(m), v), rank(b1(m + 1), v)])
    return terms, diffs


def _resolution_inputs(text):
    """Free stalks, multi-degree perfect sums with differentials, and (off
    Z/n) complexes with relations in their fibers, over one ring."""
    ring = parse_ring(text)
    rng = random.Random(f"resolution:{text}")
    out = []
    for _ in range(3):
        q = random_acyclic_quiver(rng, 4)
        out.append(stalk_complex(random_free_rep(q, ring, rng)))
        out.append(random_perfect_complex(q, ring, rng, pieces=3))
    out.append(shift_complex(unit_complex(A3, ring), 1))
    # R -> R^2 copied over the two paths 1 -> 3 of a triangle: non-square
    # differentials at vertices with several paths from one start
    tri = build_quiver([1, 2, 3], ["a: 1 -> 2", "b: 2 -> 3", "c: 1 -> 3"])
    line = complex_r(ring, {-1: FGModule.free(ring, 1), 0: FGModule.free(ring, 2)},
                     {-1: Matrix.from_rows(ring, [[1], [2]])})
    out.append(kan_extend(line, tri, 1, "left"))
    if text.startswith("Zmod"):
        return out
    c = ring.parse_elem("x" if text.startswith("FpX") else "2")
    tors = FGModule(ring, Matrix.from_rows(ring, [[c]]))
    free = FGModule.free(ring, 1)
    # a torsion fiber under a free one, and a two-term complex onto it
    rep = Representation(A3, ring, {"1": free, "2": tors, "3": tors},
                         {"a": Matrix.identity(ring, 1), "b": Matrix.identity(ring, 1)})
    out.append(stalk_complex(rep))
    const = rep_free(A3, ring, {"1": 1, "2": 1, "3": 1}, {"a": Matrix.identity(ring, 1), "b": Matrix.identity(ring, 1)})
    d = RepMorphism(const, rep, {v: Matrix.identity(ring, 1) for v in A3.vertices})
    out.append(ComplexRQ(A3, ring, {-1: const, 0: rep}, {-1: d}))
    if text == "Z":
        out.append(load_workspace(WS / "z_a3.yaml").objects["T6"])
    return out


@pytest.mark.parametrize("text", RESOLVING_RINGS)
def test_one_pass_resolution_matches_the_block_assembly(text):
    for x in _resolution_inputs(text):
        res = projective_resolution(x)
        terms, diffs = _reference_resolution(x)
        assert sorted(res.terms) == sorted(terms)
        for m, (ranks, arrows) in terms.items():
            rep = res.terms[m]
            assert all(rep.fibers[v].is_literally_free for v in x.quiver.vertices)
            assert {v: rep.gens(v) for v in x.quiver.vertices} == ranks
            assert rep.arrows == arrows
        for m, mats in diffs.items():
            assert {v: res.diff(m, v) for v in x.quiver.vertices} == mats, (text, m)
        assert set(res.diffs) <= set(diffs)


def _projective_verdict(x):
    return all(complexes._rep_is_projective(t) for t in x.terms.values())


@pytest.mark.parametrize("text", RESOLVING_RINGS + ("Zmod(12)",))
def test_preset_perfect_verdicts_match_the_split_mono_test(text):
    ring = parse_ring(text)
    rng = random.Random(f"verdict:{text}")
    if text == "Zmod(12)":
        # Z/12 is not regular: park free point complexes, perfect but lazy
        xs = [direct_sum_complexes([i_times(random_point_complex(ring, rng), A3, v) for v in A3.vertices])
              for _ in range(2)]
    else:
        xs = [projective_resolution(x) for x in (stalk_complex(random_free_rep(A3, ring, rng)),
                                                 random_perfect_complex(A3, ring, rng), unit_complex(A3, ring))]
        for x in xs:
            assert x._perfect is True and _projective_verdict(x)
    for x in xs:
        for k in (-1, 0, 3):
            sx = shift_complex(x, k)
            assert sx._perfect is x._perfect
    total = direct_sum_complexes(xs)
    assert total._perfect is (True if text != "Zmod(12)" else None)
    assert total.perfect == _projective_verdict(total)
    x = xs[0]
    f = ComplexMorphism(x, x, {n: rep_mor_identity(rep) for n, rep in x.terms.items()})
    c = cone(f)
    assert c._perfect is x._perfect
    assert c.perfect == _projective_verdict(c)
    # an input that is not perfect leaves the verdict lazy, and the lazy test says no
    bad = stalk_complex(unit_restriction(A3, ring, ("1",)))  # the simple at the source
    for y in (direct_sum_complexes([x, bad]), cone(ComplexMorphism(bad, bad, {0: rep_mor_identity(bad.terms[0])}))):
        assert y._perfect is None
        assert not y.perfect and not _projective_verdict(y)
    assert shift_complex(bad, 1)._perfect is None
    assert not bad.perfect and shift_complex(bad, 1)._perfect is False


# --- base change ----------------------------------------------------------------


def test_change_ring_localizes_torsion():
    c = cone(scale_map(unit_complex(A2, Z), 6))
    at2 = change_ring(c, IntegersLocalized(2))
    h = homology(at2, 0)
    assert str(h.fibers["1"]) == "R/(2)"  # the 3-part dies at (2)
    assert is_acyclic(change_ring(c, Rationals()))


def test_change_ring_keeps_free_part():
    u = unit_complex(A2, Z)
    q = change_ring(u, Rationals())
    assert fibers_of(homology(q, 0)) == {"1": "R", "2": "R"}


def test_change_ring_to_residue_field():
    k2 = koszul_complex(Z, [2])
    f3 = PrimeField(3)
    assert is_acyclic(change_ring(k2, f3))
    f2 = PrimeField(2)
    red = change_ring(k2, f2)
    assert str(homology(red, 0).fibers["pt"]) == "R"
    assert str(homology(red, -1).fibers["pt"]) == "R"
