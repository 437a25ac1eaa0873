"""Hom spaces, the internal hom, evaluation maps, rigidity."""

import random
from pathlib import Path

import pytest

from quivertt import (
    ChainMapSpace,
    ComplexRQ,
    FGModule,
    Integers,
    Matrix,
    NotPerfect,
    PrimeField,
    RepMorphism,
    ShapeMismatch,
    box_tensor,
    build_quiver,
    chom_rep,
    complex_r,
    cone,
    direct_sum_complexes,
    ensure_perfect,
    evaluation_map,
    eval_vertex,
    hom_space,
    homology,
    homology_fingerprint,
    i_times,
    internal_hom,
    is_acyclic,
    is_rigid,
    kernel_basis,
    koszul_complex,
    parse_ring,
    projective_rep,
    rep_box,
    rep_free,
    rigidity_report,
    shift_complex,
    stalk_complex,
    unit_complex,
    unit_restriction,
)
from quivertt.homs import _arrow_witness, _unit_with_counit
from quivertt.samples import random_acyclic_quiver, random_free_rep, random_perfect_complex, random_point_complex
from quivertt.workspace import load_workspace

ROOT = Path(__file__).resolve().parent.parent
A2 = build_quiver([1, 2], ["a: 1 -> 2"])
A3 = build_quiver([1, 2, 3], ["a: 1 -> 2", "b: 2 -> 3"])
F2 = PrimeField(2)
F3 = PrimeField(3)
Z = Integers()


RINGS = ("Z", "Q", "Fp(5)", "Zmod(12)", "Zloc(3)", "FpX(3)")
# the kernel row-order tests resolve random complexes, which over Z/n needs a
# square-free n: Zmod(6) stands in for Zmod(12), and F2 for the bit-packed path
KERNEL_RINGS = ("Z", "Q", "Fp(2)", "Fp(5)", "Zmod(6)", "Zloc(3)", "FpX(3)")


def vertex_unit(q, ring, i):
    return stalk_complex(unit_restriction(q, ring, (str(i),)))


def fp(x):
    return homology_fingerprint(x)


def reference_kernel(ring, blocks, equations):
    """kernel_basis of a naturality constraint matrix built with plain loops.

    blocks lists (key, rows, cols) of the unknown matrices in storage order,
    each stored row-major.  equations lists (a_mat, b_mat, key_t, key_s) for
    f_t * a_mat - b_mat * f_s = 0; each gives one row per entry (rr, cc),
    row-major, and the equations are stacked in the order given.
    """
    off, shape, n = {}, {}, 0
    for key, rows, cols in blocks:
        off[key], shape[key] = n, (rows, cols)
        n += rows * cols
    out = []
    for a_mat, b_mat, kt, ks in equations:
        (t_rows, t_cols), (s_rows, s_cols) = shape[kt], shape[ks]
        for rr in range(t_rows):
            for cc in range(s_cols):
                row = [ring.zero()] * n
                for k in range(t_cols):
                    c = off[kt] + rr * t_cols + k
                    row[c] = ring.add(row[c], a_mat[k, cc])
                for k in range(s_rows):
                    c = off[ks] + k * s_cols + cc
                    row[c] = ring.sub(row[c], b_mat[rr, k])
                out.append(tuple(row))
    entries = {(i, j): e for i, row in enumerate(out) for j, e in enumerate(row)}
    return kernel_basis(Matrix.from_entries(ring, len(out), n, entries))


# --- hom spaces on representations ---------------------------------------------


def test_hom_endomorphisms_of_unit():
    u = unit_restriction(A2, F2, A2.vertices)
    assert hom_space(u, u).gens == 1


def test_hom_between_disjoint_simples():
    u1 = unit_restriction(A2, F2, ("1",))
    u2 = unit_restriction(A2, F2, ("2",))
    assert hom_space(u1, u2).gens == 0
    assert hom_space(u2, u1).gens == 0


def test_hom_projective_to_unit():
    p1 = projective_rep(A2, F2, 1)
    u = unit_restriction(A2, F2, A2.vertices)
    hd = hom_space(p1, u)
    assert hd.gens == 1
    mats = hd.lift(0)
    # naturality pins both components to the same scalar
    assert mats["1"].entries == mats["2"].entries


def test_hom_respects_naturality_constraint():
    # maps U(1) -> U factor through the arrow, so only zero survives
    u1 = unit_restriction(A2, F2, ("1",))
    u = unit_restriction(A2, F2, A2.vertices)
    assert hom_space(u1, u).gens == 0
    assert hom_space(u, u1).gens == 1


@pytest.mark.parametrize("name", KERNEL_RINGS)
def test_hom_space_kernel_follows_the_documented_row_order(name):
    ring = parse_ring(name)
    rng = random.Random(5)
    for _ in range(8):
        q = random_acyclic_quiver(rng, 4)
        a, b = random_free_rep(q, ring, rng), random_free_rep(q, ring, rng)
        blocks = [(v, b.gens(v), a.gens(v)) for v in q.vertices]
        eqs = [(a.arrows[name], b.arrows[name], t, s) for name, s, t in q.arrows]
        assert hom_space(a, b).kmat == reference_kernel(ring, blocks, eqs)


# --- the representation-level internal hom ---------------------------------------


def test_chom_rep_unit_is_identity_object():
    u = unit_restriction(A3, F3, A3.vertices)
    z = random_free_rep(A3, F3, random.Random(1), max_rank=2)
    c = chom_rep(u, z)
    assert [c.gens(v) for v in A3.vertices] == [z.gens(v) for v in A3.vertices]


def test_chom_rep_adjunction_dimensions():
    rng = random.Random(23)
    for _ in range(8):
        x = random_free_rep(A3, F3, rng, max_rank=3)
        y = random_free_rep(A3, F3, rng, max_rank=3)
        z = random_free_rep(A3, F3, rng, max_rank=3)
        assert hom_space(rep_box(x, y), z).gens == hom_space(x, chom_rep(y, z)).gens


def test_chom_rep_over_integers():
    rng = random.Random(5)
    x = random_free_rep(A2, Integers(), rng, max_rank=2)
    y = random_free_rep(A2, Integers(), rng, max_rank=2)
    z = random_free_rep(A2, Integers(), rng, max_rank=2)
    assert hom_space(rep_box(x, y), z).gens == hom_space(x, chom_rep(y, z)).gens


# --- internal hom of complexes ---------------------------------------------------


def test_chom_against_unit_of_source_simple():
    u1 = ensure_perfect(vertex_unit(A2, F2, 1))
    u = ensure_perfect(unit_complex(A2, F2))
    assert is_acyclic(internal_hom(u1, u))


def test_chom_self_of_source_simple():
    u1 = ensure_perfect(vertex_unit(A2, F2, 1))
    assert fp(internal_hom(u1, u1)) == fp(u1)


def test_chom_from_unit_is_identity():
    u = ensure_perfect(unit_complex(A2, F2))
    y = ensure_perfect(vertex_unit(A2, F2, 2))
    assert fp(internal_hom(u, y)) == fp(y)


def test_chom_sink_simple_against_unit():
    u2 = ensure_perfect(vertex_unit(A2, F2, 2))
    u = ensure_perfect(unit_complex(A2, F2))
    assert fp(internal_hom(u2, u)) == fp(u)


def test_internal_hom_requires_perfect():
    u1 = vertex_unit(A2, F2, 1)  # not a complex of projectives
    with pytest.raises(NotPerfect):
        internal_hom(u1, u1)


# --- evaluation and rigidity ------------------------------------------------------


def test_unit_is_rigid():
    for ring in (F2, Integers()):
        assert is_rigid(unit_complex(A2, ring))


def test_source_simple_not_rigid():
    for ring in (F2, Integers()):
        rep = rigidity_report(vertex_unit(A2, ring, 1))
        assert not rep["rigid"]
        assert rep["failures"]


def test_sink_simple_not_rigid_either():
    # projective, but evaluation against U(1) fails: [U2,U]@U1 = U1, [U2,U1] = 0
    rep = rigidity_report(vertex_unit(A2, F2, 2))
    assert not rep["rigid"]
    assert "U(1)" in rep["failures"]


def test_evaluation_sides_of_source_simple():
    u1 = ensure_perfect(vertex_unit(A2, F2, 1))
    u = ensure_perfect(unit_complex(A2, F2))
    left = box_tensor(internal_hom(u1, u), u1)
    right = internal_hom(u1, u1)
    assert is_acyclic(left)
    assert fp(right) == fp(u1)
    # the rigidity report holds the same sides as its self probe's evaluation map
    report = rigidity_report(u1)
    maps = report["maps"]
    assert list(maps) == ["U", "U(1)", "U(2)", "x"]
    assert set(report["failures"]) <= set(maps)
    assert fp(maps["x"].source) == fp(left)
    assert fp(maps["x"].target) == fp(right)
    assert fp(maps["U"].target) == fp(internal_hom(u1, u))


def test_evaluation_map_validates_and_cones():
    u = ensure_perfect(unit_complex(A2, F2))
    ev = evaluation_map(u, u)
    assert is_acyclic(cone(ev))
    u1 = ensure_perfect(vertex_unit(A2, F2, 1))
    assert not is_acyclic(cone(evaluation_map(u1, u1)))


@pytest.mark.parametrize("text", ["Z", "Q", "Fp(5)", "Zloc(3)", "FpX(3)"])
def test_unit_augmentation_is_a_quasi_isomorphism(text):
    ring = parse_ring(text)
    rng = random.Random(f"augmentation:{text}")
    q = random_acyclic_quiver(rng, 3)
    # a 3-vertex quiver whose unit is not projective, so the augmentation is built
    while len(q.vertices) < 3 or unit_complex(q, ring).perfect:
        q = random_acyclic_quiver(rng, 3)
    for quiver in (A2, q):
        w, aug = _unit_with_counit(quiver, ring)
        assert w.perfect and aug.source is w
        aug.validate()  # built trusted: natural, and a chain map
        assert is_acyclic(cone(aug))


def test_parked_torsion_is_rigid_over_point():
    from quivertt import point_quiver

    k2 = koszul_complex(Integers(), [2])
    assert is_rigid(i_times(k2, point_quiver(), "pt"))


# --- rigidity from the arrow maps against the evaluation-map oracle --------------

KRONECKER = build_quiver([1, 2], ["a: 1 -> 2", "b: 1 -> 2"])
TRIANGLE = build_quiver([1, 2, 3], ["a: 1 -> 2", "b: 2 -> 3", "c: 1 -> 3"])
ORACLE_RINGS = ("Fp(2)", "Fp(3)", "Z", "Q", "Zmod(7)", "Zloc(3)", "FpX(2)")


def constant_complex(q, point, scale=None):
    """The point complex at every vertex, each arrow c times the identity, c = scale.get(arrow, 1)."""
    r, scale = point.ring, scale or {}
    terms = {}
    for n, rep in point.terms.items():
        g = rep.gens("pt")
        terms[n] = rep_free(q, r, {v: g for v in q.vertices},
                            {name: Matrix.identity(r, g).scale(r.from_int(scale.get(name, 1))) for name, _, _ in q.arrows})
    diffs = {n: RepMorphism(terms[n], terms[n + 1], {v: d.mats["pt"] for v in q.vertices})
             for n, d in point.diffs.items()}
    return ComplexRQ(q, r, terms, diffs)


def oracle_objects(ring, rng):
    """Samples, constant complexes with one arrow scaled by 0, -1 or 2, and an
    acyclic summand parked at one vertex; small enough for the oracle."""
    point = random_point_complex(ring, rng)
    while is_acyclic(point) or sum(rep.gens("pt") for rep in point.terms.values()) > 3:
        point = random_point_complex(ring, rng)
    one = complex_r(ring, {0: FGModule.free(ring, 1)}, {})
    q = random_acyclic_quiver(rng, 3)
    out = []
    while len(out) < 3:
        x = random_perfect_complex(random_acyclic_quiver(rng, 3), ring, rng, pieces=1)
        if sum(rep.gens(v) for rep in x.terms.values() for v in x.quiver.vertices) <= 8:
            out.append(x)
    last = q.arrows[-1][0]
    out += [constant_complex(q, point), constant_complex(q, point, {last: 0})]
    v = rng.choice(q.vertices)
    out.append(direct_sum_complexes([constant_complex(q, point), i_times(koszul_complex(ring, [ring.one()]), q, v)]))
    out.append(constant_complex(KRONECKER, one))
    out += [constant_complex(KRONECKER, one, {name: c}) for (name, _, _), c in zip(KRONECKER.arrows, (0, -1))]
    # the triangle costs the oracle most, so each ring scales one of its arrows
    k = ORACLE_RINGS.index(str(ring))
    out.append(constant_complex(TRIANGLE, one, {TRIANGLE.arrows[k % 3][0]: (0, -1, 2)[k % 3]}))
    return out


@pytest.mark.parametrize("text", ORACLE_RINGS)
def test_rigidity_criterion_matches_the_evaluation_oracle(text):
    ring = parse_ring(text)
    verdicts = []
    for x in oracle_objects(ring, random.Random(f"rigidity oracle:{text}")):
        rigid = is_rigid(x)
        assert rigid == rigidity_report(x)["rigid"], (text, str(x))
        verdicts.append(rigid)
    assert True in verdicts and False in verdicts


def test_rigidity_criterion_matches_the_oracle_over_zmod30():
    # the perfect Z/30 object of tests/test_cli.py's rigidity bound
    r = parse_ring("Zmod(30)")
    ranks = {"1": 2, "2": 3, "3": 1}
    terms = {n: rep_free(A3, r, ranks, {}) for n in (-1, 0)}
    d = {"1": [[0, 12], [0, 0]], "2": [[16, 0, 2], [0, 0, 0], [12, 0, 0]], "3": [[2]]}
    x = ComplexRQ(A3, r, terms, {-1: RepMorphism(terms[-1], terms[0],
                                                 {v: Matrix.from_rows(r, rows) for v, rows in d.items()})})
    assert is_rigid(x) is rigidity_report(x)["rigid"] is False


def test_arrow_witness_names_the_first_failing_arrow_and_degree():
    for ring in (F2, Z):
        assert _arrow_witness(ensure_perfect(vertex_unit(A2, ring, 1))) == ("a", 0)
        assert _arrow_witness(ensure_perfect(vertex_unit(A2, ring, 2))) == ("a", 0)
    one = complex_r(Z, {0: FGModule.free(Z, 1)}, {})
    assert _arrow_witness(constant_complex(A3, one, {"b": 2})) == ("b", 0)
    assert _arrow_witness(constant_complex(A3, one, {"b": -1})) is None
    # x(a) = 0 on R in degree 1: the cone's first homology sits in degree 0,
    # where H^0(x(a)) is an isomorphism of zero modules; it fails in degree 1
    assert _arrow_witness(constant_complex(A2, shift_complex(one, -1), {"a": 0})) == ("a", 1)
    d5 = load_workspace(str(ROOT / "workspaces" / "affine_d5_f2.yaml"))
    assert _arrow_witness(d5.objects["U"]) is None


# --- chain map spaces --------------------------------------------------------------


def test_chain_map_space_identity():
    u = ensure_perfect(unit_complex(A2, F2))
    space = ChainMapSpace(u, u)
    assert space.dim >= 1
    for k in range(space.dim):
        coeffs = [F2.one() if j == k else F2.zero() for j in range(space.dim)]
        f = space.build(coeffs)  # validated on construction
        cone(f)


def test_chain_map_space_shifted_targets():
    from quivertt import direct_sum_complexes

    u = ensure_perfect(unit_complex(A2, F2))
    space = ChainMapSpace(u, shift_complex(u, 1))
    # Ext^1(U, U) = 0 here, so every cone splits as U[1] + U
    want = fp(direct_sum_complexes([shift_complex(u, 1), u]))
    for k in range(space.dim):
        coeffs = [F2.one() if j == k else F2.zero() for j in range(space.dim)]
        assert fp(cone(space.build(coeffs))) == want


@pytest.mark.parametrize("name", KERNEL_RINGS)
def test_chain_map_space_kernel_follows_the_documented_row_order(name):
    # off a field the Smith kernel depends on row order: per degree, the
    # arrow rows, then the differential rows
    ring = parse_ring(name)
    rng = random.Random(11)
    for _ in range(20):
        q = A2 if rng.random() < 0.5 else A3
        x, y0 = random_perfect_complex(q, ring, rng), random_perfect_complex(q, ring, rng)
        for k in range(-2, 3):
            y = shift_complex(y0, k)
            degrees = sorted(set(x.degrees) | set(y.degrees))
            blocks = [((d, v), y.term(d).gens(v), x.term(d).gens(v)) for d in degrees for v in q.vertices]
            eqs = []
            for d in degrees:
                eqs += [(x.term(d).arrows[name], y.term(d).arrows[name], (d, t), (d, s))
                        for name, s, t in q.arrows]
                if d + 1 in degrees:
                    eqs += [(x.diff(d, v), y.diff(d, v), (d + 1, v), (d, v)) for v in q.vertices]
            assert ChainMapSpace(x, y).kmat == reference_kernel(ring, blocks, eqs)


def test_chain_map_space_needs_free_fibers():
    # Hom(Z/2, Z) = 0, but the constraint system ignores relations
    x = complex_r(Z, {0: FGModule(Z, Matrix.from_rows(Z, [[2]]))}, {})
    y = complex_r(Z, {0: FGModule.free(Z, 1)}, {})
    with pytest.raises(NotPerfect):
        ChainMapSpace(x, y)
    with pytest.raises(NotPerfect):
        ChainMapSpace(y, x)


def test_chain_map_space_build_checks_the_coefficient_count():
    u = ensure_perfect(unit_complex(A2, F2))
    space = ChainMapSpace(u, u)
    for coeffs in ([1] * (space.dim + 1), [1] * (space.dim - 1)):
        with pytest.raises(ShapeMismatch):
            space.build(coeffs)
    # Hom(U(1), U) = 0: one unknown, no generators, and build(()) is the zero map
    empty = ChainMapSpace(vertex_unit(A2, F2, 1), stalk_complex(unit_restriction(A2, F2, A2.vertices)))
    assert empty.dim == 0 and empty.kmat.rows == 1
    assert all(empty.build(()).part(0, v).is_zero() for v in A2.vertices)
    with pytest.raises(ShapeMismatch):
        empty.build((1,))


# --- one map space under hom spaces and chain maps ---------------------------------


@pytest.mark.parametrize("text", RINGS)
def test_map_space_round_trips(text):
    ring = parse_ring(text)
    rng = random.Random(f"map-space:{text}")
    built = 0
    for _ in range(4):
        q = random_acyclic_quiver(rng, 3)
        a, b = random_free_rep(q, ring, rng), random_free_rep(q, ring, rng)
        x = random_point_complex(ring, rng)
        hom, stalks, chain = hom_space(a, b), ChainMapSpace(stalk_complex(a), stalk_complex(b)), ChainMapSpace(x, x)
        # a chain map between stalks is a hom: the same blocks, equations and kernel
        assert stalks.kmat == hom.kmat
        for space in (hom, stalks, chain):
            lifts = [space.lift(l) for l in range(space.gens)]
            assert space.kmat.mul(space.express_cols(lifts)) == space.kmat
        for space in (stalks, chain):
            for l in range(space.dim):
                f = space.build([ring.one() if j == l else ring.zero() for j in range(space.dim)])
                blocks = {(d, v): m for d, part in f.parts.items() for v, m in part.mats.items()}
                assert blocks == {k: m for k, m in space.lift(l).items() if k[0] in space.source.terms}
                built += 1
    assert built
