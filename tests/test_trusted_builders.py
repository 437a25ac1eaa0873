"""Builders that skip validation produce valid objects on every ring.

Shifts, sums, vertex evaluation, Kan extensions, parking, component
restriction and embedding, base change, chain-map assembly, cones, tensor
products, perfect replacements, the internal hom, Koszul complexes and the
spectrum's generators and detecting objects all build their output without
`validate()`, because it is valid by construction.  This file
re-validates those outputs (every term, every differential, d^2 = 0) on
samples over Z, Q, Fp(5), Zmod(12), Zloc(3) and FpX(3), drawn the way the
`rings` benchmark draws them, and counts that the builders themselves make
no `validate()` call.  It also checks, term by term, that restriction undoes
extension by zero (`eval_vertex` after `i_times`, `component_restrict` after
`component_times`); over Z/n that check adds a sample with nonzero arrows.
"""

import random

import pytest

from quivertt import (
    ComplexMorphism,
    ComplexRQ,
    FGModule,
    Matrix,
    NonRegularRing,
    NotPerfect,
    Representation,
    RepMorphism,
    UnsupportedRing,
    box_tensor,
    build_quiver,
    change_ring,
    chom_rep,
    cone,
    detecting_object,
    direct_sum_complexes,
    ensure_perfect,
    eval_vertex,
    evaluation_map,
    filtration_system,
    homology,
    homology_fingerprint,
    homology_range,
    i_times,
    ideal_generators,
    internal_hom,
    kan_extend,
    koszul_complex,
    parse_ring,
    prime_ideal,
    projective_rep,
    q_support,
    rigidity_report,
    shift_complex,
    sp_all,
    sp_points,
    stalk_complex,
    unit_complex,
)
from quivertt.homs import ChainMapSpace
from quivertt.samples import random_acyclic_quiver, random_perfect_complex, random_point_complex
from quivertt.tstruct import component_restrict, component_times

RINGS = ("Z", "Q", "Fp(5)", "Zmod(12)", "Zloc(3)", "FpX(3)")


def sample_pair(text, k=0):
    """Two complexes over one small quiver, as the rings benchmark draws them."""
    ring = parse_ring(text)
    rng = random.Random(f"trusted:{text}:{k}")
    q = random_acyclic_quiver(rng, 3)
    if text.startswith("Zmod"):
        # Z/n is not regular: park free point complexes at every vertex
        def make():
            return direct_sum_complexes([i_times(random_point_complex(ring, rng), q, v) for v in q.vertices])
    else:
        def make():
            return random_perfect_complex(q, ring, rng, pieces=1)
    return q, make(), make()


def arrowed_zmod_sample(q, ring):
    """A perfect complex over Z pushed into Z/n: its fibers are free, and
    unlike the parked samples it has a nonzero arrow matrix."""
    z = change_ring(random_perfect_complex(q, parse_ring("Z"), random.Random(f"arrowed:{ring}"), pieces=1), ring)
    assert any(not m.is_zero() for rep in z.terms.values() for m in rep.arrows.values())
    return z


def assert_valid(obj):
    if isinstance(obj, ComplexRQ):
        for rep in obj.terms.values():
            rep.validate()
        for n, d in obj.diffs.items():
            assert d.source is obj.terms[n] and d.target is obj.terms[n + 1]
    elif isinstance(obj, ComplexMorphism):
        assert_valid(obj.source)
        assert_valid(obj.target)
    obj.validate()


@pytest.mark.parametrize("text", RINGS)
def test_trusted_outputs_are_valid(text):
    q, x, y = sample_pair(text)
    for k in (-1, 1, 2):
        assert_valid(shift_complex(x, k))
    assert_valid(direct_sum_complexes([x, y, shift_complex(y, 1)]))
    for v in q.vertices:
        at_v = eval_vertex(x, v)
        assert_valid(at_v)
        assert_valid(i_times(at_v, q, v))
        for side in ("left", "right"):
            assert_valid(kan_extend(at_v, q, v, side))
    c = filtration_system(q, [[v] for v in q.vertices])
    for k in range(len(c.parts)):
        piece = component_restrict(x, k, c)
        assert_valid(piece)
        assert_valid(component_times(piece, k, c))
    assert_valid(box_tensor(x, y))
    for n in homology_range(x):
        assert_valid(homology(x, n))


@pytest.mark.parametrize("text", RINGS)
def test_chain_maps_and_cones_are_valid(text):
    _, x, y = sample_pair(text)
    # maps x -> x, and x -> y[k] for the first shift k that has any
    spaces = [ChainMapSpace(x, x)]
    spaces += [s for s in (ChainMapSpace(x, shift_complex(y, k)) for k in range(-4, 5)) if s.dim][:1]
    assert len(spaces) == 2
    for space in spaces:
        picks = [[1] * space.dim] + [[int(i == j) for i in range(space.dim)] for j in range(min(space.dim, 3))]
        for coeffs in picks:
            f = space.build(coeffs)
            assert_valid(f)
            assert_valid(cone(f))


@pytest.mark.parametrize("target", ["Q", "Zloc(3)"])
def test_change_ring_from_integers_is_valid(target):
    _, x, y = sample_pair("Z")
    ring = parse_ring(target)
    for z in (x, box_tensor(x, y)):
        assert_valid(change_ring(z, ring))


# two sources into a sink: the unit is not projective, so it gets resolved
V = build_quiver([1, 2, 3], ["a: 1 -> 3", "b: 2 -> 3"])
NON_UNITS = {"Z": "2", "Q": "2", "Fp(5)": "2", "Zmod(12)": "2", "Zloc(3)": "3", "FpX(3)": "x"}


def times(x, c):
    """Multiplication by the ring element c on every term of x."""
    parts = {n: RepMorphism(rep, rep, {v: Matrix.identity(x.ring, rep.gens(v)).scale(c) for v in x.quiver.vertices})
             for n, rep in x.terms.items()}
    return ComplexMorphism(x, x, parts)


def torsion_sample(text, c=None):
    """A complex over V that is not perfect and has fibers with relations.

    The cone of c on the unit (free fibers, not projective) plus t -> t -> t,
    where t has fibers R/(c^2) + R and each differential multiplies the
    torsion generator by c.  At the sink the first one multiplies it by
    c + c^2, so that it is natural, and d^2 vanishes, only modulo the
    relations: both lifts in `_free_fiber_replacement` are nonzero.  Over Z,
    Zloc(3) and FpX(3) c is a non-unit and the fibers have torsion; over the
    fields c^2 is a unit, and the fiber steps drop the generator it kills.
    c defaults to the ring's entry in NON_UNITS.
    """
    ring = parse_ring(text)
    c = ring.parse_elem(c or NON_UNITS[text])
    cc, z = ring.mul(c, c), ring.zero()
    t = Representation(V, ring, {v: FGModule(ring, Matrix.from_rows(ring, ((cc,), (z,)))) for v in V.vertices},
                       {a: Matrix.identity(ring, 2) for a in ("a", "b")})

    def on_torsion(e):
        return Matrix.from_rows(ring, ((e, z), (z, z)))

    d0 = RepMorphism(t, t, {"1": on_torsion(c), "2": on_torsion(c), "3": on_torsion(ring.add(c, cc))})
    d1 = RepMorphism(t, t, {v: on_torsion(c) for v in V.vertices})
    s = ComplexRQ(V, ring, {0: t, 1: t, 2: t}, {0: d0, 1: d1})
    return direct_sum_complexes([cone(times(unit_complex(V, ring), c)), s])


@pytest.mark.parametrize("text", RINGS)
def test_resolutions_of_torsion_fibers_are_valid(text):
    x = torsion_sample(text)
    assert not x.perfect
    assert not all(rep.all_free() for rep in x.terms.values())
    if text == "Zmod(12)":
        # Z/12 is not regular: only inputs that are already perfect are accepted
        with pytest.raises(NonRegularRing):
            ensure_perfect(x)
        return
    r = ensure_perfect(x)
    assert r.perfect
    assert_valid(r)
    assert homology_fingerprint(r) == homology_fingerprint(x)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zmod_prime_resolves_like_the_prime_field(p):
    # Z/p is a field, so fibers with relations resolve there as over F_p
    for c in sorted({"1", str(p - 1)}):
        x = torsion_sample(f"Zmod({p})", c)
        assert not all(rep.all_free() for rep in x.terms.values())
        r = ensure_perfect(x)
        assert r.perfect
        assert_valid(r)
        assert homology_fingerprint(r) == homology_fingerprint(ensure_perfect(torsion_sample(f"Fp({p})", c)))


@pytest.mark.parametrize("text", RINGS)
def test_koszul_complexes_are_valid(text):
    ring = parse_ring(text)
    c = ring.parse_elem(NON_UNITS[text])
    for gens in ((c,), (c, c), (c, ring.one(), c)):
        assert_valid(koszul_complex(ring, gens))


@pytest.mark.parametrize("text", RINGS)
def test_internal_homs_are_valid(text):
    q, x, y = sample_pair(text)
    if text == "Zmod(12)":
        # the parked samples are not perfect and Z/12 cannot resolve them,
        # so the internal hom runs on sums of projectives; hom fibers need
        # not be free over a non-domain, so chom_rep refuses Z/12 outright
        with pytest.raises(NotPerfect):
            internal_hom(x, y)
        with pytest.raises(UnsupportedRing):
            chom_rep(projective_rep(q, x.ring, q.vertices[0]), projective_rep(q, x.ring, q.vertices[0]))
        projs = [stalk_complex(projective_rep(q, x.ring, v)) for v in q.vertices]
        x, y = direct_sum_complexes([projs[0], shift_complex(projs[-1], 1)]), direct_sum_complexes(projs)
    else:
        for a in x.terms.values():
            for b in y.terms.values():
                assert_valid(chom_rep(a, b))
    assert_valid(internal_hom(x, y))
    assert_valid(internal_hom(y, x))


def test_builders_make_no_validate_calls(monkeypatch):
    calls = {}
    for cls in (Representation, RepMorphism, ComplexRQ, ComplexMorphism):
        def counted(self, _validate=cls.validate, _name=cls.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            return _validate(self)
        monkeypatch.setattr(cls, "validate", counted)

    def count(build):
        calls.clear()
        build()
        return dict(calls)

    x = torsion_sample("Z")
    _, a, b = sample_pair("Z")
    space = ChainMapSpace(a, a)
    assert count(lambda: ensure_perfect(x)) == {}
    assert count(lambda: box_tensor(a, b)) == {}
    assert count(lambda: cone(space.build([1] * space.dim))) == {}
    assert count(lambda: internal_hom(a, b)) == {}
    assert count(lambda: koszul_complex(a.ring, (2, 3, 6))) == {}
    assert count(lambda: detecting_object(a.ring, V, 2, "3")) == {}
    points = sp_points(a.ring, {prime_ideal(a.ring, 2), prime_ideal(a.ring, 5)})
    s = q_support(V, a.ring, {"1": sp_all(a.ring), "3": points})
    assert count(lambda: ideal_generators(s)) == {}
    # the evaluation map promises a validated map; the rigidity test's own maps are trusted
    u = ensure_perfect(unit_complex(V, a.ring))
    assert count(lambda: evaluation_map(u, u)).get("ComplexMorphism", 0) >= 1
    assert count(lambda: rigidity_report(u)) == {}


def assert_same_complex(a, b):
    """Term by term: fiber presentations, arrow matrices and differentials."""
    assert (a.quiver, a.ring, a.degrees, list(a.diffs)) == (b.quiver, b.ring, b.degrees, list(b.diffs))
    for n in a.degrees:
        assert {v: f.presentation for v, f in a.terms[n].fibers.items()} == \
            {v: f.presentation for v, f in b.terms[n].fibers.items()}
        assert a.terms[n].arrows == b.terms[n].arrows
    for n in a.diffs:
        assert a.diffs[n].mats == b.diffs[n].mats


@pytest.mark.parametrize("text", RINGS)
def test_restriction_undoes_extension_by_zero(text):
    q, x, y = sample_pair(text)
    rng = random.Random(f"roundtrip:{text}")
    samples = (x, y)
    if text.startswith("Zmod"):
        samples += (arrowed_zmod_sample(q, x.ring),)
        assert_valid(samples[-1])
    for v in q.vertices:
        for m in (eval_vertex(x, v), random_point_complex(x.ring, rng)):
            assert_same_complex(eval_vertex(i_times(m, q, v), v), m)
    # single vertices, a split in two, and one part that keeps every arrow
    vs = q.vertices
    for parts in ([[v] for v in vs], [vs[:2], vs[2:]], [vs]):
        c = filtration_system(q, parts)
        for k in range(len(c.parts)):
            for z in samples:
                p = component_restrict(z, k, c)
                assert_same_complex(component_restrict(component_times(p, k, c), k, c), p)
    # against the input itself: the part holding every vertex keeps all of it
    whole = filtration_system(q, [vs])
    for z in samples:
        assert_same_complex(component_times(component_restrict(z, 0, whole), 0, whole), z)
    assert q.arrows
