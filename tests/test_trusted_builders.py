"""Builders that skip validation produce valid objects on every ring.

Shifts, sums, vertex evaluation, Kan extensions, parking, component
restriction and embedding, base change and chain-map assembly all build
their output without `validate()`, because it is valid by construction.
This file re-validates those outputs (every term, every differential,
d^2 = 0) on samples over Z, Q, Fp(5), Zmod(12), Zloc(3) and FpX(3), drawn
the way the `rings` benchmark draws them.  Cones, tensor products and
homology ride along: they are the places where a sign slip would show.
"""

import random

import pytest

from quivertt import (
    ComplexMorphism,
    ComplexRQ,
    box_tensor,
    change_ring,
    cone,
    direct_sum_complexes,
    eval_vertex,
    filtration_system,
    homology,
    homology_range,
    i_times,
    kan_extend,
    parse_ring,
    shift_complex,
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
