"""Quiver combinatorics: paths, projectives, Dynkin recognition."""

import random

import pytest

from quivertt import (
    CyclicQuiver,
    DuplicateName,
    Integers,
    PrimeField,
    UnknownArrow,
    UnknownVertex,
    build_quiver,
    full_subquiver,
    is_dynkin,
    paths,
    point_quiver,
    projective_rep,
    unit_restriction,
)
from quivertt.complexes import proj_precompose
from quivertt.samples import random_acyclic_quiver

A2 = build_quiver([1, 2], ["a: 1 -> 2"])
A3 = build_quiver([1, 2, 3], ["a: 1 -> 2", "b: 2 -> 3"])
# six-vertex tree, forks in at 3 and out of 4; underlying graph is Euclidean
D5T = build_quiver(
    [1, 2, 3, 4, 5, 6],
    ["a: 1 -> 3", "b: 2 -> 3", "c: 3 -> 4", "d: 4 -> 5", "e: 4 -> 6"],
)


def test_build_orders_vertices():
    assert A2.vertices == ("1", "2")
    assert A2.arrows == (("a", "1", "2"),)


def test_an_unknown_arrow_is_an_unknown_arrow():
    for lookup in (lambda: A2.arrow("z"), lambda: proj_precompose(A2, Integers(), "z")):
        with pytest.raises(UnknownArrow, match="no arrow named z") as err:
            lookup()
        assert not isinstance(err.value, UnknownVertex)
    assert A2.arrow("a") == ("a", "1", "2")


def test_build_rejects_cycle():
    with pytest.raises(CyclicQuiver):
        build_quiver([1, 2], ["a: 1 -> 2", "b: 2 -> 1"])


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateName):
        build_quiver([1, 1], [])
    with pytest.raises(DuplicateName):
        build_quiver([1, 2], ["a: 1 -> 2", "a: 1 -> 2"])


def test_paths_a2():
    assert paths(A2, 1, 2) == [("a",)]
    assert paths(A2, 2, 1) == []
    assert paths(A2, 1, 1) == [()]


def test_paths_parallel_arrows():
    kr = build_quiver([1, 2], ["a: 1 -> 2", "b: 1 -> 2"])
    assert len(paths(kr, 1, 2)) == 2


def test_paths_six_vertex_tree():
    assert paths(D5T, 1, 6) == [("a", "c", "e")]
    assert paths(D5T, 6, 1) == []


def test_projective_a2():
    f2 = PrimeField(2)
    p1 = projective_rep(A2, f2, 1)
    assert [p1.gens(v) for v in A2.vertices] == [1, 1]
    assert p1.arrows["a"].entries == ((f2.one(),),)
    p2 = projective_rep(A2, f2, 2)
    assert [p2.gens(v) for v in A2.vertices] == [0, 1]


def test_projective_a3_over_z():
    p1 = projective_rep(A3, Integers(), 1)
    assert [p1.gens(v) for v in A3.vertices] == [1, 1, 1]
    assert p1.arrows["a"].entries == ((1,),)
    assert p1.arrows["b"].entries == ((1,),)


def test_projective_fork_vertex():
    p4 = projective_rep(D5T, PrimeField(2), 4)
    assert [p4.gens(v) for v in D5T.vertices] == [0, 0, 0, 1, 1, 1]


def test_projective_ranks_count_paths():
    rng = random.Random(5)
    for _ in range(10):
        q = random_acyclic_quiver(rng, 6)
        i = rng.choice(q.vertices)
        p = projective_rep(q, Integers(), i)
        for k in q.vertices:
            assert p.gens(k) == len(paths(q, i, k))


def test_dynkin_recognition():
    assert is_dynkin(A2)
    assert is_dynkin(A3)
    assert not is_dynkin(D5T)
    assert is_dynkin(full_subquiver(D5T, ["1", "2", "3", "4", "5"]))


def test_dynkin_ignores_orientation():
    d4a = build_quiver([1, 2, 3, 4], ["a: 1 -> 2", "b: 3 -> 2", "c: 4 -> 2"])
    d4b = build_quiver([1, 2, 3, 4], ["a: 2 -> 1", "b: 2 -> 3", "c: 2 -> 4"])
    assert is_dynkin(d4a) and is_dynkin(d4b)


def test_dynkin_rejects_parallel_edges():
    kr = build_quiver([1, 2], ["a: 1 -> 2", "b: 1 -> 2"])
    assert not is_dynkin(kr)


def test_dynkin_exceptional_types():
    # E6 yes; the 3,3,1 star (affine E6 shape minus nothing) no
    e6 = build_quiver(
        [1, 2, 3, 4, 5, 6],
        ["a: 1 -> 2", "b: 2 -> 3", "c: 3 -> 4", "d: 4 -> 5", "e: 3 -> 6"],
    )
    assert is_dynkin(e6)
    star331 = build_quiver(
        [0, 1, 2, 3, 4, 5, 6],
        ["a: 1 -> 2", "b: 2 -> 0", "c: 3 -> 4", "d: 4 -> 0", "e: 5 -> 6", "f: 6 -> 0"],
    )
    assert not is_dynkin(star331)


def test_unit_restriction_shapes():
    f2 = PrimeField(2)
    u = unit_restriction(D5T, f2, D5T.vertices)
    assert all(u.gens(v) == 1 for v in D5T.vertices)
    u6 = unit_restriction(D5T, f2, ("6",))
    assert [u6.gens(v) for v in D5T.vertices] == [0, 0, 0, 0, 0, 1]
    p = unit_restriction(D5T, f2, ("1", "2", "3", "4", "5"))
    assert [p.gens(v) for v in D5T.vertices] == [1, 1, 1, 1, 1, 0]
    # arrows inside the set are identities, the one leaving it is empty
    assert p.arrows["c"].entries == ((f2.one(),),)
    assert p.arrows["e"].rows == 0


def test_every_acyclic_quiver_has_source_and_sink():
    rng = random.Random(9)
    for _ in range(25):
        q = random_acyclic_quiver(rng, 7)
        has_in = {t for _, _, t in q.arrows}
        has_out = {s for _, s, t in q.arrows}
        assert set(q.vertices) - has_in, "no source"
        assert set(q.vertices) - has_out, "no sink"


def test_point_quiver():
    pt = point_quiver()
    assert pt.vertices == ("pt",) and pt.arrows == ()
