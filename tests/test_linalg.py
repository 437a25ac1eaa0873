"""Exact normal forms: certificates are multiplied out, never trusted."""

import hashlib
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from quivertt import (
    Matrix,
    Integers,
    IntegersLocalized,
    IntegersMod,
    PrimeField,
    PolyOverPrimeField,
    Rationals,
    cokernel_presentation,
    kernel_basis,
    parse_ring,
    rank,
    smith_normal_form,
    solve,
)
import quivertt.linalg as linalg
from quivertt.errors import RingMismatch, ShapeMismatch
from quivertt.linalg import ElementaryDivisors, _diagonal, diagonal_of, solve_kernel

Z = Integers()


def mat(ring, rows):
    return Matrix.from_rows(ring, [[ring.from_int(e) for e in row] for row in rows])


def diag(d):
    return [d.entries[k][k] for k in range(min(d.rows, d.cols))]


def assert_certificate(m):
    d, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v).entries == d.entries
    r = m.ring
    # off-diagonal zero and the divisibility chain
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert r.is_zero(d.entries[i][j])
    ds = [e for e in diag(d) if not r.is_zero(e)]
    for a, b in zip(ds, ds[1:]):
        assert r.divide(b, a) is not None
    return d


def test_snf_identity():
    m = Matrix.identity(Z, 2)
    d = assert_certificate(m)
    assert diag(d) == [1, 1]


def test_snf_two_by_two():
    m = mat(Z, [[2, 4], [6, 8]])
    d = assert_certificate(m)
    assert diag(d) == [2, 4]


def test_snf_poly_row():
    r = PolyOverPrimeField(2)
    x = r.parse_elem("x")
    m = Matrix.from_rows(r, [[x, r.mul(x, x)]])
    d = assert_certificate(m)
    assert [e for e in diag(d) if not r.is_zero(e)] == [x]
    assert cokernel_presentation(m).free_rank == 0
    assert kernel_basis(m).cols == 1


def test_snf_negative_entries():
    # the balanced remainder has to shrink for either sign of the divisor
    for a, b in ((7, -3), (-7, 3), (-7, -3), (7, 3)):
        q, r = Z.divmod_(a, b)
        assert a == q * b + r
        assert 2 * abs(r) <= abs(b)
    d = assert_certificate(mat(Z, [[7, 11]]))
    assert [e for e in diag(d) if e] == [1]
    k = kernel_basis(mat(Z, [[7, 11]]))
    assert k.cols == 1
    assert mat(Z, [[7, 11]]).mul(k).is_zero()


def test_cokernel_zero_matrix():
    ed = cokernel_presentation(Matrix.zeros(Z, 1, 1))
    assert ed.free_rank == 1 and ed.divisors == ()


def test_cokernel_single_six():
    ed = cokernel_presentation(mat(Z, [[6]]))
    assert ed.free_rank == 0 and ed.divisors == (6,)


def test_cokernel_two_three_merges():
    # Z/2 + Z/3 = Z/6 once the chain is repaired and the unit dropped
    ed = cokernel_presentation(mat(Z, [[2, 0], [0, 3]]))
    assert ed.free_rank == 0 and ed.divisors == (6,)


def test_cokernel_upper_triangular():
    ed = cokernel_presentation(mat(Z, [[4, 2], [0, 6]]))
    assert ed.divisors == (2, 12) and ed.free_rank == 0


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_cokernel_cardinality_random():
    """For full-rank 3x3 over Z, the product of divisors is the lattice index."""
    rng = random.Random(42)
    done = 0
    while done < 25:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        det = det3(rows)
        if det == 0:
            continue
        done += 1
        ed = cokernel_presentation(mat(Z, rows))
        assert ed.free_rank == 0
        prod = 1
        for e in ed.divisors:
            prod *= e
        assert prod == abs(det)


def test_snf_random_certificates():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 4))]
        cols = max(len(r) for r in rows)
        rows = [r + [0] * (cols - len(r)) for r in rows]
        assert_certificate(mat(Z, rows))


def test_kernel_times_matrix_vanishes():
    rng = random.Random(3)
    for ring in (Z, PrimeField(5)):
        for _ in range(20):
            m = mat(ring, [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)])
            k = kernel_basis(m)
            assert m.mul(k).is_zero()


def test_solve_and_rank():
    m = mat(Z, [[2, 0], [0, 3]])
    b = mat(Z, [[4], [9]])
    x = solve(m, b)
    assert x is not None and m.mul(x).entries == b.entries
    assert solve(m, mat(Z, [[1], [0]])) is None
    assert rank(m) == 2
    assert rank(Matrix.zeros(PrimeField(2), 3, 2)) == 0


def test_snf_rejects_nothing_square():
    # wide and tall shapes both normalize
    for shape in ([[3, 0, 6]], [[3], [0], [6]]):
        assert_certificate(mat(Z, shape))


def test_field_cokernel_is_rank_deficit():
    f = PrimeField(3)
    m = mat(f, [[1, 2], [2, 4]])
    ed = cokernel_presentation(m)
    assert ed.free_rank == 1 and ed.divisors == ()


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_snf_mod_n_certificate(n):
    r = IntegersMod(n)
    m = Matrix.from_rows(r, [[r.from_int(2), r.from_int(4)], [r.from_int(0), r.from_int(2)]])
    d, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v).entries == d.entries


# --- fast paths against slow references ----------------------------------------

SIX_RINGS = (Integers(), Rationals(), PrimeField(5), IntegersMod(12), IntegersLocalized(3), PolyOverPrimeField(3))


def reference_mul(a, b):
    """Triple loop through the ring's own add and mul."""
    r = a.ring
    out = [[r.zero()] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] = r.add(out[i][j], r.mul(a.entries[i][k], b.entries[k][j]))
    return tuple(tuple(row) for row in out)


def sparse_matrix(ring, rng, rows, cols, elems, density=0.1):
    """Entries drawn from elems with probability density, else zero."""
    return Matrix(ring, rows, cols, tuple(
        tuple(rng.choice(elems) if rng.random() < density else ring.zero() for _ in range(cols))
        for _ in range(rows)))


def cancelling_pair(ring, rng, rows, pairs, cols, elems):
    """a with equal columns 2m and 2m+1, b with row 2m+1 = -row 2m: a*b = 0."""
    a = [[e for _ in range(pairs) for e in [rng.choice(elems)] * 2] for _ in range(rows)]
    b = []
    for _ in range(pairs):
        row = [rng.choice(elems) for _ in range(cols)]
        b += [row, [ring.neg(e) for e in row]]
    return (Matrix(ring, rows, 2 * pairs, tuple(map(tuple, a))),
            Matrix(ring, 2 * pairs, cols, tuple(map(tuple, b))))


@pytest.mark.parametrize("ring", SIX_RINGS + (PrimeField(2),), ids=str)
def test_integer_mul_matches_reference(ring):
    rng = random.Random(5)
    wide = 2 ** 70 + 3  # wider than a machine word; Fp and Z/n reduce it on entry
    pick = (-wide, -7, -1, 0, 0, 1, 4, wide)
    # from_rows canonicalizes the ints; the other rings add their own elements
    elems = [e for e in Matrix.from_rows(ring, [pick]).entries[0] + tuple(sample_elements(ring, rng)) if e]
    zero = ring.zero()
    pairs = []
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (3, 4, 2), (5, 5, 5)]
    for rows, inner, cols in shapes:
        for _ in range(4):
            # the shape is restated for empty rows
            a = Matrix.from_rows(ring, [[rng.choice(pick) for _ in range(inner)] for _ in range(rows)])
            b = Matrix.from_rows(ring, [[rng.choice(pick) for _ in range(cols)] for _ in range(inner)])
            pairs.append((Matrix(ring, rows, inner, a.entries), Matrix(ring, inner, cols, b.entries)))
    for _ in range(30):
        rows, inner, cols = (rng.randint(1, 12) for _ in range(3))
        pairs.append((sparse_matrix(ring, rng, rows, inner, elems), sparse_matrix(ring, rng, inner, cols, elems)))
    cancelling = [cancelling_pair(ring, rng, rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4), elems)
                  for _ in range(6)]
    for a, b in pairs + cancelling:
        got = a.mul(b)
        assert (got.rows, got.cols) == (a.rows, b.cols)
        assert got.entries == reference_mul(a, b)
        for e in (e for row in got.entries for e in row):
            # canonical: Fraction(0) over Q and Zloc, () over FpX, int 0 otherwise
            assert type(e) is type(zero) and ring.canon(e) == e
    for a, b in cancelling:
        assert a.mul(b).entries == Matrix.zeros(ring, a.rows, b.cols).entries


def sample_elements(ring, rng, count=12):
    """Canonical elements, zero always among them."""
    if isinstance(ring, PolyOverPrimeField):
        raw = [tuple(rng.randint(0, ring.p - 1) for _ in range(rng.randint(0, 3))) for _ in range(count)]
    elif isinstance(ring, (Rationals, IntegersLocalized)):
        dens = [d for d in range(1, 8) if not isinstance(ring, IntegersLocalized) or d % ring.p]
        raw = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(count)]
    else:
        raw = [rng.randint(-30, 30) for _ in range(count)]
    return [ring.canon(a) for a in raw + [0, ring.zero(), ring.one()]]


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_is_zero_is_equality_with_zero(ring):
    for a in sample_elements(ring, random.Random(1), 40):
        assert ring.is_zero(a) == (a == ring.zero())


def random_matrix(ring, rng, rows, cols):
    elems = sample_elements(ring, rng, 6)
    return Matrix(ring, rows, cols, tuple(tuple(rng.choice(elems) for _ in range(cols)) for _ in range(rows)))


@pytest.mark.parametrize("ring", SIX_RINGS + (PrimeField(2), PrimeField(3)), ids=str)
def test_neg_and_is_zero_match_entrywise(ring):
    # the reference is the ring's own neg and equality with zero, entry by entry
    rng, zero = random.Random(7), ring.zero()
    cases = []
    for rows, cols in ((0, 3), (3, 0), (0, 0), (1, 1), (3, 4), (5, 2)):
        cases.append(Matrix.zeros(ring, rows, cols))
        cases += [random_matrix(ring, rng, rows, cols) for _ in range(4)]
        if rows and cols:
            single = [[zero] * cols for _ in range(rows)]
            single[rng.randrange(rows)][rng.randrange(cols)] = ring.one()
            cases.append(Matrix(ring, rows, cols, tuple(map(tuple, single))))
    for m in cases:
        neg = m.neg()
        assert (neg.rows, neg.cols) == (m.rows, m.cols)
        assert neg.entries == tuple(tuple(ring.neg(a) for a in row) for row in m.entries)
        assert m.is_zero() == all(a == zero for row in m.entries for a in row)
        assert m.sub(m).is_zero()
    assert any(m.is_zero() for m in cases) and not all(m.is_zero() for m in cases)


def snf_cokernel(m, d):
    """Cokernel presentation read off the Smith form by hand."""
    r = m.ring
    nonzero = [e for e in diag(d) if not r.is_zero(e)]
    return ElementaryDivisors(tuple(e for e in nonzero if not r.is_unit(e)), m.rows - len(nonzero))


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_snf_certificates_on_every_ring(ring):
    rng = random.Random(9)
    cases = [Matrix.zeros(ring, rows, cols) for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3), (1, 1))]
    cases += [random_matrix(ring, rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(12)]
    # sparse blocks drive the zero-skipping row and column operations
    elems = [e for e in sample_elements(ring, rng) if e]
    cases += [sparse_matrix(ring, rng, rng.randint(1, 8), rng.randint(1, 8), elems) for _ in range(12)]
    for m in cases:
        d, u, v = smith_normal_form(m)
        assert (d.rows, d.cols, u.rows, u.cols, v.rows, v.cols) == (m.rows, m.cols, m.rows, m.rows, m.cols, m.cols)
        assert u.mul(m).mul(v).entries == d.entries
        assert solve(u, Matrix.identity(ring, u.rows)) is not None
        assert solve(v, Matrix.identity(ring, v.rows)) is not None
        for i in range(d.rows):
            for j in range(d.cols):
                assert i == j or ring.is_zero(d.entries[i][j])
        ds = diag(d)
        for e in ds:
            assert ring.canonical_associate(e)[1] == e
        for a, b in zip(ds, ds[1:]):
            assert ring.divide(b, a) is not None if not ring.is_zero(a) else ring.is_zero(b)
        assert cokernel_presentation(m) == snf_cokernel(m, d)


# sha256 of every (d, u, v) that `smith_normal_form` gives on the inputs of
# test_smith_transforms_are_pinned: the pinned pivot rule fixes u and v, which
# reach kernel bases and reports, so a change to the worker must keep them
PINNED_SMITH = {
    "Z": "776282d6b4c970a395970514250fb317d96bc4c1d5d18a7233a13026d60cdc8c",
    "Q": "3d555329e09eac7992fd21d7ddd8006477d5bd5185e2c6821b3e01e1a68070d2",
    "Fp(5)": "2e6f3b26db8f3cdf12978268747594a0e93f313d21aabacea3def78121f9e635",
    "Zmod(12)": "97f6919c6b46699c9e4518d86b2769bdcc21a1532b28fd1d6f9627afaecd3cb8",
    "Zmod(30)": "e1c4410f5c2211b3f9b384abb269eec18bc4834cd0e288f4f21965083b6b7f25",
    "Zloc(3)": "2e7d85343019cc780a79907497b6a17c62059b483ebc79f39a6521b098b444a3",
    "FpX(3)": "3e4cb29deddf5db40c79a4fad42fb0f377df269d49de9a6c4ba7386897ec837b",
}


@pytest.mark.parametrize("ring", SIX_RINGS[:4] + (IntegersMod(30),) + SIX_RINGS[4:], ids=str)
def test_smith_transforms_are_pinned(ring):
    rng = random.Random(41)
    elems = [e for e in sample_elements(ring, rng) if e]
    digest = hashlib.sha256()
    for _ in range(150):
        m = sparse_matrix(ring, rng, rng.randint(1, 12), rng.randint(1, 12), elems, density=rng.uniform(0.1, 1.0))
        d, u, v = smith_normal_form(m)
        assert u.mul(m).mul(v).entries == d.entries
        digest.update(repr((d.entries, u.entries, v.entries)).encode())
    assert digest.hexdigest() == PINNED_SMITH[str(ring)]


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_empty_shapes_skip_elimination(ring):
    for rows, cols in ((0, 4), (4, 0), (0, 0)):
        m = Matrix.zeros(ring, rows, cols)
        d, u, v = smith_normal_form(m)
        assert d is m
        assert u.entries == Matrix.identity(ring, rows).entries
        assert v.entries == Matrix.identity(ring, cols).entries
        assert cokernel_presentation(m) == ElementaryDivisors((), rows)


def dense_rref(m):
    """Reduced row echelon form rebuilding whole rows, zeros included."""
    r = m.ring
    rows = [list(row) for row in m.entries]
    piv = []
    for c in range(m.cols):
        sel = next((i for i in range(len(piv), len(rows)) if not r.is_zero(rows[i][c])), None)
        if sel is None:
            continue
        rr = len(piv)
        rows[rr], rows[sel] = rows[sel], rows[rr]
        inv = r.inv(rows[rr][c])
        rows[rr] = [r.mul(inv, e) for e in rows[rr]]
        for i in range(len(rows)):
            if i != rr:
                f = rows[i][c]
                rows[i] = [r.sub(e, r.mul(f, pe)) for e, pe in zip(rows[i], rows[rr])]
        piv.append(c)
    return rows, piv


@pytest.mark.parametrize("ring", (Rationals(), PrimeField(5), PrimeField(2), IntegersMod(7)), ids=str)
def test_field_elimination_matches_dense_reference(ring):
    rng = random.Random(13)
    elems = [e for e in sample_elements(ring, rng) if e]
    zero, one = ring.zero(), ring.one()
    for k in range(41):
        # the last input, 40 x 40 at 10 % with a dense row, fills in
        rows, cols = (40, 40) if k == 40 else (rng.randint(1, 10), rng.randint(1, 10))
        m = sparse_matrix(ring, rng, rows, cols, elems)
        if k == 40 or rng.random() < 0.5:  # one dense row among the sparse ones
            entries = list(m.entries)
            entries[rng.randrange(rows)] = tuple(rng.choice(elems) for _ in range(cols))
            m = Matrix(ring, rows, cols, tuple(entries))
        ref, piv = dense_rref(m)
        assert rank(m) == len(piv)
        free = [c for c in range(cols) if c not in piv]
        kernel = [[one if i == f else zero for i in range(cols)] for f in free]
        for vec, f in zip(kernel, free):
            for i, p in enumerate(piv):
                vec[p] = ring.neg(ref[i][f])
        assert kernel_basis(m).entries == tuple(tuple(vec[i] for vec in kernel) for i in range(cols))
        b = sparse_matrix(ring, rng, rows, rng.randint(1, 3), elems, density=0.3)
        ref, piv = dense_rref(m.hstack(b))
        x = solve(m, b)
        if piv and piv[-1] >= cols:
            assert x is None
        else:
            want = [[zero] * b.cols for _ in range(cols)]
            for i, p in enumerate(piv):
                want[p] = ref[i][cols:]
            assert x.entries == tuple(map(tuple, want))


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_solve_kernel_reads_one_elimination(ring):
    rng = random.Random(17)
    elems = [e for e in sample_elements(ring, rng) if e]
    shapes = [(0, 0), (0, 4), (4, 0)] + [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(37)]
    for k, (rows, cols) in enumerate(shapes):
        a = (sparse_matrix(ring, rng, rows, cols, elems, density=0.3) if k % 2
             else random_matrix(ring, rng, rows, cols))
        b = a.mul(random_matrix(ring, rng, cols, rng.randint(0, 3)))
        x, kernel = solve_kernel(a, b)
        assert a.mul(x).entries == b.entries
        assert kernel.rows == a.cols
        assert a.mul(kernel).is_zero()
        if ring.is_domain:
            assert kernel.cols == a.cols - rank(a)
        assert x.entries == solve(a, b).entries
        assert kernel.entries == kernel_basis(a).entries


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_solve_kernel_at_the_edges(ring):
    # no rows, no columns, and b with no columns, against the definition
    rng = random.Random(23)
    elems = [e for e in sample_elements(ring, rng) if e]
    for rows, cols in ((0, 0), (0, 5), (5, 0), (3, 4), (4, 3)):
        a = random_matrix(ring, rng, rows, cols)
        for bcols in (0, 2):
            b = a.mul(random_matrix(ring, rng, cols, bcols))
            x, kernel = solve_kernel(a, b)
            assert (x.rows, x.cols) == (cols, bcols) and a.mul(x).entries == b.entries
            assert kernel.rows == cols and a.mul(kernel).is_zero()
            if ring.is_domain:
                assert rank(a) + kernel.cols == cols
    # with no columns, a x = b is solvable only for b = 0
    assert solve(Matrix.zeros(ring, 4, 0), sparse_matrix(ring, rng, 4, 2, elems, density=1.0)) is None


@pytest.mark.parametrize("ring", (PrimeField(2), PrimeField(5), Rationals()), ids=str)
def test_field_solve_kernel_at_scale(ring):
    # 1 %-dense 300 x 300 inputs: kernel and solution within a stated 2 s;
    # the dense row reduction took over a second for each of them over Q
    rng = random.Random(37)
    elems = [e for e in sample_elements(ring, rng) if e]
    for _ in range(2):
        a = sparse_matrix(ring, rng, 300, 300, elems, density=0.01)
        b = a.mul(sparse_matrix(ring, rng, 300, 2, elems, density=0.3))
        start = time.perf_counter()
        kernel = kernel_basis(a)
        x = solve(a, b)
        assert time.perf_counter() - start < 2
        assert rank(a) + kernel.cols == a.cols
        assert a.mul(kernel).is_zero()
        assert a.mul(x).entries == b.entries


def test_zeros_share_one_row():
    tracemalloc.start()
    try:
        m = Matrix.zeros(PrimeField(2), 1000, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (m.rows, m.cols, len(m.entries)) == (1000, 1000, 1000) and m.is_zero()


def unitriangular(ring, rng, n, lower):
    """Determinant one on every ring, so a product of two is unimodular."""
    elems = sample_elements(ring, rng, 6)
    return Matrix(ring, n, n, tuple(
        tuple(ring.one() if i == j else rng.choice(elems) if (i > j) == lower else ring.zero() for j in range(n))
        for i in range(n)))


# (units, non-units) per ring.  No entry of a matrix over the non-units is a
# unit.  Z/12's other units 5, 7 and 11 (MORE_UNITS) are drawn after every
# other input, at 8 x 8 and at 100 x 100, so the draws before them stay put.
UNITS_AND_NON_UNITS = {
    "Z": ([1, -1], [2, -4, 6]),
    "Q": ([1, -1, Fraction(2, 3), 5], []),
    "Fp(5)": ([1, 2, 3, 4], []),
    "Zmod(12)": ([1], [2, 3, 4, 6]),
    "Zloc(3)": ([1, -1, 2, Fraction(1, 2)], [3, -6, Fraction(9, 2)]),
    "FpX(3)": ([(1,), (2,)], [(0, 1), (1, 1), (0, 2)]),
}
MORE_UNITS = {"Zmod(12)": [5, 7, 11]}


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_diagonal_only_mode_matches_smith_diagonal(ring, monkeypatch):
    rng = random.Random(19)
    elems = [e for e in sample_elements(ring, rng) if e]
    cases = [Matrix.zeros(ring, rows, cols) for rows, cols in ((0, 0), (0, 5), (5, 0), (3, 4), (4, 4))]
    for n in (1, 3, 5):  # all units on the diagonal
        cases.append(unitriangular(ring, rng, n, True).mul(unitriangular(ring, rng, n, False)))
    for k in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(sparse_matrix(ring, rng, rows, cols, elems, density=0.3) if k % 2
                     else random_matrix(ring, rng, rows, cols))
    # unit-heavy inputs, inputs with no unit entry, and sparse 100 x 100 ones
    # at 2 % density
    unit_elems, non_unit_elems = ([ring.canon(e) for e in es] for es in UNITS_AND_NON_UNITS[str(ring)])
    mixed = unit_elems * 3 + non_unit_elems
    unit_heavy = [sparse_matrix(ring, rng, rng.randint(2, 8), rng.randint(2, 8), mixed, density=0.6)
                  for _ in range(10)]
    no_unit = [sparse_matrix(ring, rng, rng.randint(1, 6), rng.randint(1, 6), non_unit_elems, density=0.6)
               for _ in range(10) if non_unit_elems]
    cases += unit_heavy + no_unit
    big = [sparse_matrix(ring, rng, 100, 100, mixed, density=0.02) for _ in range(2)]
    more = [ring.canon(e) for e in MORE_UNITS.get(str(ring), ())]
    cases += big + [sparse_matrix(ring, rng, 8, 8, more + non_unit_elems, density=0.4)
                    for _ in range(6) if more]
    # every unit of Z/12 with the non-units 2, 4, 6, 10 at 100 x 100: these
    # hung while Z/n was eliminated on its integer lift, where only 1 and -1
    # are units
    big_more = [sparse_matrix(ring, rng, 100, 100, unit_elems + more + [2, 4, 6, 10], density=0.02)
                for _ in range(2) if more]
    cases += big_more
    if big_more:
        assert_certificate(big_more[0])
    pivots = {}  # id of an input -> unit pivots the sparse pass took on it
    real = linalg._unit_pivots

    def counted(m):
        k, rest = real(m)
        pivots[current] = k
        return k, rest

    monkeypatch.setattr(linalg, "_unit_pivots", counted)
    units = 0
    for m in cases:
        current = id(m)
        d = _diagonal(m)
        assert d == diagonal_of(smith_normal_form(m)[0])
        units += bool(d) and all(ring.is_unit(e) for e in d)
    assert units >= 3
    if ring.is_field:
        assert not pivots  # fields keep the row reduction
    else:
        assert all(pivots[id(m)] for m in unit_heavy[:3] + big + big_more)
        assert no_unit and not any(pivots[id(m)] for m in no_unit)


def test_unit_pivots_leave_nothing_or_no_unit():
    ones = Matrix.identity(Z, 4)
    assert linalg._unit_pivots(ones) == (4, None)
    evens = Matrix.from_rows(Z, [[2, 4], [6, 0]])
    assert linalg._unit_pivots(evens) == (0, evens)
    k, rest = linalg._unit_pivots(Matrix.from_rows(Z, [[1, 2, 0], [3, 4, 0], [0, 0, 0]]))
    # clearing the unit's column leaves [4 - 6] = [-2]; zero rows and
    # columns are dropped from the rest
    assert (k, rest) == (1, Matrix.from_rows(Z, [[-2]]))


@pytest.mark.parametrize("ring", (Z, PolyOverPrimeField(3)), ids=str)
def test_diagonal_matches_sympy_invariant_factors(ring):
    # an independent oracle: sympy's invariant factors over ZZ, and over
    # GF(3)[x] made monic
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    if ring == Z:
        dom = sympy.ZZ

        def to_sympy(e):
            return dom(e)

        def from_sympy(f):
            return abs(int(f))
    else:
        dom = sympy.GF(ring.p)[sympy.Symbol("x")]
        x = dom.gens[0]

        def to_sympy(e):
            return sum((c * x ** k for k, c in enumerate(e)), dom.zero)

        def from_sympy(f):
            if not f:
                return ()
            terms = dict(f.monic().terms())
            return tuple(int(terms.get((k,), 0)) % ring.p for k in range(f.degree() + 1))

    rng = random.Random(31)
    elems = [e for e in sample_elements(ring, rng) if e]
    for _ in range(30):
        m = sparse_matrix(ring, rng, rng.randint(1, 8), rng.randint(1, 8), elems, density=rng.choice((0.2, 0.4)))
        dm = DomainMatrix([[to_sympy(e) for e in row] for row in m.entries], (m.rows, m.cols), dom)
        assert _diagonal(m) == [from_sympy(f) for f in invariant_factors(dm)]


@pytest.mark.parametrize("n", (4, 6, 12, 18, 30, 36))
def test_zmod_cokernel_matches_sympy_over_the_integers(n):
    # an independent oracle: over Z/n, coker(a) is the cokernel over Z of
    # [a | n*I], whose invariant factors all divide n; those strictly between
    # 1 and n are the divisors, and each one equal to n is a free Z/n summand
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    ring = IntegersMod(n)
    rng = random.Random(n)
    # every nonzero residue, or the non-units only, whose cokernels have torsion
    pools = (list(range(1, n)), [e for e in range(2, n) if not ring.is_unit(e)])
    for k in range(30):
        rows, cols = rng.randint(1, 7), rng.randint(0, 7)
        m = sparse_matrix(ring, rng, rows, cols, pools[k % 2], density=rng.choice((0.3, 0.6)))
        stacked = [[sympy.ZZ(e) for e in row] + [sympy.ZZ(n if i == j else 0) for j in range(rows)]
                   for i, row in enumerate(m.entries)]
        factors = [abs(int(f)) for f in invariant_factors(DomainMatrix(stacked, (rows, cols + rows), sympy.ZZ))]
        want = ElementaryDivisors(tuple(f for f in factors if 1 < f < n), factors.count(n))
        assert cokernel_presentation(m) == want


@pytest.mark.parametrize("ring", (Z, PolyOverPrimeField(3)), ids=str)
def test_diagonal_only_mode_builds_no_transform(ring, monkeypatch):
    rng = random.Random(23)
    cases = [random_matrix(ring, rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(10)]
    want = [diagonal_of(smith_normal_form(m)[0]) for m in cases]

    def refuse(ring, n):
        raise AssertionError("the diagonal-only mode built a transform")

    monkeypatch.setattr(Matrix, "identity", staticmethod(refuse))
    assert [_diagonal(m) for m in cases] == want
    assert [rank(m) for m in cases] == [sum(not ring.is_zero(e) for e in d) for d in want]


# --- block assembly ---------------------------------------------------------------


def entrywise_blocks(ring, grid, row_dims, col_dims):
    """Entries of the block matrix, written one entry at a time."""
    out = [[ring.zero()] * sum(col_dims) for _ in range(sum(row_dims))]
    for bi, brow in enumerate(grid):
        for bj, blk in enumerate(brow):
            if blk is None:
                continue
            for i in range(row_dims[bi]):
                for j in range(col_dims[bj]):
                    out[sum(row_dims[:bi]) + i][sum(col_dims[:bj]) + j] = blk.entries[i][j]
    return tuple(map(tuple, out))


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_blocks_and_direct_sum_match_entrywise_assembly(ring):
    rng = random.Random(17)
    for _ in range(40):
        # dims include 0, so 0 x n and n x 0 blocks occur, and grids of one row or column
        row_dims = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 3))]
        col_dims = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 3))]
        grid = [[None if rng.random() < 0.3 else random_matrix(ring, rng, rd, cd) for cd in col_dims]
                for rd in row_dims]
        got = Matrix.blocks(ring, grid, row_dims, col_dims)
        assert (got.rows, got.cols) == (sum(row_dims), sum(col_dims))
        assert got.entries == entrywise_blocks(ring, grid, row_dims, col_dims)
        mats = [random_matrix(ring, rng, rng.choice((0, 1, 2, 3)), rng.choice((0, 1, 2, 3)))
                for _ in range(rng.randint(1, 4))]
        diagonal = [[m if i == j else None for j in range(len(mats))] for i, m in enumerate(mats)]
        got = Matrix.direct_sum(ring, mats)
        assert (got.rows, got.cols) == (sum(m.rows for m in mats), sum(m.cols for m in mats))
        assert got.entries == entrywise_blocks(ring, diagonal, [m.rows for m in mats], [m.cols for m in mats])
    empty = Matrix.direct_sum(ring, [])
    assert (empty.rows, empty.cols, empty.entries) == (0, 0, ())
    # no block rows, or no block columns
    assert Matrix.blocks(ring, [], [], [2, 1]) == Matrix.zeros(ring, 0, 3)
    assert Matrix.blocks(ring, [[], []], [2, 1], []) == Matrix.zeros(ring, 3, 0)


def entrywise_kron(a, b):
    """Kronecker product, entry (i, j) as a[i // b.rows][j // b.cols] * b[i % b.rows][j % b.cols]."""
    r = a.ring
    return tuple(tuple(r.mul(a.entries[i // b.rows][j // b.cols], b.entries[i % b.rows][j % b.cols])
                       for j in range(a.cols * b.cols)) for i in range(a.rows * b.rows))


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_kron_matches_entrywise_product(ring):
    # kron copies a row for an entry 1 and multiplies only for the others,
    # so units other than 1 (-1, and 2 where it is a unit) must multiply
    rng = random.Random(29)
    one = ring.one()
    units = [u for u in (ring.neg(one), ring.from_int(2)) if u != one and ring.is_unit(u)]
    assert units
    elems = sample_elements(ring, rng) + units * 3
    mats = [Matrix.identity(ring, n) for n in (0, 1, 3)]
    mats += [Matrix(ring, rows, cols, tuple(tuple(rng.choice(elems) for _ in range(cols)) for _ in range(rows)))
             for rows, cols in ((0, 2), (2, 0), (1, 1), (2, 3), (3, 2), (3, 3))]
    mats.append(Matrix.from_entries(ring, 2, 2, {(0, 0): units[0], (1, 1): one}))
    for a in mats:
        for b in mats:
            got = a.kron(b)
            assert (got.rows, got.cols) == (a.rows * b.rows, a.cols * b.cols)
            assert got.entries == entrywise_kron(a, b), (a, b)


def test_blocks_refuse_wrong_shapes_and_mixed_rings():
    two = Matrix.identity(Z, 2)
    with pytest.raises(ShapeMismatch):
        Matrix.blocks(Z, [[two, None]], [2], [3, 1])
    with pytest.raises(ShapeMismatch):
        Matrix.blocks(Z, [[two], [None]], [2], [2])
    with pytest.raises(ShapeMismatch):
        Matrix.blocks(Z, [[two, None]], [2], [2])
    q = Rationals()
    with pytest.raises(RingMismatch):
        Matrix.blocks(Z, [[two, Matrix.identity(q, 2)]], [2], [2, 2])
    with pytest.raises(RingMismatch):
        Matrix.direct_sum(Z, [two, Matrix.identity(q, 1)])


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_from_entries_and_select_rows(ring):
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        assert Matrix.from_entries(ring, rows, cols, {}) == Matrix.zeros(ring, rows, cols)
    one = ring.one()
    m = Matrix.from_entries(ring, 3, 2, {(0, 1): one, (2, 0): ring.neg(one)})
    assert m.entries == ((ring.zero(), one), (ring.zero(), ring.zero()), (ring.neg(one), ring.zero()))
    assert m.select_rows([2, 0]).entries == (m.entries[2], m.entries[0])
    assert m.select_rows([]) == Matrix.zeros(ring, 0, 2)


# --- shared values ---------------------------------------------------------------


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_zeros_and_identity_are_one_object_per_ring_instance(ring):
    twin = parse_ring(ring.label)
    assert twin == ring and twin is not ring
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        z, t = Matrix.zeros(ring, rows, cols), Matrix.zeros(twin, rows, cols)
        assert Matrix.zeros(ring, rows, cols) is z and z.ring is ring
        assert Matrix.zeros(twin, rows, cols) is t and t.ring is twin
        assert t is not z and t == z
    for n in (0, 1, 3):
        e, t = Matrix.identity(ring, n), Matrix.identity(twin, n)
        assert Matrix.identity(ring, n) is e and e.ring is ring
        assert Matrix.identity(twin, n) is t and t.ring is twin
        assert t is not e and t == e
    assert Matrix.zeros(ring, 2, 3) is not Matrix.zeros(ring, 3, 2)


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_empty_results_are_the_shared_zeros(ring):
    def zero(rows, cols):
        return Matrix.zeros(ring, rows, cols)

    a = random_matrix(ring, random.Random(41), 2, 3)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        assert Matrix.from_entries(ring, rows, cols, {}) is zero(rows, cols)
    assert Matrix.blocks(ring, [], [], [2, 1]) is zero(0, 3)
    assert Matrix.blocks(ring, [[], []], [2, 1], []) is zero(3, 0)
    assert Matrix.blocks(ring, [[None, zero(0, 3)]], [0], [2, 3]) is zero(0, 5)
    assert Matrix.blocks(ring, [[zero(2, 0)], [None]], [2, 1], [0]) is zero(3, 0)
    assert Matrix.blocks(ring, [[a.select_columns([]), None]], [2], [0, 0]) is zero(2, 0)
    assert Matrix.direct_sum(ring, []) is zero(0, 0)
    assert Matrix.direct_sum(ring, [zero(2, 0), a.select_columns([])]) is zero(4, 0)
    assert Matrix.direct_sum(ring, [zero(0, 2), a.select_rows([])]) is zero(0, 5)
    # empty factors built apart from the shared ones, on either side
    for b in (zero(0, 2), zero(2, 0), zero(0, 0), a.select_rows([]), a.select_columns([])):
        assert a.kron(b) is zero(2 * b.rows, 3 * b.cols)
        assert b.kron(a) is zero(b.rows * 2, b.cols * 3)


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_empty_blocks_of_the_wrong_ring_or_shape_are_refused(ring):
    other = next(r for r in SIX_RINGS if r != ring)
    for blk, rd, cd in ((Matrix.zeros(other, 0, 2), 0, 2), (Matrix.zeros(other, 2, 0), 2, 0)):
        with pytest.raises(RingMismatch):
            Matrix.blocks(ring, [[blk]], [rd], [cd])
        with pytest.raises(RingMismatch):
            Matrix.direct_sum(ring, [Matrix.zeros(ring, 1, 0), blk])
        with pytest.raises(RingMismatch):
            Matrix.identity(ring, 2).kron(blk)
        with pytest.raises(RingMismatch):
            blk.kron(Matrix.identity(ring, 2))
    with pytest.raises(RingMismatch):
        Matrix.direct_sum(ring, [Matrix.zeros(other, 0, 0)])
    with pytest.raises(ShapeMismatch):
        Matrix.blocks(ring, [[Matrix.zeros(ring, 0, 3)]], [0], [2])
    with pytest.raises(ShapeMismatch):
        Matrix.blocks(ring, [[Matrix.zeros(ring, 2, 0)]], [1], [0])
    with pytest.raises(ShapeMismatch):
        Matrix.blocks(ring, [[None, None]], [2], [0])


@pytest.mark.parametrize("ring", SIX_RINGS, ids=str)
def test_matrix_compares_and_hashes_by_value(ring):
    one, zero = ring.one(), ring.zero()
    a = Matrix(ring, 2, 2, ((one, zero), (zero, one)))
    b = Matrix.identity(parse_ring(ring.label), 2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, Matrix.identity(ring, 2)}) == 1
    assert a != Matrix.zeros(ring, 2, 2) and Matrix.zeros(ring, 0, 2) != Matrix.zeros(ring, 2, 0)
    other = next(r for r in SIX_RINGS if r != ring)
    assert Matrix.zeros(ring, 1, 1) != Matrix.zeros(other, 1, 1)
    assert a != (ring, 2, 2, a.entries) and a != a.entries
    assert repr(a) == f"Matrix(ring={ring!r}, rows=2, cols=2, entries={a.entries!r})"


@pytest.mark.parametrize("n", (12, 30))
def test_zmod_kernel_columns_generate_the_kernel(n):
    # over Z/n the kernel is not free: a nonzero diagonal entry d adds the
    # column of v times n / gcd(d, n).  The columns must lie in the kernel,
    # and their Z/n-span, grown by adding columns, must hold every kernel
    # vector found by brute force over (Z/n)^cols.
    ring = IntegersMod(n)
    rng = random.Random(f"zmod-kernel:{n}")
    elems = [0, 0, 1, 2, 3, 4, 5, 6, n // 2, n - 2]
    mats = [mat(ring, [[2]]), mat(ring, [[n // 2, 0]]), mat(ring, [[2, 3], [4, 6]]), Matrix.zeros(ring, 2, 3)]
    mats += [mat(ring, [[rng.choice(elems) for _ in range(cols)] for _ in range(rows)])
             for rows in (1, 2, 3) for cols in (1, 2, 3)]
    for m in mats:
        k = kernel_basis(m)
        assert k.rows == m.cols and m.mul(k).is_zero(), m
        gens = list(zip(*k.entries))
        span, frontier = {(0,) * m.cols}, [(0,) * m.cols]
        while frontier:
            grown = {tuple((x + y) % n for x, y in zip(s, g)) for s in frontier for g in gens} - span
            span |= grown
            frontier = list(grown)
        kernel = {y for y in itertools.product(range(n), repeat=m.cols)
                  if all(sum(a * b for a, b in zip(row, y)) % n == 0 for row in m.entries)}
        assert kernel == span, m
