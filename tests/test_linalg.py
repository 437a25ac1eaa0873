"""Exact normal forms: certificates are multiplied out, never trusted."""

import random
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
    rank,
    smith_normal_form,
    solve,
)
from quivertt.linalg import ElementaryDivisors

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
def test_snf_mod_n_by_lift(n):
    from quivertt import IntegersMod

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
    for _ in range(40):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = sparse_matrix(ring, rng, rows, cols, elems)
        if rng.random() < 0.5:  # one dense row among the sparse ones
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
