"""Exact matrices and Smith normal form over the supported ring tier.

Matrices are immutable and carry their ring; all arithmetic goes through the
ring object, so the same code runs over Z, fields, p-local integers and
F_p[x].  Z/n never enters the Euclidean loop: its Smith form is computed on an
integer lift and reduced, which stays a certificate because reduction is a
ring map and the transforms have determinant +-1.

Work follows the nonzeros.  `Matrix.mul` is one sparse row-accumulation
kernel for every ring: each row of the left factor adds a*b only for its
nonzero a and the nonzero b of the matching right row, and the Smith form's
row and column operations skip zero source entries.  Every field, F_2
included, shares one row reduction, which updates a row only where the pivot
row is nonzero.  Skipping is exact, since x + c*0 = x and zero is the only
falsy canonical element.  Integer rings skip the dispatch: when
`ring.modulus_int` is set (0 for Z, p for Fp, n for Z/n) the product runs on
plain ints and reduces once at the end for a nonzero modulus, and the Smith
form's operations over Z call no ring method.  F_2 products (not elimination)
still pack rows into ints and xor them.  An empty matrix (no rows or no
columns) is already in Smith form with identity transforms, and its cokernel
is free on its rows; neither runs elimination.

The pivot rule is pinned for reproducibility: among nonzero candidates take
the one of smallest norm (absolute value over Z, degree over F_p[x],
valuation over the p-locals), ties broken by lowest row then lowest column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import RingMismatch, ShapeMismatch


@dataclass(frozen=True)
class Matrix:
    ring: object
    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(ring, data) -> "Matrix":
        data = [[ring.canon(e) for e in row] for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ShapeMismatch("ragged rows")
        return Matrix(ring, rows, cols, tuple(tuple(row) for row in data))

    @staticmethod
    def zeros(ring, rows: int, cols: int) -> "Matrix":
        z = ring.zero()
        return Matrix(ring, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity(ring, n: int) -> "Matrix":
        z, o = ring.zero(), ring.one()
        return Matrix(ring, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"mixed rings {self.ring.label} and {other.ring.label}")

    def add(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        r = self.ring
        return Matrix(r, self.rows, self.cols, tuple(
            tuple(r.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.neg())

    def neg(self) -> "Matrix":
        r = self.ring
        return Matrix(r, self.rows, self.cols, tuple(tuple(r.neg(a) for a in row) for row in self.entries))

    def scale(self, c) -> "Matrix":
        r = self.ring
        c = r.canon(c)
        return Matrix(r, self.rows, self.cols, tuple(tuple(r.mul(c, a) for a in row) for row in self.entries))

    def mul(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        r = self.ring
        mod = r.modulus_int
        if mod == 2:
            # row-xor over packed rows; one int op per nonzero of self
            brows = []
            for k in range(other.rows):
                acc = 0
                row = other.entries[k]
                for j in range(other.cols):
                    if row[j]:
                        acc |= 1 << j
                brows.append(acc)
            out = []
            for i in range(self.rows):
                acc = 0
                arow = self.entries[i]
                for k in range(self.cols):
                    if arow[k]:
                        acc ^= brows[k]
                out.append(tuple((acc >> j) & 1 for j in range(other.cols)))
            return Matrix(r, self.rows, other.cols, tuple(out))
        # sparse row accumulation over the nonzeros of other's rows, indexed once
        add, mul = (operator.add, operator.mul) if mod is not None else (r.add, r.mul)
        brows = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        z = r.zero()
        out = []
        for arow in self.entries:
            acc = [z] * other.cols
            for a, brow in zip(arow, brows):
                if a:
                    for j, b in brow:
                        acc[j] = add(acc[j], mul(a, b))
            out.append(tuple(x % mod for x in acc) if mod else tuple(acc))
        return Matrix(r, self.rows, other.cols, tuple(out))

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return Matrix(self.ring, self.rows, self.cols + other.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.cols:
            raise ShapeMismatch("vstack col mismatch")
        return Matrix(self.ring, self.rows + other.rows, self.cols, self.entries + other.entries)

    def direct_sum(self, other: "Matrix") -> "Matrix":
        self._check(other)
        top = self.hstack(Matrix.zeros(self.ring, self.rows, other.cols))
        bot = Matrix.zeros(self.ring, other.rows, self.cols).hstack(other)
        return top.vstack(bot)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i, j) is self[i][j] * other."""
        self._check(other)
        r = self.ring
        rows, cols = self.rows * other.rows, self.cols * other.cols
        out = [[r.zero()] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i][j]
                if r.is_zero(a):
                    continue
                for s in range(other.rows):
                    for t in range(other.cols):
                        out[i * other.rows + s][j * other.cols + t] = r.mul(a, other.entries[s][t])
        return Matrix(r, rows, cols, tuple(tuple(row) for row in out))

    def column(self, j: int) -> "Matrix":
        return Matrix(self.ring, self.rows, 1, tuple((row[j],) for row in self.entries))

    def select_columns(self, idxs) -> "Matrix":
        return Matrix(self.ring, self.rows, len(idxs), tuple(tuple(row[j] for j in idxs) for row in self.entries))

    def map_entries(self, fn, ring=None) -> "Matrix":
        r = ring if ring is not None else self.ring
        return Matrix(r, self.rows, self.cols, tuple(tuple(r.canon(fn(e)) for e in row) for row in self.entries))

    def is_zero(self) -> bool:
        r = self.ring
        return all(r.is_zero(e) for row in self.entries for e in row)

    def __str__(self):
        f = self.ring.format_elem
        return "[" + "; ".join(" ".join(f(e) for e in row) for row in self.entries) + "]"


@dataclass(frozen=True)
class ElementaryDivisors:
    """Invariant factors of a cokernel: d_1 | d_2 | ... plus a free rank."""

    divisors: tuple
    free_rank: int

    @property
    def is_zero(self) -> bool:
        return not self.divisors and self.free_rank == 0


# ---------------------------------------------------------------------------
# Smith normal form


class _Worker:
    """Mutable elimination state: a with accumulated row (u) and col (v) ops."""

    def __init__(self, m: Matrix):
        self.ring = m.ring
        plain = m.ring.modulus_int == 0  # Z: plain int arithmetic
        self.add, self.mul = (operator.add, operator.mul) if plain else (m.ring.add, m.ring.mul)
        self.a = [list(row) for row in m.entries]
        self.rows, self.cols = m.rows, m.cols
        eye_r = Matrix.identity(m.ring, m.rows)
        eye_c = Matrix.identity(m.ring, m.cols)
        self.u = [list(row) for row in eye_r.entries]
        self.v = [list(row) for row in eye_c.entries]

    def swap_rows(self, i, j):
        if i != j:
            self.a[i], self.a[j] = self.a[j], self.a[i]
            self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i, j):
        if i != j:
            for row in self.a:
                row[i], row[j] = row[j], row[i]
            for row in self.v:
                row[i], row[j] = row[j], row[i]

    def addmul_row(self, i, j, c):
        """row_i += c * row_j"""
        if not c:
            return
        add, mul = self.add, self.mul
        for m in (self.a, self.u):
            m[i] = [add(x, mul(c, y)) if y else x for x, y in zip(m[i], m[j])]

    def addmul_col(self, i, j, c):
        """col_i += c * col_j"""
        if not c:
            return
        add, mul = self.add, self.mul
        for rows in (self.a, self.v):
            for row in rows:
                y = row[j]
                if y:
                    row[i] = add(row[i], mul(c, y))

    def scale_row(self, i, w):
        r = self.ring
        self.a[i] = [r.mul(w, x) for x in self.a[i]]
        self.u[i] = [r.mul(w, x) for x in self.u[i]]


def _pivot(w: _Worker, t: int):
    r = w.ring
    best = None
    for i in range(t, w.rows):
        for j in range(t, w.cols):
            e = w.a[i][j]
            if r.is_zero(e):
                continue
            n = r.norm(e)
            if best is None or n < best[0]:
                best = (n, i, j)
    return best


def smith_normal_form(m: Matrix):
    """(d, u, v) with u*m*v = d diagonal, d_i | d_{i+1}, u and v invertible.

    Diagonal entries are canonical associates (positive integers, monic
    polynomials, p-powers, gcd-with-n residues).  Deterministic for fixed
    input: the pivot rule is pinned.
    """
    r = m.ring
    if not m.rows or not m.cols:
        return m, Matrix.identity(r, m.rows), Matrix.identity(r, m.cols)
    if r.needs_lift:
        return _smith_via_lift(m)
    w = _Worker(m)
    t = 0
    while True:
        best = _pivot(w, t)
        if best is None:
            break
        _, pi, pj = best
        w.swap_rows(t, pi)
        w.swap_cols(t, pj)
        while True:
            # clear the pivot column; a nonzero remainder becomes the new,
            # strictly smaller pivot
            dirty = False
            for i in range(w.rows):
                if i == t or r.is_zero(w.a[i][t]):
                    continue
                q, rem = r.divmod_(w.a[i][t], w.a[t][t])
                w.addmul_row(i, t, r.neg(q))
                if not r.is_zero(rem):
                    w.swap_rows(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(w.cols):
                if j == t or r.is_zero(w.a[t][j]):
                    continue
                q, rem = r.divmod_(w.a[t][j], w.a[t][t])
                w.addmul_col(j, t, r.neg(q))
                if not r.is_zero(rem):
                    w.swap_cols(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            if any(not r.is_zero(w.a[i][t]) for i in range(w.rows) if i != t):
                continue
            # pivot must divide the rest of the block for the divisor chain
            offender = None
            for i in range(t + 1, w.rows):
                for j in range(t + 1, w.cols):
                    if not r.is_zero(w.a[i][j]) and r.divide(w.a[i][j], w.a[t][t]) is None:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w.addmul_row(t, offender, r.one())
        t += 1
        if t >= min(w.rows, w.cols):
            break
    for k in range(min(w.rows, w.cols)):
        unit, canon = r.canonical_associate(w.a[k][k])
        if not r.is_zero(w.a[k][k]) and canon != w.a[k][k]:
            w.scale_row(k, unit)
    d = Matrix(r, w.rows, w.cols, tuple(tuple(row) for row in w.a))
    u = Matrix(r, w.rows, w.rows, tuple(tuple(row) for row in w.u))
    v = Matrix(r, w.cols, w.cols, tuple(tuple(row) for row in w.v))
    return d, u, v


def _smith_via_lift(m: Matrix):
    r = m.ring
    lifted = m.map_entries(r.lift_elem, r.lift_ring())
    d0, u0, v0 = smith_normal_form(lifted)
    d = d0.map_entries(r.reduce_elem, r)
    u = u0.map_entries(r.reduce_elem, r)
    v = v0.map_entries(r.reduce_elem, r)
    # reduction keeps u*m*v = d and unit determinants; rescale the diagonal
    # to canonical associates mod n
    w = _Worker(d)
    w.u = [list(row) for row in u.entries]
    for k in range(min(d.rows, d.cols)):
        unit, canon = r.canonical_associate(w.a[k][k])
        if canon != w.a[k][k]:
            w.scale_row(k, unit)
    d = Matrix(r, d.rows, d.cols, tuple(tuple(row) for row in w.a))
    u = Matrix(r, d.rows, d.rows, tuple(tuple(row) for row in w.u))
    return d, u, v


def diagonal_of(d: Matrix) -> list:
    return [d.entries[k][k] for k in range(min(d.rows, d.cols))]


# ---------------------------------------------------------------------------
# elimination over fields
#
# Smith normal form with its pivot scans is overkill when the ring is a
# field: kernel, solve, and rank only need row reduction.  Every field, F_2
# included, runs this one reduction, which updates a row only where the pivot
# row is nonzero; only F_2 products (`Matrix.mul`) still pack rows into ints.


def _rref_field(m: Matrix):
    r = m.ring
    rows = [list(row) for row in m.entries]
    piv = []
    rr = 0
    for c in range(m.cols):
        sel = next((i for i in range(rr, len(rows)) if not r.is_zero(rows[i][c])), None)
        if sel is None:
            continue
        rows[rr], rows[sel] = rows[sel], rows[rr]
        inv = r.inv(rows[rr][c])
        if not r.is_zero(r.sub(inv, r.one())):
            rows[rr] = [r.mul(inv, e) for e in rows[rr]]
        nz = [(j, pe) for j, pe in enumerate(rows[rr]) if not r.is_zero(pe)]
        for i, row in enumerate(rows):
            if i != rr and not r.is_zero(row[c]):
                f = row[c]
                for j, pe in nz:
                    row[j] = r.sub(row[j], r.mul(f, pe))
        piv.append(c)
        rr += 1
    return rows, piv


def rank(m: Matrix) -> int:
    r = m.ring
    if r.is_field:
        return len(_rref_field(m)[1])
    d, _, _ = smith_normal_form(m)
    return sum(1 for e in diagonal_of(d) if not r.is_zero(e))


def _kernel_field(m: Matrix) -> Matrix:
    r = m.ring
    rows, piv = _rref_field(m)
    free = [c for c in range(m.cols) if c not in set(piv)]
    cols = []
    for f in free:
        vec = [r.zero()] * m.cols
        vec[f] = r.one()
        for i, p in enumerate(piv):
            vec[p] = r.neg(rows[i][f])
        cols.append(vec)
    return Matrix(r, m.cols, len(cols), tuple(tuple(c[i] for c in cols) for i in range(m.cols)))


def _solve_field(a: Matrix, b: Matrix):
    r = a.ring
    aug = a.hstack(b)
    rows, piv = _rref_field(aug)
    if piv and piv[-1] >= a.cols:
        return None
    out = [[r.zero()] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(piv):
        for j in range(b.cols):
            out[p][j] = rows[i][a.cols + j]
    return Matrix(r, a.cols, b.cols, tuple(tuple(row) for row in out))


def cokernel_presentation(m: Matrix) -> ElementaryDivisors:
    """Invariant factors of coker(m) = R^rows / (column span of m).

    Unit divisors are dropped; zero diagonal entries and missing rows count
    toward the free rank.  Over Z/n a diagonal entry that reduces to zero is
    free of rank one, since (Z/n)/(0) = Z/n.
    """
    r = m.ring
    if not m.rows or not m.cols:
        return ElementaryDivisors((), m.rows)
    if r.is_field:
        return ElementaryDivisors((), m.rows - rank(m))
    d, _, _ = smith_normal_form(m)
    divisors = []
    nonzero = 0
    for e in diagonal_of(d):
        if r.is_zero(e):
            continue
        nonzero += 1
        if not r.is_unit(e):
            divisors.append(e)
    return ElementaryDivisors(tuple(divisors), m.rows - nonzero)


def kernel_basis(m: Matrix) -> Matrix:
    """Columns generating {x : m x = 0}.

    Over a domain this is a basis (columns of the invertible v); over Z/n the
    diagonal entries contribute annihilator multiples and the columns are only
    a generating set.
    """
    r = m.ring
    if r.is_field:
        return _kernel_field(m)
    d, _, v = smith_normal_form(m)
    diag = diagonal_of(d)
    gens = []
    for j in range(m.cols):
        if j >= len(diag) or r.is_zero(diag[j]):
            gens.append(v.column(j))
        else:
            ann = annihilator_gen(r, diag[j])
            if not r.is_zero(ann):
                gens.append(v.column(j).scale(ann))
    if not gens:
        return Matrix.zeros(r, m.cols, 0)
    out = gens[0]
    for g in gens[1:]:
        out = out.hstack(g)
    return out


def annihilator_gen(ring, a):
    """Generator of the annihilator ideal of a."""
    if ring.is_zero(a):
        return ring.one()
    if ring.is_domain:
        return ring.zero()
    # Z/n: ann(a) = (n / gcd(a, n))
    return (ring.n // gcd(a, ring.n)) % ring.n


def solve(a: Matrix, b: Matrix):
    """Some x with a x = b, or None.  b may have several columns."""
    if a.rows != b.rows:
        raise ShapeMismatch("solve shape mismatch")
    r = a.ring
    if r.is_field:
        return _solve_field(a, b)
    d, u, v = smith_normal_form(a)
    rhs = u.mul(b)
    diag = diagonal_of(d)
    y = [[r.zero()] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        for j in range(b.cols):
            target = rhs.entries[i][j]
            if i < len(diag) and not r.is_zero(diag[i]):
                q = r.divide(target, diag[i])
                if q is None:
                    return None
                y[i][j] = q
            elif not r.is_zero(target):
                return None
    return v.mul(Matrix(r, a.cols, b.cols, tuple(tuple(row) for row in y)))


def is_split_mono(m: Matrix) -> bool:
    """Whether m: R^cols -> R^rows admits a left inverse."""
    r = m.ring
    if r.is_field:
        return rank(m) == m.cols
    d, _, _ = smith_normal_form(m)
    diag = diagonal_of(d)
    return len(diag) >= m.cols and all(r.is_unit(e) for e in diag[:m.cols])
