"""Exact matrices and Smith normal form over the supported ring tier.

Matrices carry their ring; all arithmetic goes through the ring object, so
the same code runs over Z, fields, p-local integers, Z/n and F_p[x].  Z/n
runs the Euclidean loop on its own residues: the norm of a is gcd(a, n), and
dividing by b's canonical associate g = gcd(b, n) leaves a remainder r < g,
so gcd(r, n) < g and every entry stays in [0, n).

Each of the two questions asked here is answered by one elimination, picked
once by the ring kind.  Invariant factors (`rank`, `cokernel_presentation`,
`is_split_mono`) read the Smith diagonal, which needs no transforms: over a
field it is one 1 per pivot of a forward pass, with no back-substitution.
Otherwise unit pivots go first, each a unit entry of least Markowitz cost,
(row nonzeros - 1) * (column nonzeros - 1), splitting off a 1, since
SNF(1 + S) is 1 followed by SNF(S).  What is left has no unit entry; the one
Smith worker runs on it diagonal-only, with no u and no v, so its row and
column operations touch only a.  Over Z/n the unit pivots are the residues
prime to n.  Invariant factors do not depend on the order of elimination, so
the diagonal is that of `smith_normal_form`, whose loop and pinned pivot rule
the worker shares.  Solutions and kernels (`solve`, `kernel_basis`) read
`solve_kernel`, which eliminates a once for both: over a field the forward
pass on [a | b], back-substituted to the reduced row echelon form; otherwise
one Smith form u*a*v = d, whose v gives the kernel and u and v the solution.

Work follows the nonzeros.  `Matrix.mul` is one sparse row-accumulation
kernel for every ring: each row of the left factor adds a*b only for its
nonzero a and the nonzero b of the matching right row.  Every elimination
holds rows as dicts {j: nonzero x}.  Fields and the unit pass share one row
store and one pivot step, which updates a row only where the pivot row is
nonzero.  The Smith worker keeps a's rows, u's rows and v's columns that
way: a row operation runs over the source row's nonzeros, a column operation
touches only the rows that hold that column, and the pivot search and the
divisor-chain check read only the nonzeros of the rows left; a unit pivot
ends that check with no scan, since a unit divides everything.  Skipping is
exact, since x + c*0 = x and zero is the only falsy canonical element.
Integer rings skip the dispatch: when `ring.modulus_int` is set (0 for Z, p
for Fp, n for Z/n) the product runs on plain ints and reduces once at the
end for a nonzero modulus, and over Z the pivot step and the Smith worker
add and multiply plain ints.  F_2 products (not elimination) still pack rows
into ints and xor them.  An empty matrix (no rows or no columns) is already
in Smith form with identity transforms, and its cokernel is free on its
rows; neither runs elimination.

Blocks are assembled only here.  `Matrix.blocks` builds a block matrix from a
grid (None is a zero block), `Matrix.direct_sum` a block diagonal and
`Matrix.from_entries` a matrix from a dict of its entries.  The tensor's
total complex, cones, the internal hom and the projective resolution all go
through them.  The one other place that writes a matrix entry by entry is
`homs.MapSpace`: it starts each naturality row as a list of zeros and writes
the row's coefficients into it.  `Matrix.kron` builds a row at a time and
multiplies only where it must: a zero entry of the left factor adds a shared
zero row, and a 1 copies the right factor's row, since elements are
canonical and 1*b is b.

Matrices are immutable by convention, not enforced: nothing assigns to a
field once it is built.  So a value whose content is known is built once and
shared: `zeros` and `identity` give one object per ring instance and shape,
and an empty result (no rows or no columns) of `from_entries`, `blocks`,
`direct_sum` or `kron` is that shared zero matrix, after the same ring and
shape checks.  The memo lives on the ring instance (`Ring.shared`), so it
dies with its ring and a shared value's .ring is the ring asked for.

The pivot rule is pinned for reproducibility: among nonzero candidates take
the one of smallest norm (absolute value over Z, degree over F_p[x], valuation
over the p-locals, gcd with n over Z/n), ties broken by lowest row then lowest
column.  It governs `smith_normal_form` and `solve_kernel`, whose u and v
reach kernel bases and reports, and the diagonal-only worker; only the unit
pass before that worker picks by cost.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import RingMismatch, ShapeMismatch


@dataclass(slots=True, unsafe_hash=True)
class Matrix:
    """Rows of canonical elements over ring, equal and hashed by value.
    Immutable by convention, as complexes are, so the init is a plain
    slotted one, not a frozen one's guarded set per field; shared values
    (see the module docstring) are memoized on their ring instance."""

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
        """The zero matrix, one per ring instance and shape; its rows are one tuple."""
        return ring.shared(_zeros, rows, cols)

    @staticmethod
    def from_entries(ring, rows: int, cols: int, entries: dict) -> "Matrix":
        """The rows x cols matrix with entries[(i, j)] at (i, j), zero elsewhere."""
        if not entries:
            return Matrix.zeros(ring, rows, cols)
        out = [[ring.zero()] * cols for _ in range(rows)]
        for (i, j), e in entries.items():
            out[i][j] = e
        return Matrix(ring, rows, cols, tuple(map(tuple, out)))

    @staticmethod
    def blocks(ring, grid, row_dims, col_dims) -> "Matrix":
        """The block matrix whose block (i, j) is grid[i][j], a row_dims[i] x
        col_dims[j] matrix, or zero where grid[i][j] is None.  Each block row
        is built in one pass."""
        if len(grid) != len(row_dims) or any(len(brow) != len(col_dims) for brow in grid):
            raise ShapeMismatch("block grid does not match its dimensions")
        z = ring.zero()
        out = []
        for brow, rd in zip(grid, row_dims):
            parts = []
            for blk, cd in zip(brow, col_dims):
                if blk is None:
                    parts.append(((z,) * cd,) * rd)
                    continue
                if blk.ring is not ring and blk.ring != ring:
                    raise RingMismatch(f"mixed rings {ring.label} and {blk.ring.label}")
                if (blk.rows, blk.cols) != (rd, cd):
                    raise ShapeMismatch(f"block is {blk.rows}x{blk.cols}, wanted {rd}x{cd}")
                parts.append(blk.entries)
            if len(parts) == 1:
                out += parts[0]
            elif parts:
                out += (sum(row, ()) for row in zip(*parts))
            else:
                out += ((),) * rd
        rows, cols = sum(row_dims), sum(col_dims)
        return Matrix(ring, rows, cols, tuple(out)) if rows and cols else Matrix.zeros(ring, rows, cols)

    @staticmethod
    def direct_sum(ring, mats) -> "Matrix":
        """The block diagonal of mats; the empty list gives a 0 x 0 matrix."""
        cols = sum(m.cols for m in mats)
        z = ring.zero()
        out = []
        off = 0
        for m in mats:
            if m.ring is not ring and m.ring != ring:
                raise RingMismatch(f"mixed rings {ring.label} and {m.ring.label}")
            pre, post = (z,) * off, (z,) * (cols - off - m.cols)
            out += (pre + row + post for row in m.entries)
            off += m.cols
        rows = len(out)
        return Matrix(ring, rows, cols, tuple(out)) if rows and cols else Matrix.zeros(ring, rows, cols)

    @staticmethod
    def identity(ring, n: int) -> "Matrix":
        """The n x n identity, one per ring instance and size."""
        return ring.shared(_identity, n)

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
        if r.modulus_int == 2:
            return self  # -a = a in characteristic 2, and matrices are immutable
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

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i, j) is self[i][j] * other.  Built a row
        at a time: a zero entry of self adds a shared zero row and a 1 adds
        other's row as it is (exact, since elements are canonical and 1*b is
        b), so only the other entries multiply."""
        self._check(other)
        r = self.ring
        if not (self.rows and other.rows and self.cols and other.cols):
            return Matrix.zeros(r, self.rows * other.rows, self.cols * other.cols)
        one, mul = r.one(), r.mul
        zrow = (r.zero(),) * other.cols
        out = []
        for arow in self.entries:
            for brow in other.entries:
                row = []
                for a in arow:
                    if not a:
                        row += zrow
                    elif a == one:
                        row += brow
                    else:
                        row += [mul(a, b) for b in brow]
                out.append(tuple(row))
        return Matrix(r, self.rows * other.rows, self.cols * other.cols, tuple(out))

    def select_columns(self, idxs) -> "Matrix":
        return Matrix(self.ring, self.rows, len(idxs), tuple(tuple(row[j] for j in idxs) for row in self.entries))

    def select_rows(self, idxs) -> "Matrix":
        return Matrix(self.ring, len(idxs), self.cols, tuple(self.entries[i] for i in idxs))

    def map_entries(self, fn, ring=None) -> "Matrix":
        r = ring if ring is not None else self.ring
        return Matrix(r, self.rows, self.cols, tuple(tuple(r.canon(fn(e)) for e in row) for row in self.entries))

    def is_zero(self) -> bool:
        # Ring.is_zero is `not a`: zero is the only falsy canonical element
        return not any(map(any, self.entries))

    def __str__(self):
        f = self.ring.format_elem
        return "[" + "; ".join(" ".join(f(e) for e in row) for row in self.entries) + "]"


def _zeros(ring, rows: int, cols: int) -> Matrix:
    return Matrix(ring, rows, cols, ((ring.zero(),) * cols,) * rows)


def _identity(ring, n: int) -> Matrix:
    zrow = (ring.zero(),) * n
    one = (ring.one(),)
    return Matrix(ring, n, n, tuple(zrow[:i] + one + zrow[i + 1:] for i in range(n)))


@dataclass(frozen=True)
class ElementaryDivisors:
    """Invariant factors of a cokernel: d_1 | d_2 | ... plus a free rank."""

    divisors: tuple
    free_rank: int

    @property
    def is_zero(self) -> bool:
        return not self.divisors and self.free_rank == 0


# ---------------------------------------------------------------------------
# elimination on sparse rows: the Smith worker, then the row store and its
# pivot step


def _sparse(rows) -> list:
    """Each row as a dict {j: nonzero value}."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(ring, rows, cols) -> Matrix:
    """The matrix of sparse rows, read at cols in order."""
    zeros = (ring.zero(),) * len(cols)
    return Matrix(ring, len(rows), len(cols), tuple(tuple(map(row.get, cols, zeros)) for row in rows))


class _Worker:
    """Mutable elimination state: a's rows, with the row operations
    accumulated in u's rows and the column operations in v's columns, each a
    dict {j: nonzero x}, both starting at the identity.  Without transforms
    the worker runs diagonal-only: each operation touches only a."""

    def __init__(self, m: Matrix, transforms: bool = False):
        self.ring = m.ring
        plain = m.ring.modulus_int == 0  # Z: plain int arithmetic
        self.add, self.mul = (operator.add, operator.mul) if plain else (m.ring.add, m.ring.mul)
        self.a = _sparse(m.entries)
        self.rows, self.cols = m.rows, m.cols
        one = m.ring.one()
        self.u = [{i: one} for i in range(m.rows)] if transforms else None
        self.v = [{j: one} for j in range(m.cols)] if transforms else None
        self.by_row = (self.a, self.u) if transforms else (self.a,)

    def axpy(self, dst, items, c):
        """dst[j] += c * y for each (j, y) in items, dropping the zeros this makes."""
        add, mul = self.add, self.mul
        for j, y in items:
            x = add(dst[j], mul(c, y)) if j in dst else mul(c, y)
            if x:
                dst[j] = x
            else:
                dst.pop(j, None)

    def swap_rows(self, i, j):
        for m in self.by_row:
            m[i], m[j] = m[j], m[i]

    def swap_cols(self, i, j):
        for row in self.a:
            x, y = row.pop(i, None), row.pop(j, None)
            if x is not None:
                row[j] = x
            if y is not None:
                row[i] = y
        if self.v is not None:
            self.v[i], self.v[j] = self.v[j], self.v[i]

    def addmul_row(self, i, j, c):
        """row_i += c * row_j"""
        for m in self.by_row:
            self.axpy(m[i], m[j].items(), c)

    def addmul_col(self, i, j, c):
        """col_i += c * col_j, in the rows of a that hold column j"""
        for row in self.a:
            if j in row:
                self.axpy(row, ((i, row[j]),), c)
        if self.v is not None:
            self.axpy(self.v[i], self.v[j].items(), c)


def smith_normal_form(m: Matrix):
    """(d, u, v) with u*m*v = d diagonal, d_i | d_{i+1}, u and v invertible.

    Diagonal entries are canonical associates (positive integers, monic
    polynomials, p-powers, gcd-with-n residues).  Deterministic for fixed
    input: the pivot rule is pinned.
    """
    r = m.ring
    if not m.rows or not m.cols:
        return m, Matrix.identity(r, m.rows), Matrix.identity(r, m.cols)
    w = _Worker(m, transforms=True)
    _eliminate(w)
    return _canonical_diagonal(w)


def _eliminate(w: _Worker):
    """Diagonalize w.a in place into a divisor chain, up to associates."""
    r, a = w.ring, w.a
    for t in range(min(w.rows, w.cols)):
        # the pinned rule over the nonzeros of rows t onward, which lie in
        # columns t onward
        best = min(((r.norm(x), i, j) for i in range(t, w.rows) for j, x in a[i].items()), default=None)
        if best is None:
            break
        _, pi, pj = best
        w.swap_rows(t, pi)
        w.swap_cols(t, pj)
        while True:
            # clear the pivot column, then the pivot row; a nonzero remainder
            # becomes the new, strictly smaller pivot
            for i in [i for i, row in enumerate(a) if t in row and i != t]:
                q, rem = r.divmod_(a[i][t], a[t][t])
                w.addmul_row(i, t, r.neg(q))
                if rem:
                    w.swap_rows(t, i)
                    break
            else:
                for j in sorted(a[t].keys() - {t}):
                    q, rem = r.divmod_(a[t][j], a[t][t])
                    w.addmul_col(j, t, r.neg(q))
                    if rem:
                        w.swap_cols(t, j)
                        break
                else:
                    # the pivot must divide the rest of the block for the
                    # divisor chain, as a unit does with no scan; the lowest
                    # row holding an offender is added to the pivot row
                    p = a[t][t]
                    if r.is_unit(p):
                        break
                    offender = next((i for i in range(t + 1, w.rows)
                                     if any(r.divide(x, p) is None for x in a[i].values())), None)
                    if offender is None:
                        break
                    w.addmul_row(t, offender, r.one())


def _canonical_diagonal(w: _Worker):
    """(d, u, v) of a diagonalized worker, each diagonal entry scaled to its
    canonical associate; zero is its own on every ring."""
    r = w.ring
    for k, row in enumerate(w.a):
        if row:
            unit, canon = r.canonical_associate(row[k])
            if canon != row[k]:
                row[k] = canon
                w.u[k] = {j: r.mul(unit, x) for j, x in w.u[k].items()}
    vt = _dense(r, w.v, range(w.cols))
    return (_dense(r, w.a, range(w.cols)), _dense(r, w.u, range(w.rows)),
            Matrix(r, w.cols, w.cols, tuple(zip(*vt.entries))))


def diagonal_of(d: Matrix) -> list:
    return [d.entries[k][k] for k in range(min(d.rows, d.cols))]


def _store(rows):
    """The nonempty rows {j: nonzero value} by position, and their column index."""
    rows = {i: row for i, row in enumerate(rows) if row}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    return rows, cols


def _take(ring, rows, cols, pi, pj):
    """The pivot step on a unit at (pi, pj): pop row pi, scaled in place to 1
    at pj, and clear column pj from every other row, touching only its
    nonzeros.  Rows left empty are dropped; over Z the arithmetic is on ints."""
    add, mul = (operator.add, operator.mul) if ring.modulus_int == 0 else (ring.add, ring.mul)
    prow = rows.pop(pi)
    inv = ring.inv(prow[pj])
    if inv != ring.one():
        for j, x in prow.items():
            prow[j] = mul(inv, x)
    for j in prow:
        cols[j].discard(pi)
    rest = [(j, x) for j, x in prow.items() if j != pj]
    for i in cols.pop(pj):
        row = rows[i]
        f = ring.neg(row.pop(pj))
        for j, x in rest:
            y = add(row[j], mul(f, x)) if j in row else mul(f, x)
            if y:
                row[j] = y
                cols[j].add(i)
            else:
                row.pop(j, None)
                cols[j].discard(i)
        if not row:
            del rows[i]
    return prow


def _echelon(m: Matrix) -> list:
    """The forward pass over a field: [(column, pivot row)].  Columns ascend,
    each pivoting on its sparsest row left (ties to the lowest); pivot rows
    are dropped, with no back-substitution, so the rank is their number."""
    rows, cols = _store(_sparse(m.entries))
    piv = []
    for c in range(m.cols):
        if cols.get(c):
            pi = min(cols[c], key=lambda i: (len(rows[i]), i))
            piv.append((c, _take(m.ring, rows, cols, pi, c)))
    return piv


def _rref(ring, piv: list):
    """Back-substitution: the pivot step over `_echelon`'s pivot rows in
    reverse column order makes them, in place, the reduced row echelon form,
    which is unique whatever pivots the forward pass chose."""
    rows, cols = _store(row for _, row in piv)
    for k in reversed(range(len(piv))):
        _take(ring, rows, cols, k, piv[k][0])


def _unit_pivots(m: Matrix):
    """(k, rest) with SNF(m) = 1^k followed by SNF(rest), by sparse unit pivots.

    Each pivot step (`_take`) is on a unit entry of least Markowitz cost,
    (row nonzeros - 1) * (column nonzeros - 1): with its column clear, the
    column operations that would clear its row touch nothing else, so the
    pivot splits off a 1.  rest holds what is left, which has no unit entry,
    without its zero rows and columns; it is None when nothing is left, and m
    itself when m has no unit entry, so such an m pays for one scan only."""
    r = m.ring
    is_unit = r.is_unit
    if not any(is_unit(e) for row in m.entries for e in row if e):
        return 0, m
    rows, cols = _store(_sparse(m.entries))
    k = 0
    while True:
        best = None
        for i, row in rows.items():
            rc = len(row) - 1
            for j, e in row.items():
                if is_unit(e):
                    cost = rc * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
                        if not cost:
                            break
            if best is not None and not best[0]:
                break
        if best is None:
            break
        _, pi, pj = best
        _take(r, rows, cols, pi, pj)
        k += 1
    if not rows:
        return k, None
    return k, _dense(r, list(rows.values()), sorted(j for j, s in cols.items() if s))


def _diagonal(m: Matrix) -> list:
    """The Smith diagonal of m, with no transforms.  A field's is one 1 per
    pivot of its forward pass (`_echelon`), then zeros.  Any other ring, Z/n
    included, takes unit pivots first (`_unit_pivots`), then runs the Smith
    worker diagonal-only on what is left.  Invariant factors do not depend on
    the order of elimination, so this is the diagonal of `smith_normal_form`."""
    r = m.ring
    k, rest = (len(_echelon(m)), None) if r.is_field else _unit_pivots(m)
    diag = [r.one()] * k
    if rest is not None:
        w = _Worker(rest)
        _eliminate(w)
        diag += (r.canonical_associate(row[t])[1] for t, row in enumerate(w.a) if row)
    return diag + [r.zero()] * (min(m.rows, m.cols) - len(diag))


def rank(m: Matrix) -> int:
    r = m.ring
    return sum(1 for e in _diagonal(m) if not r.is_zero(e))


def cokernel_presentation(m: Matrix) -> ElementaryDivisors:
    """Invariant factors of coker(m) = R^rows / (column span of m).

    Unit divisors are dropped; zero diagonal entries and missing rows count
    toward the free rank.  Over Z/n a zero diagonal entry is free of rank
    one, since (Z/n)/(0) = Z/n.
    """
    r = m.ring
    if not m.rows or not m.cols:
        return ElementaryDivisors((), m.rows)
    nonzero = [e for e in _diagonal(m) if not r.is_zero(e)]
    return ElementaryDivisors(tuple(e for e in nonzero if not r.is_unit(e)), m.rows - len(nonzero))


def solve_kernel(a: Matrix, b: Matrix):
    """(x, k) from one elimination of a: some x with a x = b, or None, and
    columns k generating {y : a y = 0}, as `solve` and `kernel_basis` give."""
    if a.rows != b.rows:
        raise ShapeMismatch("solve shape mismatch")
    r = a.ring
    if r.is_field:
        # columns pivot left to right, so the pivots among a's columns are
        # a's own and b only rides along
        piv = _echelon(a.hstack(b))
        _rref(r, piv)
        free = {f: j for j, f in enumerate(sorted(set(range(a.cols)) - {p for p, _ in piv}))}
        kernel = {(f, j): r.one() for f, j in free.items()}
        kernel.update(((p, free[f]), r.neg(e)) for p, row in piv for f, e in row.items() if f in free)
        kernel = Matrix.from_entries(r, a.cols, len(free), kernel)
        if piv and piv[-1][0] >= a.cols:
            return None, kernel
        x = {(p, c - a.cols): e for p, row in piv for c, e in row.items() if c >= a.cols}
        return Matrix.from_entries(r, a.cols, b.cols, x), kernel
    d, u, v = smith_normal_form(a)
    diag = diagonal_of(d)
    # kernel: v's columns over a zero or missing diagonal entry; over Z/n a
    # nonzero entry adds its annihilator multiple, so only a generating set
    one = r.one()
    gens = [(j, annihilator_gen(r, diag[j]) if j < len(diag) else one) for j in range(a.cols)]
    gens = [(j, c) for j, c in gens if c]
    kernel = Matrix(r, a.cols, len(gens), tuple(
        tuple(row[j] if c == one else r.mul(c, row[j]) for j, c in gens) for row in v.entries))
    if not b.cols:
        return Matrix.zeros(r, a.cols, 0), kernel
    rhs = u.mul(b)
    y = {}
    for i in range(a.rows):
        for j in range(b.cols):
            target = rhs.entries[i][j]
            if i < len(diag) and not r.is_zero(diag[i]):
                q = r.divide(target, diag[i])
                if q is None:
                    return None, kernel
                y[(i, j)] = q
            elif not r.is_zero(target):
                return None, kernel
    return v.mul(Matrix.from_entries(r, a.cols, b.cols, y)), kernel


def kernel_basis(m: Matrix) -> Matrix:
    """Columns generating {x : m x = 0}.

    Over a domain this is a basis (columns of the invertible v, or one column
    per free column of the reduced row echelon form over a field); over Z/n
    the diagonal entries contribute annihilator multiples and the columns are
    only a generating set.
    """
    return solve_kernel(m, Matrix.zeros(m.ring, m.rows, 0))[1]


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
    return solve_kernel(a, b)[0]


def is_split_mono(m: Matrix) -> bool:
    """Whether m: R^cols -> R^rows admits a left inverse."""
    diag = _diagonal(m)
    return len(diag) >= m.cols and all(m.ring.is_unit(e) for e in diag[:m.cols])
