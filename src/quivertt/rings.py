"""Coefficient rings, their primes, and specialization-closed subsets.

Every supported ring is an elementary divisor ring, which is what the rest of
the package leans on.  Elements are plain Python data (int, Fraction, or a
low-to-high coefficient tuple for polynomials) and the ring object owns all
arithmetic on them, including the Euclidean structure used by the Smith form:

    ring          elements          canonical associate
    Fp(p)         int in [0, p)     1
    Q             Fraction          1
    Z             int               |a|
    Zloc(p)       Fraction, p'-denominator   p^v
    Zmod(n)       int in [0, n)     gcd(a, n)
    FpX(p)        coeff tuple       monic

Zmod(n) is not a domain, but it is Euclidean enough for the Smith form: the
norm of a is gcd(a, n), and division by b goes through b's canonical
associate gcd(b, n), so its remainder has a smaller norm (see linalg).
Fp(p) is Zmod(p) at a prime modulus, printed Fp(p): the same code, where
every nonzero element is a unit.  Z, Q and Zloc add, negate and multiply
with Python's own operators; Zmod, Fp and FpX reduce their results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import BadElement, RingMismatch, UnsupportedRing
from .linalg import ElementaryDivisors, Matrix, cokernel_presentation


# ---------------------------------------------------------------------------
# small integer number theory, desk scale


# The stated cap on integer trial division: divisors up to 10^6, which decides
# every k below 10^12.  Past it the search could run for hours, so the input
# is refused instead.
_TRIAL_DIVISORS = 10**6


def is_prime_int(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if d > _TRIAL_DIVISORS:
            raise BadElement(f"deciding whether {k} is prime would trial-divide past the cap 10^6")
        if k % d == 0:
            return False
        d += 1
    return True


def primes_upto(bound: int) -> list[int]:
    return [k for k in range(2, bound + 1) if is_prime_int(k)]


def _check_window(ring, bound: int, examined: int):
    """The stated cap: one maximal prime window examines at most 10^4 candidates."""
    if examined > 10**4:
        raise BadElement(f"{ring.label} prime window at bound {bound} would examine "
                         f"more than 10^4 candidate generators")


def int_prime_factors(k: int) -> list[int]:
    """Distinct prime divisors of |k|, ascending.  Refuses k when what is left
    of it after the divisors up to the cap is not yet decided."""
    n = k = abs(k)
    out = []
    d = 2
    while d * d <= k:
        if d > _TRIAL_DIVISORS:
            raise BadElement(f"factoring {n} would trial-divide past the cap 10^6")
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def _p_valuation(k: int, p: int) -> int:
    if k == 0:
        raise ValueError("valuation of zero")
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; coefficient tuples, low degree first, no
# trailing zeros, () is the zero polynomial


def _poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n))


def _poly_neg(a, p):
    return tuple((-c) % p for c in a)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = (a[-1] * inv_lead) % p
        q[shift] = c
        for i, cb in enumerate(b):
            a[shift + i] = (a[shift + i] - c * cb) % p
        while a and a[-1] == 0:
            a.pop()
    return _poly_trim(q), _poly_trim(a)


_IRR_CACHE: dict[tuple[int, int], list[tuple]] = {}


def monic_irreducibles(p: int, max_deg: int) -> list[tuple]:
    """Monic irreducible polynomials over F_p of degree <= max_deg.

    Ordered by degree, then by coefficient tuple; trial division against the
    smaller irreducibles is plenty at desk scale.
    """
    key = (p, max_deg)
    if key in _IRR_CACHE:
        return _IRR_CACHE[key]
    found: list[tuple] = []
    for d in range(1, max_deg + 1):
        for lower in range(p ** d):
            cs, k = [], lower
            for _ in range(d):
                cs.append(k % p)
                k //= p
            cand = tuple(cs) + (1,)
            if all(_poly_divmod(cand, f, p)[1] for f in found if 2 * (len(f) - 1) <= d):
                found.append(cand)
    _IRR_CACHE[key] = found
    return found


def _poly_factor(a, p):
    """Distinct monic irreducible factors of a nonzero monic polynomial, in
    `monic_irreducibles` order, by trial division up to half the degree of
    what is left: a cofactor with no such divisor is irreducible.  Refuses
    past 10^4 candidate divisors (p + p^2 + ... + p^(deg/2))."""
    half = (len(a) - 1) // 2
    # 14 terms already pass the cap for every p >= 2
    if sum(p ** d for d in range(1, min(half, 14) + 1)) > 10**4:
        raise BadElement(f"FpX({p}): factoring {_poly_format(a)} would trial-divide by "
                         f"more than 10^4 candidate divisors")
    out = []
    work = a
    for f in monic_irreducibles(p, half):
        if 2 * (len(f) - 1) > len(work) - 1:
            break
        q, r = _poly_divmod(work, f, p)
        if not r:
            out.append(f)
            while not r:
                work = q
                q, r = _poly_divmod(work, f, p)
    if len(work) > 1:
        out.append(work)
    return out


_POLY_TERM = re.compile(r"^(\d*)\s*\*?\s*(x(\^(\d+))?)?$")


def _poly_parse(s: str, p: int):
    s = s.replace(" ", "")
    if not s:
        raise BadElement("empty polynomial")
    if s[0] not in "+-":
        s = "+" + s
    coeffs: dict[int, int] = {}
    for sign, term in re.findall(r"([+-])([^+-]+)", s):
        m = _POLY_TERM.match(term)
        if not m or (not m.group(1) and not m.group(2)):
            raise BadElement(f"cannot parse polynomial term {term!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if m.group(2):
            deg = int(m.group(4)) if m.group(4) else 1
        else:
            deg = 0
        # the stated cap: the coefficient list has degree + 1 entries
        if deg > 10**4:
            raise BadElement(f"polynomial degree {deg} above the cap 10^4")
        if sign == "-":
            c = -c
        coeffs[deg] = coeffs.get(deg, 0) + c
    top = max(coeffs)
    return _poly_trim([coeffs.get(i, 0) % p for i in range(top + 1)])


def _poly_format(a) -> str:
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            parts.append(x if c == 1 else f"{c}{x}")
    return "+".join(parts)


def _parse_fraction(s) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise BadElement(f"zero denominator in {s!r}") from None


# ---------------------------------------------------------------------------
# ring descriptors


class Ring:
    """Base descriptor.  Subclasses are frozen dataclasses, safe as dict keys."""

    label = "?"
    is_field = False
    is_domain = True
    # elements are plain ints reduced mod this (0: not reduced, as over Z);
    # None when they are not ints.  Matrix products use it for a fast path.
    modulus_int = None

    # -- element arithmetic -------------------------------------------------
    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        raise NotImplementedError

    def canon(self, a):
        """Canonical form of an element, validating membership."""
        raise NotImplementedError

    # Python's own operators, right for Z, Q and Zloc; rings whose elements
    # must be reduced override them
    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        # elements are canonical and zero is the only falsy one: 0,
        # Fraction(0), or the empty coefficient tuple
        return not a

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # -- Euclidean structure ------------------------------------------------
    def norm(self, a) -> int:
        """Euclidean size of a nonzero element; drives pivot choice."""
        raise NotImplementedError

    def divmod_(self, a, b):
        """(q, r) with a = q*b + r and r zero or of smaller norm than b."""
        raise NotImplementedError

    def divide(self, a, b):
        """Exact quotient a/b, or None when b does not divide a."""
        q, r = self.divmod_(a, b)
        return q if self.is_zero(r) else None

    def canonical_associate(self, a):
        """(u, c) with u a unit and u*a = c the canonical associate of a."""
        raise NotImplementedError

    # -- primes ---------------------------------------------------------------
    def is_prime_elem(self, a) -> bool:
        raise NotImplementedError

    def prime_factors(self, a):
        """Canonical generators of the primes over a nonzero element."""
        raise NotImplementedError

    def maximal_prime_window(self, bound: int):
        """Canonical generators of nonzero primes inside the bound."""
        raise NotImplementedError

    # -- text -----------------------------------------------------------------
    def format_elem(self, a) -> str:
        return str(a)

    def parse_elem(self, s):
        raise NotImplementedError

    def elem_sort_key(self, a):
        raise NotImplementedError

    def __str__(self):
        return self.label

    # -- shared values ----------------------------------------------------------
    @cached_property
    def _memo(self) -> dict:
        return {}

    def shared(self, build, *args):
        """build(self, *args), built once per ring instance and arguments and
        shared by every caller, so immutable by convention.  The memo lives in
        this instance's __dict__: it dies with the ring, and an equal ring
        built apart gets its own values."""
        key = (build, *args)
        memo = self._memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = build(self, *args)
        return value


@dataclass(frozen=True)
class Rationals(Ring):
    is_field = True
    label = "Q"

    def from_int(self, k):
        return Fraction(k)

    def canon(self, a):
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, Fraction):
            return a
        raise BadElement(f"not a rational: {a!r}")

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return 1 / Fraction(a)

    def norm(self, a):
        return 1

    def divmod_(self, a, b):
        return a / b, Fraction(0)

    def canonical_associate(self, a):
        if a == 0:
            return Fraction(1), Fraction(0)
        return 1 / a, Fraction(1)

    def is_prime_elem(self, a):
        return False

    def prime_factors(self, a):
        return []

    def maximal_prime_window(self, bound):
        return []

    def parse_elem(self, s):
        return _parse_fraction(s)

    def elem_sort_key(self, a):
        return (a.numerator, a.denominator)


@dataclass(frozen=True)
class Integers(Ring):
    label = "Z"
    modulus_int = 0

    def from_int(self, k):
        return k

    def canon(self, a):
        if not isinstance(a, int):
            raise BadElement(f"not an integer: {a!r}")
        return a

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise BadElement(f"{a} is not a unit in Z")

    def norm(self, a):
        return abs(a)

    def divmod_(self, a, b):
        q, r = divmod(a, b)
        # keep |r| minimal so the Euclidean loop shrinks fast; floor division
        # leaves r with the sign of b, so one correction covers both signs
        if 2 * abs(r) > abs(b):
            q, r = q + 1, r - b
        return q, r

    def canonical_associate(self, a):
        if a == 0:
            return 1, 0
        return (1, a) if a > 0 else (-1, -a)

    def is_prime_elem(self, a):
        return is_prime_int(abs(a))

    def prime_factors(self, a):
        return int_prime_factors(a)

    def maximal_prime_window(self, bound):
        _check_window(self, bound, bound)
        return primes_upto(bound)

    def parse_elem(self, s):
        return int(s)

    def elem_sort_key(self, a):
        return (abs(a), a)


@dataclass(frozen=True)
class IntegersLocalized(Ring):
    """Integers localized at a prime p: fractions with denominator prime to p."""

    p: int

    def __post_init__(self):
        if not is_prime_int(self.p):
            raise UnsupportedRing(f"Zloc needs a prime, got {self.p}")

    @property
    def label(self):
        return f"Zloc({self.p})"

    def from_int(self, k):
        return Fraction(k)

    def canon(self, a):
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, Fraction):
            if a.denominator % self.p == 0:
                raise BadElement(f"{a} has denominator divisible by {self.p}")
            return a
        raise BadElement(f"not an element of {self.label}: {a!r}")

    def _val(self, a):
        return _p_valuation(a.numerator, self.p)

    def is_unit(self, a):
        return a != 0 and a.numerator % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise BadElement(f"{a} is not a unit in {self.label}")
        return 1 / a

    def norm(self, a):
        return self._val(a)

    def divmod_(self, a, b):
        if a == 0:
            return Fraction(0), Fraction(0)
        if self._val(a) >= self._val(b):
            return a / b, Fraction(0)
        return Fraction(0), a

    def canonical_associate(self, a):
        if a == 0:
            return Fraction(1), Fraction(0)
        c = Fraction(self.p) ** self._val(a)
        return c / a, c

    def is_prime_elem(self, a):
        return a != 0 and self._val(a) == 1 and a == Fraction(self.p)

    def prime_factors(self, a):
        return [Fraction(self.p)] if self._val(a) >= 1 else []

    def maximal_prime_window(self, bound):
        # the spectrum is finite; the window argument has nothing to cut
        return [Fraction(self.p)]

    def parse_elem(self, s):
        return self.canon(_parse_fraction(s))

    def elem_sort_key(self, a):
        return (a.numerator, a.denominator)


@dataclass(frozen=True)
class IntegersMod(Ring):
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise UnsupportedRing(f"Zmod needs n >= 2, got {self.n}")

    @property
    def modulus_int(self):
        return self.n

    @property
    def label(self):
        return f"Zmod({self.n})"

    @cached_property
    def is_field(self):
        # decided once per ring object; linalg reads it on every call
        return is_prime_int(self.n)

    @property
    def is_domain(self):
        return self.is_field

    def from_int(self, k):
        return k % self.n

    def canon(self, a):
        if not isinstance(a, int):
            raise BadElement(f"not an element of {self.label}: {a!r}")
        return a % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def inv(self, a):
        return pow(a, -1, self.n)

    def norm(self, a):
        return gcd(a, self.n)

    def divmod_(self, a, b):
        # w*b = g = gcd(b, n), so a = q*g + r = (q*w)*b + r with 0 <= r < g,
        # and gcd(r, n) <= r < g: the norm falls and entries stay in [0, n)
        w, g = self.canonical_associate(b)
        q, r = divmod(a, g)
        return (q * w) % self.n, r

    def canonical_associate(self, a):
        a %= self.n
        if a == 0:
            return 1, 0
        g = gcd(a, self.n)
        m = self.n // g
        w = pow((a // g) % m, -1, m) if m > 1 else 1
        # lift w to a unit mod n; units mod n surject onto units mod n/g
        while gcd(w, self.n) != 1:
            w += m
        return w % self.n, g

    def is_prime_elem(self, a):
        a %= self.n
        return a != 0 and is_prime_int(a) and self.n % a == 0

    def prime_factors(self, a):
        g = gcd(a % self.n, self.n)
        return [q % self.n for q in int_prime_factors(g) if q % self.n != 0]

    def maximal_prime_window(self, bound):
        # the bound is ignored: Spec(Z/n) is already finite
        return [q for q in int_prime_factors(self.n) if q != self.n]

    def parse_elem(self, s):
        return int(s) % self.n

    def elem_sort_key(self, a):
        return (a,)


@dataclass(frozen=True)
class PrimeField(IntegersMod):
    """Zmod(p) at a prime p, printed Fp(p).  Only the label, and so equality,
    differ from Zmod(p)'s: Fp(p) != Zmod(p)."""

    is_field = True

    def __post_init__(self):
        if not is_prime_int(self.n):
            raise UnsupportedRing(f"Fp needs a prime, got {self.n}")

    @property
    def label(self):
        return f"Fp({self.n})"


@dataclass(frozen=True)
class PolyOverPrimeField(Ring):
    p: int

    def __post_init__(self):
        if not is_prime_int(self.p):
            raise UnsupportedRing(f"FpX needs a prime, got {self.p}")

    @property
    def label(self):
        return f"FpX({self.p})"

    def from_int(self, k):
        return (k % self.p,) if k % self.p else ()

    def canon(self, a):
        if isinstance(a, int):
            return self.from_int(a)
        if isinstance(a, tuple) and all(isinstance(c, int) for c in a):
            return _poly_trim(c % self.p for c in a)
        raise BadElement(f"not a polynomial over F_{self.p}: {a!r}")

    def add(self, a, b):
        return _poly_add(a, b, self.p)

    def neg(self, a):
        return _poly_neg(a, self.p)

    def mul(self, a, b):
        return _poly_mul(a, b, self.p)

    def is_unit(self, a):
        return len(a) == 1

    def inv(self, a):
        if len(a) != 1:
            raise BadElement(f"{_poly_format(a)} is not a unit")
        return (pow(a[0], -1, self.p),)

    def norm(self, a):
        return len(a) - 1

    def divmod_(self, a, b):
        return _poly_divmod(a, b, self.p)

    def canonical_associate(self, a):
        if not a:
            return (1,), ()
        u = (pow(a[-1], -1, self.p),)
        return u, _poly_mul(u, a, self.p)

    def is_prime_elem(self, a):
        return len(a) >= 2 and a[-1] == 1 and _poly_factor(a, self.p) == [a]

    def prime_factors(self, a):
        return _poly_factor(self.canonical_associate(a)[1], self.p)

    def maximal_prime_window(self, bound):
        # p + p^2 + ... + p^bound monic candidates; 14 terms already pass the cap
        _check_window(self, bound, sum(self.p ** d for d in range(1, min(bound, 14) + 1)))
        return monic_irreducibles(self.p, bound)

    def format_elem(self, a):
        return _poly_format(a)

    def parse_elem(self, s):
        return _poly_parse(str(s), self.p)

    def elem_sort_key(self, a):
        return (len(a), a)


# ---------------------------------------------------------------------------
# ring grammar: Z | Q | Fp(p) | Zmod(n) | Zloc(p) | FpX(p)

_RING_RE = re.compile(r"^(Z|Q|Fp|Zmod|Zloc|FpX)(?:\((\d+)\))?$")


def parse_ring(text: str) -> Ring:
    m = _RING_RE.match(text.strip())
    if not m:
        raise UnsupportedRing(f"cannot parse ring {text!r}")
    kind, arg = m.group(1), m.group(2)
    if kind in ("Z", "Q"):
        if arg is not None:
            raise UnsupportedRing(f"{kind} takes no parameter")
        return Integers() if kind == "Z" else Rationals()
    if arg is None:
        raise UnsupportedRing(f"{kind} needs a parameter, e.g. {kind}(5)")
    if len(arg.lstrip("0")) > 10 or int(arg) > 10**9:
        raise UnsupportedRing(f"{kind} parameter above the cap 10^9")
    n = int(arg)
    if kind == "Fp":
        return PrimeField(n)
    if kind == "Zmod":
        return IntegersMod(n)
    if kind == "Zloc":
        return IntegersLocalized(n)
    return PolyOverPrimeField(n)


def check_same_ring(a: Ring, b: Ring):
    if a != b:
        raise RingMismatch(f"mixed rings {a.label} and {b.label}")


# ---------------------------------------------------------------------------
# prime ideals


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of the ring, named by a canonical generator (zero = generic)."""

    ring: Ring
    gen: object

    @property
    def is_zero_ideal(self) -> bool:
        return self.ring.is_zero(self.gen)

    def __str__(self):
        return f"({self.ring.format_elem(self.gen)})"

    def sort_key(self):
        return (0 if self.is_zero_ideal else 1, self.ring.elem_sort_key(self.gen))


def prime_ideal(ring: Ring, gen) -> PrimeIdeal:
    gen = ring.canon(gen)
    gen = ring.canonical_associate(gen)[1]
    if ring.is_zero(gen):
        if not ring.is_domain:
            raise BadElement(f"(0) is not prime in {ring.label}")
    elif not ring.is_prime_elem(gen):
        raise BadElement(f"({ring.format_elem(gen)}) is not prime in {ring.label}")
    return PrimeIdeal(ring, gen)


def prime_contains(p: PrimeIdeal, q: PrimeIdeal) -> bool:
    """Whether p is contained in q.  Our spectra have height at most one."""
    check_same_ring(p.ring, q.ring)
    return p.is_zero_ideal or p == q


def enumerate_primes(ring: Ring, bound: int) -> list[PrimeIdeal]:
    """All primes with generator inside the window, generic point first.

    For Zmod(n) the window is ignored; its spectrum is the prime divisors of n.
    """
    out = []
    if ring.is_domain:
        out.append(PrimeIdeal(ring, ring.zero()))
    for g in ring.maximal_prime_window(bound):
        out.append(prime_ideal(ring, g))
    return out


# ---------------------------------------------------------------------------
# specialization-closed subsets of Spec(R): everything, or finitely many
# closed points


@dataclass(frozen=True)
class SpClosedSet:
    ring: Ring
    is_all: bool
    points: frozenset

    def __str__(self):
        if self.is_all:
            return "all"
        return "{" + ", ".join(str(p) for p in sorted(self.points, key=PrimeIdeal.sort_key)) + "}"

    @property
    def is_empty(self):
        return not self.is_all and not self.points


def sp_all(ring: Ring) -> SpClosedSet:
    return SpClosedSet(ring, True, frozenset())


def sp_empty(ring: Ring) -> SpClosedSet:
    return SpClosedSet(ring, False, frozenset())


def sp_points(ring: Ring, points) -> SpClosedSet:
    pts = frozenset(points)
    for p in pts:
        check_same_ring(ring, p.ring)
        if p.is_zero_ideal:
            raise BadElement("a finite closed set cannot contain the generic point")
    # over Z/n the whole spectrum is finite; normalize full covers to All
    if not ring.is_domain:
        full = {prime_ideal(ring, g) for g in ring.maximal_prime_window(0)}
        if pts == full:
            return sp_all(ring)
    return SpClosedSet(ring, False, pts)


def sp_closed_contains(s: SpClosedSet, p: PrimeIdeal) -> bool:
    check_same_ring(s.ring, p.ring)
    if s.is_all:
        return True
    return p in s.points


def sp_closed_union(a: SpClosedSet, b: SpClosedSet) -> SpClosedSet:
    check_same_ring(a.ring, b.ring)
    if a.is_all or b.is_all:
        return sp_all(a.ring)
    return sp_points(a.ring, a.points | b.points)


def sp_closed_intersection(a: SpClosedSet, b: SpClosedSet) -> SpClosedSet:
    check_same_ring(a.ring, b.ring)
    if a.is_all:
        return b
    if b.is_all:
        return a
    return sp_points(a.ring, a.points & b.points)


def sp_closed_subset(a: SpClosedSet, b: SpClosedSet) -> bool:
    check_same_ring(a.ring, b.ring)
    if b.is_all:
        return True
    if a.is_all:
        return False  # full covers over Z/n normalize to All, so this is safe
    return a.points <= b.points


# ---------------------------------------------------------------------------
# finitely generated modules, given by presentation


class FGModule:
    """coker(presentation): generators = rows, relations = columns.

    The invariant-factor decomposition is computed eagerly; two modules are
    isomorphic iff they share (free_rank, divisors), and that is what
    equality means here.  A module is "literally free" when it has no
    relation columns at all; parts of the complex machinery (tensor products
    on chosen bases) require that stronger, coordinate-level property.
    """

    __slots__ = ("ring", "presentation", "divisors")

    def __init__(self, ring: Ring, presentation: Matrix):
        if presentation.ring != ring:
            raise RingMismatch("presentation over the wrong ring")
        self.ring = ring
        self.presentation = presentation
        self.divisors = cokernel_presentation(presentation)

    @staticmethod
    def from_divisors(ring: Ring, divisors: tuple, free_rank: int) -> "FGModule":
        """R^free_rank + R/(d_1) + ... + R/(d_k), presented by d_1, ..., d_k
        on the diagonal over free_rank zero rows.  The divisors must be
        canonical non-units in chain order, as `cokernel_presentation` gives
        them; they are the answer, so nothing is eliminated.  With no
        divisors this is `free`."""
        return _from_divisors(ring, divisors, free_rank) if divisors else FGModule.free(ring, free_rank)

    @staticmethod
    def free(ring: Ring, rank: int) -> "FGModule":
        """R^rank, presented with no relations: one module per ring instance
        and rank, shared by every caller (`Ring.shared`)."""
        return ring.shared(_from_divisors, (), rank)

    @property
    def gens(self) -> int:
        return self.presentation.rows

    @property
    def free_rank(self) -> int:
        return self.divisors.free_rank

    @property
    def is_zero_module(self) -> bool:
        return self.divisors.is_zero

    @property
    def is_literally_free(self) -> bool:
        return self.presentation.cols == 0 or self.presentation.is_zero()

    def iso_key(self):
        return (self.free_rank, self.divisors.divisors)

    def __eq__(self, other):
        return isinstance(other, FGModule) and self.ring == other.ring and self.iso_key() == other.iso_key()

    def __hash__(self):
        return hash((self.ring, self.iso_key()))

    def __str__(self):
        f = self.ring.format_elem
        parts = []
        if self.free_rank:
            parts.append("R" if self.free_rank == 1 else f"R^{self.free_rank}")
        parts.extend(f"R/({f(d)})" for d in self.divisors.divisors)
        return " + ".join(parts) if parts else "0"


def _from_divisors(ring: Ring, divisors: tuple, free_rank: int) -> FGModule:
    m = FGModule.__new__(FGModule)
    m.ring = ring
    m.presentation = Matrix.from_entries(ring, len(divisors) + free_rank, len(divisors),
                                         {(i, i): d for i, d in enumerate(divisors)})
    m.divisors = ElementaryDivisors(divisors, free_rank)
    return m


def module_support(m: FGModule) -> SpClosedSet:
    """Support of a finitely generated module inside Spec(R).

    All when a free summand survives, otherwise the finitely many maximal
    primes over some invariant factor.  Over Z/n a divisor chain covering
    every prime of n also normalizes to All (the whole finite spectrum).
    """
    if m.free_rank > 0:
        return sp_all(m.ring)
    pts = set()
    for d in m.divisors.divisors:
        for g in m.ring.prime_factors(d):
            pts.add(prime_ideal(m.ring, g))
    return sp_points(m.ring, pts)
