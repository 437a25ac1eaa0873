"""Coefficient ring tier, primes, and module supports."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

import quivertt.rings as rings
from quivertt import (
    BadElement,
    FGModule,
    Integers,
    IntegersLocalized,
    IntegersMod,
    Matrix,
    PolyOverPrimeField,
    PrimeField,
    Rationals,
    RingMismatch,
    UnsupportedRing,
    enumerate_primes,
    module_support,
    parse_ring,
    prime_contains,
    prime_ideal,
    rank,
    sp_all,
    sp_empty,
    sp_points,
)
from quivertt.rings import (
    sp_closed_contains,
    sp_closed_intersection,
    sp_closed_subset,
    sp_closed_union,
)

Z = Integers()


def zmat(rows):
    return Matrix.from_rows(Z, rows)


# --- ring grammar -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,kind",
    [
        ("Z", Integers),
        ("Q", Rationals),
        ("Fp(2)", PrimeField),
        ("Zmod(12)", IntegersMod),
        ("Zloc(3)", IntegersLocalized),
        ("FpX(2)", PolyOverPrimeField),
    ],
)
def test_ring_grammar(text, kind):
    assert isinstance(parse_ring(text), kind)


@pytest.mark.parametrize("text", ["", "GL(2)", "Z(3)", "Fp", "Fp(4)", "Zmod(1)"])
def test_ring_grammar_rejects(text):
    with pytest.raises(UnsupportedRing):
        parse_ring(text)


# --- prime enumeration ------------------------------------------------------


def gens(ps):
    return [p.ring.format_elem(p.gen) for p in ps]


def test_primes_integers_window():
    assert gens(enumerate_primes(Z, 6)) == ["0", "2", "3", "5"]


def test_primes_poly_window():
    r = PolyOverPrimeField(2)
    assert gens(enumerate_primes(r, 2)) == ["0", "x", "x+1", "x^2+x+1"]


def test_primes_mod_n_ignores_bound():
    assert gens(enumerate_primes(IntegersMod(12), 100)) == ["2", "3"]


def test_primes_field_and_local():
    assert gens(enumerate_primes(PrimeField(5), 10)) == ["0"]
    assert gens(enumerate_primes(IntegersLocalized(3), 10)) == ["0", "3"]


def test_prime_window_pairwise_nonassociate():
    for ring in (Z, PolyOverPrimeField(3)):
        ps = enumerate_primes(ring, 3)
        assert len(set(ps)) == len(ps)
        for p in ps:
            for q in ps:
                # height <= 1: containment only from the generic point
                assert prime_contains(p, q) == (p.is_zero_ideal or p == q)


def test_prime_ideal_rejects_composite():
    with pytest.raises(BadElement):
        prime_ideal(Z, 6)
    with pytest.raises(BadElement):
        prime_ideal(IntegersMod(12), 5)  # a unit generates the whole ring


# --- specialization-closed sets ---------------------------------------------


def test_sp_contains():
    p2, p5 = prime_ideal(Z, 2), prime_ideal(Z, 5)
    zero = enumerate_primes(Z, 0)[0]
    assert sp_closed_contains(sp_all(Z), zero)
    s = sp_points(Z, {p2, prime_ideal(Z, 3)})
    assert sp_closed_contains(s, p2)
    assert not sp_closed_contains(s, p5)
    assert not sp_closed_contains(s, zero)


def test_sp_boolean_ops():
    p2, p3 = prime_ideal(Z, 2), prime_ideal(Z, 3)
    two, three = sp_points(Z, {p2}), sp_points(Z, {p3})
    assert sp_closed_intersection(sp_all(Z), two) == two
    assert sp_closed_union(two, three) == sp_points(Z, {p2, p3})
    assert sp_closed_subset(two, sp_closed_union(two, three))
    assert not sp_closed_subset(sp_all(Z), two)
    assert sp_empty(Z).is_empty


def test_sp_rejects_generic_point():
    with pytest.raises(BadElement):
        sp_points(Z, {prime_ideal(Z, Z.zero())})


def test_sp_full_cover_normalizes_over_zmod():
    r = IntegersMod(6)
    full = sp_points(r, {prime_ideal(r, 2), prime_ideal(r, 3)})
    assert full == sp_all(r)
    assert not sp_points(r, {prime_ideal(r, 2)}).is_all


# --- finitely generated modules ---------------------------------------------


def test_module_support_torsion():
    m = FGModule(Z, zmat([[6]]))
    assert str(module_support(m)) == "{(2), (3)}"


def test_module_support_free():
    assert module_support(FGModule.free(Z, 2)).is_all


def test_module_support_mixed_presentation():
    m = FGModule(Z, zmat([[4, 2], [0, 6]]))
    assert m.divisors.divisors == (2, 12)
    assert str(module_support(m)) == "{(2), (3)}"


def test_module_support_against_field_rank():
    """(q) lies in the support iff the presentation drops rank mod q."""
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(1, 3))]
        cols = max((len(r) for r in rows), default=0)
        rows = [r + [0] * (cols - len(r)) for r in rows]
        pres = Matrix.from_rows(Z, rows) if cols else Matrix.zeros(Z, len(rows), 0)
        m = FGModule(Z, pres)
        supp = module_support(m)
        qrank = rank(pres.map_entries(Rationals().from_int, ring=Rationals()))
        assert supp.is_all == (qrank < pres.rows)
        for q in (2, 3, 5, 7, 11, 13):
            f = PrimeField(q)
            fr = rank(pres.map_entries(f.from_int, ring=f))
            assert sp_closed_contains(supp, prime_ideal(Z, q)) == (fr < pres.rows)


def test_fgmodule_iso_equality():
    a = FGModule(Z, zmat([[2, 0], [0, 3]]))
    b = FGModule(Z, zmat([[6]]))
    assert a == b  # two generators against one, same invariant factors
    assert str(a) == "R/(6)"
    assert str(FGModule.free(Z, 2)) == "R^2"
    assert FGModule.free(Z, 0).is_zero_module


def test_fgmodule_literally_free_flag():
    assert FGModule.free(Z, 3).is_literally_free
    assert not FGModule(Z, zmat([[2]])).is_literally_free


@pytest.mark.parametrize("text", ["Z", "Q", "Fp(5)", "Zmod(12)", "Zloc(3)", "FpX(3)"])
def test_free_module_matches_its_eliminated_presentation(text):
    # FGModule.free sets the invariant factors it knows; the constructor
    # reads them off the empty presentation
    ring = parse_ring(text)
    for n in (0, 1, 4):
        fast, slow = FGModule.free(ring, n), FGModule(ring, Matrix.zeros(ring, n, 0))
        assert fast.ring is ring
        assert fast.presentation == slow.presentation
        assert fast.divisors == slow.divisors
        assert fast.iso_key() == slow.iso_key() == (n, ())
        assert fast == slow and str(fast) == str(slow)


@pytest.mark.parametrize("text", ["Z", "Q", "Fp(5)", "Zmod(12)", "Zloc(3)", "FpX(3)"])
def test_free_modules_are_one_object_per_ring_instance(text):
    ring, twin = parse_ring(text), parse_ring(text)
    assert ring == twin and ring is not twin
    for n in (0, 1, 4):
        m, t = FGModule.free(ring, n), FGModule.free(twin, n)
        assert FGModule.free(ring, n) is m and m.ring is ring
        assert FGModule.free(twin, n) is t and t.ring is twin
        assert t is not m and t == m
        assert m.presentation is Matrix.zeros(ring, n, 0)
        assert FGModule.from_divisors(ring, (), n) is m
    assert FGModule.free(ring, 1) is not FGModule.free(ring, 4)


def test_shared_values_die_with_their_ring():
    ring = parse_ring("Zmod(12)")
    values = [FGModule.free(ring, 2), Matrix.identity(ring, 3), Matrix.zeros(ring, 2, 5)]
    dead = weakref.ref(ring)
    del ring, values
    gc.collect()
    assert dead() is None


# --- arithmetic spot checks --------------------------------------------------


def test_localized_units_and_division():
    r = IntegersLocalized(3)
    assert r.is_unit(r.from_int(2)) and not r.is_unit(r.from_int(3))
    q, rem = r.divmod_(r.from_int(18), r.from_int(6))
    assert r.is_zero(rem) and r.is_zero(r.sub(r.mul(q, r.from_int(6)), r.from_int(18)))
    assert [r.format_elem(g) for g in r.maximal_prime_window(50)] == ["3"]


def test_mod_n_zero_divisors():
    r = IntegersMod(12)
    assert r.is_unit(r.from_int(5))
    assert r.is_zero(r.mul(r.from_int(4), r.from_int(3)))
    assert not r.is_domain


def test_rationals_lowest_terms():
    q = Rationals()
    x = q.parse_elem("6/4")
    assert q.format_elem(x) == "3/2"
    assert q.is_unit(x)


def test_poly_parse_format_roundtrip():
    r = PolyOverPrimeField(2)
    for text in ("x^2+x+1", "x^3+x", "1", "x"):
        assert r.format_elem(r.parse_elem(text)) == text
    assert [r.format_elem(g) for g in r.prime_factors(r.parse_elem("x^2+x"))] == ["x", "x+1"]


@pytest.mark.parametrize("a", [(1.5, 2), (Fraction(1, 2),), (1, "2"), 1.0, Fraction(1)])
def test_poly_canon_refuses_inexact_coefficients(a):
    r = PolyOverPrimeField(3)
    with pytest.raises(BadElement, match=r"^not a polynomial over F_3: "):
        r.canon(a)
    assert r.canon((4, 2, 3)) == (1, 2) and r.canon(5) == (2,)


def test_prime_field_inverse():
    f = PrimeField(7)
    for a in range(1, 7):
        assert f.mul(f.from_int(a), f.inv(f.from_int(a))) == f.one()


@pytest.mark.parametrize("p", (2, 3, 5, 101, 10007))
def test_prime_field_is_zmod_at_a_prime(p):
    # Fp(p) computes what Zmod(p) computes, on reduced and unreduced ints
    # alike; only its label, and so its equality, differ
    f, z = PrimeField(p), IntegersMod(p)
    rng = random.Random(p)
    ks = [0, p, -p, p - 1, 2 * p + 1] + [rng.randint(-3 * p, 3 * p) for _ in range(12)]
    units = [k for k in ks if k % p]
    for name in ("is_field", "is_domain", "modulus_int"):
        assert getattr(f, name) == getattr(z, name), name
    for k in ks:
        for name in ("from_int", "canon", "neg", "is_unit", "canonical_associate", "is_prime_elem",
                     "prime_factors", "format_elem", "elem_sort_key"):
            assert getattr(f, name)(k) == getattr(z, name)(k), (name, k)
        assert f.parse_elem(str(k)) == z.parse_elem(str(k)), k
        for b in ks:
            for name in ("add", "mul", "sub"):
                assert getattr(f, name)(k, b) == getattr(z, name)(k, b), (name, k, b)
        for b in units:
            for name in ("divmod_", "divide"):
                assert getattr(f, name)(k, b) == getattr(z, name)(k, b), (name, k, b)
    for u in units:
        assert (f.inv(u), f.norm(u)) == (z.inv(u), z.norm(u)), u
    for bound in (0, 10, 100):
        assert f.maximal_prime_window(bound) == z.maximal_prime_window(bound) == []
    assert f != z and f.label != z.label == f"Zmod({p})" and f.label == f"Fp({p})"
    with pytest.raises(RingMismatch, match=rf"^mixed rings Fp\({p}\) and Zmod\({p}\)$"):
        Matrix.identity(f, 2).mul(Matrix.identity(z, 2))


def monic_polys(p, deg):
    """Every monic polynomial over F_p of exactly this degree, low degree first."""
    out = []
    for lower in range(p ** deg):
        cs = []
        for _ in range(deg):
            cs.append(lower % p)
            lower //= p
        out.append(tuple(cs) + (1,))
    return out


@pytest.mark.parametrize("p,top", ((2, 9), (3, 6), (5, 4), (7, 3)))
def test_poly_factors_match_full_enumeration(p, top):
    # the definition: a monic polynomial of positive degree is irreducible
    # when it is no product of two of positive degree
    r = PolyOverPrimeField(p)
    reducible = {r.mul(f, g) for d in range(1, top // 2 + 1) for e in range(d, top - d + 1)
                 for f in monic_polys(p, d) for g in monic_polys(p, e)}
    irreducible = [f for d in range(1, top + 1) for f in monic_polys(p, d) if f not in reducible]
    for d in range(1, top + 1):
        for a in monic_polys(p, d):
            want = [f for f in irreducible if len(f) <= len(a) and not r.divmod_(a, f)[1]]
            assert r.prime_factors(a) == want, r.format_elem(a)
            assert r.is_prime_elem(a) == (want == [a]), r.format_elem(a)


def test_poly_factoring_is_capped():
    # x^21+x+1 over F_2 splits into degrees 7 and 14 by trial division up to
    # degree 10; x^4+1 over F_101 would need 101 + 101^2 candidates
    r = PolyOverPrimeField(2)
    factors = r.prime_factors(r.parse_elem("x^21+x+1"))
    assert [r.format_elem(f) for f in factors] == ["x^7+x^5+x^3+x+1", "x^14+x^12+x^7+x^6+x^4+x^3+1"]
    big = PolyOverPrimeField(101)
    assert big.is_prime_elem(big.parse_elem("x^2+2"))
    with pytest.raises(BadElement, match=r"^FpX\(101\): factoring x\^4\+1 would trial-divide by more than 10\^4"):
        big.prime_factors(big.parse_elem("x^4+1"))
    with pytest.raises(BadElement):
        prime_ideal(big, big.parse_elem("x^4+1"))


def test_int_factoring_matches_sympy_below_the_cap():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    ks = [rng.randint(-10**4, 10**4) for _ in range(200)] + [rng.randint(2, 10**12) for _ in range(40)]
    # two primes just under 10^6: the most trial division the cap allows; and
    # past 10^12, a number whose cofactor shrinks below the cap is decided
    ks += [999983 * 999979, 999983, 2**100 * 3**50 * 999983]
    for k in ks:
        assert rings.int_prime_factors(k) == (sorted(sympy.factorint(abs(k))) if k else [])
        assert rings.is_prime_int(k) == bool(sympy.isprime(k))
    n = (10**9 + 7) * (10**9 + 9)
    with pytest.raises(BadElement, match=rf"^factoring {n} would trial-divide past the cap 10\^6$"):
        rings.int_prime_factors(n)
    with pytest.raises(BadElement, match=rf"^deciding whether {n} is prime would trial-divide past the cap 10\^6$"):
        rings.is_prime_int(n)


def test_zmod_decides_primality_once(monkeypatch):
    calls = []
    real = rings.is_prime_int
    monkeypatch.setattr(rings, "is_prime_int", lambda k: calls.append(k) or real(k))
    r = IntegersMod(999999937)
    for _ in range(1000):
        assert r.is_field and r.is_domain
    assert len(calls) <= 1
    a, b = IntegersMod(12), IntegersMod(12)
    assert not a.is_field and not a.is_domain
    assert a == b and hash(a) == hash(b)
