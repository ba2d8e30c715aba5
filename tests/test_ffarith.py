import pytest
from hypothesis import given, settings, strategies as st

from quartics.ffarith import (
    chi12,
    check_prime,
    inv_mod,
    legendre,
    poly_gcd,
    poly_mod,
    poly_powmod,
    proj_reps,
    quadratic_nonresidue,
    sqrt_mod,
)
from quartics import intfactor
from quartics.intfactor import factorize, is_prime, primes_below

ODD_PRIMES = [p for p in primes_below(60) if p > 2]


def test_legendre_basic():
    assert legendre(0, 7) == 0
    assert legendre(4, 5) == 1
    assert legendre(2, 5) == -1  # squares mod 5 are {0, 1, 4}


def test_legendre_rejects_two():
    with pytest.raises(ValueError):
        legendre(3, 2)


@pytest.mark.parametrize("p", [p for p in ODD_PRIMES if p <= 13])
def test_legendre_multiplicative_exhaustive(p):
    for a in range(p):
        for b in range(p):
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_square_count(p):
    assert sum(1 for a in range(p) if legendre(a, p) == 1) == (p - 1) // 2


def test_chi12_values():
    assert chi12(11) == 1
    assert chi12(5) == -1
    assert chi12(13) == 1
    for p in (2, 3):
        with pytest.raises(ValueError):
            chi12(p)


def test_chi12_is_legendre_three():
    for p in primes_below(1001):
        if p > 3:
            assert chi12(p) == legendre(3, p)


def test_inv_mod():
    assert inv_mod(1, 7) == 1
    assert inv_mod(4, 5) == 4  # 16 = 1 mod 5
    assert inv_mod(6, 7) == 6  # 36 = 1 mod 7
    with pytest.raises(ValueError):
        inv_mod(0, 7)
    with pytest.raises(ValueError):
        inv_mod(14, 7)


def test_quadratic_nonresidue():
    assert quadratic_nonresidue(5) == 2
    assert quadratic_nonresidue(7) == 3  # 2 is a square mod 7
    assert quadratic_nonresidue(11) == 2
    for p in ODD_PRIMES:
        b = quadratic_nonresidue(p)
        assert legendre(b, p) == -1
        assert all(legendre(c, p) != -1 for c in range(1, b))


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_sqrt_mod(p):
    for a in range(p):
        r = sqrt_mod(a, p)
        if legendre(a, p) == -1:
            assert r is None
        else:
            assert r is not None and r * r % p == a


def test_poly_powmod_identity():
    f = [1, 0, 2, 1]  # 1 + 2x^2 + x^3 over F_5
    assert poly_powmod([0, 1], 1, f, 5) == [0, 1]


def test_poly_powmod_frobenius_nonresidue():
    # x^p mod (x^2 - b) is -x when b is a nonresidue: no fixed root
    for p in (5, 7, 11, 13):
        b = quadratic_nonresidue(p)
        frob = poly_powmod([0, 1], p, [-b % p, 0, 1], p)
        assert frob != [0, 1]
        assert frob == [0, p - 1]


def test_poly_powmod_frobenius_order_two():
    # squarefree modulus with irreducible factors of degree <= 2 divides x^(p^2) - x
    p = 5
    b = quadratic_nonresidue(p)
    f = [0, 1]  # x
    g = [-b % p, 0, 1]  # x^2 - b, irreducible
    prod = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            prod[i + j] = (prod[i + j] + fi * gj) % p
    assert poly_powmod([0, 1], p * p, prod, p) == [0, 1]
    assert poly_powmod([0, 1], p * p, g, p) == [0, 1]


def test_poly_gcd():
    # (x+1)^2 (x+2) and (x+1)(x+3) share exactly (x+1) over F_7
    a = [2, 5, 4, 1]  # (x+1)^2 (x+2)
    b = [3, 4, 1]  # (x+1)(x+3)
    assert poly_gcd(a, b, 7) == [1, 1]


def test_poly_mod_reduces():
    assert poly_mod([1, 2, 3, 4, 5], [1, 1], 7) == [3]  # value at x = -1 mod 7


def test_check_prime():
    assert check_prime(5) == 5
    assert check_prime(5, min_exclusive=3) == 5
    with pytest.raises(ValueError):
        check_prime(3, min_exclusive=3)
    with pytest.raises(ValueError):
        check_prime(9)


def test_check_prime_rejects_non_ints_every_time():
    for bad in (5.0, "5", [5], {5: 1}, True, 9, 9):
        with pytest.raises(ValueError):
            check_prime(bad)


def test_proj_reps_order_and_count():
    assert list(proj_reps(3, 2)) == [(1, 0), (1, 1), (1, 2), (0, 1)]
    assert list(proj_reps(3, 3))[-4:] == [(0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 1)]
    for p, n in ((5, 2), (5, 3), (7, 5)):
        reps = list(proj_reps(p, n))
        assert len(reps) == len(set(reps)) == (p**n - 1) // (p - 1)
        assert all(next(v for v in c if v) == 1 for c in reps)


def test_is_prime_small():
    expected = set(primes_below(200))
    for n in range(200):
        assert is_prime(n) == (n in expected)


def test_factorize():
    r = factorize(-91)
    assert r.factors == {7: 1, 13: 1} and r.complete and r.squarefree
    r = factorize(12)
    assert r.omega == 3 and not r.squarefree
    big = 1000003 * 1000033
    r = factorize(big, trial_bound=1000)
    assert not r.complete and r.cofactor == big


def test_factorize_sieves_to_isqrt(monkeypatch):
    limits = []

    def spy(limit):
        limits.append(limit)
        return primes_below(limit)

    monkeypatch.setattr(intfactor, "primes_below", spy)
    assert factorize(160).factors == {2: 5, 5: 1}
    assert limits and max(limits) <= 32


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(ODD_PRIMES))
def test_legendre_multiplicative_random(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)
