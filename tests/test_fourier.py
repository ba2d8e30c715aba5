import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quartics.forms import QuarticForm, act
from quartics.fourier import (
    BoundClass,
    bound_class,
    closed_n,
    fourier_q,
    oracle_n,
)
from quartics.vectorized import singular_coeff_array


def rand_gl2(rng, p):
    while True:
        g = tuple(rng.randrange(p) for _ in range(4))
        if (g[0] * g[3] - g[1] * g[2]) % p:
            return g


def test_theorem_values():
    assert oracle_n(5, (0, 0, 0, 0, 0)) == 725
    assert closed_n(5, (0, 0, 0, 0, 0)) == 5**4 + 5**3 - 5**2
    assert oracle_n(5, (1, 0, 0, 0, 0)) == 100  # type (1^4): p^2(p-1)
    assert closed_n(5, (1, 0, 0, 0, 0)) == 100
    assert oracle_n(5, (1, 0, 0, 1, 0)) == 0  # trace 0 curve
    # type (2^2) at p=5: chi12(5) * 5 * 6 = -30
    from quartics.ffarith import quadratic_nonresidue

    beta = quadratic_nonresidue(5)
    sq = (1, 0, -2 * beta, 0, beta * beta)
    assert closed_n(5, sq) == -30
    assert oracle_n(5, sq) == -30


def test_rejects_small_primes():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            closed_n(p, (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            oracle_n(p, (1, 0, 0, 0, 0))


def test_semideg_value():
    # J = 0, I != 0: n = (-3I/p) p
    from quartics.ffarith import legendre
    from quartics.forms import invariants_mod

    c = (1, 0, 0, 0, 1)
    for p in (5, 7, 11, 13):
        i, j, d = invariants_mod(c, p)
        assert j == 0 and d != 0
        assert closed_n(p, c) == legendre(-3 * i, p) * p == oracle_n(p, c)


@pytest.mark.parametrize("p", [11, 13])
def test_oracle_equals_closed_sampled(p):
    rng = random.Random(p)
    for _ in range(60):
        c = tuple(rng.randrange(p) for _ in range(5))
        assert oracle_n(p, c) == closed_n(p, c)


def test_pgl_invariance():
    rng = random.Random(7)
    for p in (5, 7, 11):
        for _ in range(20):
            c = tuple(rng.randrange(p) for _ in range(5))
            f = QuarticForm(*c, p=p)
            g = rand_gl2(rng, p)
            lam = rng.randrange(1, p)
            assert closed_n(p, act(g, f).coeffs) == closed_n(p, c)
            assert closed_n(p, tuple(lam * v % p for v in c)) == closed_n(p, c)


def test_fourier_q_convention():
    f0 = QuarticForm(-1, -38, -12, -8, 0)
    assert fourier_q(6, f0) == 1
    assert fourier_q(1, f0) == 1
    assert fourier_q(5, (0, 0, 0, 0, 0)) == Fraction(725, 3125)
    with pytest.raises(ValueError):
        fourier_q(12, f0)  # not squarefree
    with pytest.raises(ValueError):
        fourier_q(0, f0)


def test_fourier_q_products():
    f = (1, 2, 0, 1, 3)
    assert fourier_q(35, f) == fourier_q(5, f) * fourier_q(7, f)
    assert fourier_q(70, f) == fourier_q(35, f)  # the 2-part drops out
    assert fourier_q(105, f) == fourier_q(35, f)


def crt_brute_n35(f):
    """35^5 Phi_hat_35(f) by the genuine mod-35 character sum, evaluated
    exactly: fibers of the 12-scaled pairing over the singular set mod 35
    are constant on gcd classes, and the class sums of e(s/35) are the
    Mobius values 1, mu(5), mu(7), mu(35) = 1, -1, -1, 1."""
    s5 = singular_coeff_array(5)
    s7 = singular_coeff_array(7)
    # 21 = 1 mod 5, 0 mod 7;  15 = 0 mod 5, 1 mod 7
    W = (21 * s5[:, None, :] + 15 * s7[None, :, :]).reshape(-1, 5) % 35
    assert len(W) == 725 * 2695
    wts = np.array([12, 3, 2, 3, 12], dtype=np.int64)
    t = ((W * wts) % 35) @ np.array(f, dtype=np.int64) % 35
    hist = np.bincount(t, minlength=35)
    for g in (1, 5, 7):
        vals = {int(hist[(12 * s) % 35]) for s in range(1, 35) if math.gcd(s, 35) == g}
        assert len(vals) == 1, f"fibers differ within gcd class {g}"
    return (
        int(hist[0])
        + int(hist[12 % 35])
        - int(hist[(12 * 5) % 35])
        - int(hist[(12 * 7) % 35])
    )


@pytest.mark.parametrize(
    "f",
    [(0, 0, 1, 0, 0), (1, 0, 0, 0, 1), (2, 1, 3, 1, 4), (1, 2, 0, 1, 3)],
)
def test_fourier_q_crt_brute(f):
    assert fourier_q(35, f) == Fraction(crt_brute_n35(f), 35**5)


def test_bound_class_tags():
    assert bound_class(5, (0, 0, 0, 0, 0)) is BoundClass.ORIGIN
    assert bound_class(5, (0, 0, 1, 0, 0)) is BoundClass.FAMILY_X
    assert bound_class(5, (1, 0, 0, 1, 0)) is BoundClass.GENERIC
    assert bound_class(5, (1, 0, 1, 0, 0)) is BoundClass.GENERIC  # (1^2 11)
    assert BoundClass.ORIGIN.exponent == 1.0
    assert BoundClass.GENERIC.exponent == 3.5


def test_bound_class_numeric():
    # the family bound p^3 and generic bound 2 p^(3/2) + p on sampled forms
    rng = random.Random(9)
    for p in (5, 7, 11):
        for _ in range(80):
            c = tuple(rng.randrange(p) for _ in range(5))
            n = closed_n(p, c)
            assert bound_class(p, c).n_bound_holds(n, p)
    assert BoundClass.FAMILY_X.n_bound_holds(5**3, 5)
    assert not BoundClass.FAMILY_X.n_bound_holds(5**3 + 1, 5)
    assert not BoundClass.GENERIC.n_bound_holds(2 * 12 + 5 + 1, 5)  # > 2 p^1.5 + p


def test_mismatched_modulus_rejected():
    with pytest.raises(ValueError):
        bound_class(5, QuarticForm(1, 0, 0, 0, 0, p=7))
    with pytest.raises(ValueError):
        fourier_q(35, QuarticForm(1, 0, 0, 0, 0, p=7))
