"""Weierstrass models, exact point counts, and (2,2)-forms on P1 x P1.

Curves are y^2 + c*y = x^3 + g2*x^2 + g1*x + g0.  Point counting is a
single Legendre sweep after completing the square (p odd), so everything
stays exact; traces always carry a Hasse-bound assertion.

A (2,2)-form c(s0,s1; t0,t1) = q0(s)t0^2 + q1(s)t0t1 + q2(s)t1^2 is stored
by its 3x3 coefficient matrix a_ij (q_i = a_i0 s0^2 + a_i1 s0 s1 + a_i2 s1^2).
The relative invariants d2, d3, d4 feed the Weierstrass model of the genus
one curve the form cuts out, and for the form c_f induced by a quartic f
that model is isomorphic to E'_f : y^2 = x^3 - 3 I(f) x^2 + J(f)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffarith import check_prime, inv_mod
from .forms import QuarticForm, disc27, form_product, height_raw, invariants, invariants_raw
from .intfactor import primes_below
from .vectorized import chi_array

__all__ = [
    "WeierstrassCurve",
    "TwoTwoForm",
    "point_count",
    "trace",
    "e_prime_of",
    "two_two_from_quartic",
    "delta_invariants",
    "jacobian_model",
    "model_reduce",
    "curve_height",
    "format_curve",
]


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + c*y = x^3 + g2*x^2 + g1*x + g0 over Z (p=None) or F_p."""

    c: int
    g2: int
    g1: int
    g0: int
    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            check_prime(self.p)
            for name in ("c", "g2", "g1", "g0"):
                object.__setattr__(self, name, getattr(self, name) % self.p)


def format_curve(E: WeierstrassCurve) -> str:
    return f"{E.c};{E.g2},{E.g1},{E.g0}"


def _completed_cubic(E: WeierstrassCurve, p: int) -> tuple[int, int, int]:
    # (y + c/2)^2 = x^3 + g2 x^2 + g1 x + (g0 + c^2/4)
    i4 = inv_mod(4, p)
    return E.g2 % p, E.g1 % p, (E.g0 + E.c * E.c * i4) % p


def _cubic_disc(a: int, b: int, c: int, p: int) -> int:
    # discriminant of x^3 + a x^2 + b x + c
    return (
        18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
    ) % p


def point_count(E: WeierstrassCurve, p: int | None = None) -> int:
    """#E(F_p) including the point at infinity; rejects singular reduction."""
    p = p if p is not None else E.p
    if p is None:
        raise ValueError("a prime is required to count points")
    if p == 2:
        raise ValueError("odd p required for the Legendre sweep")
    check_prime(p)
    a, b, c = _completed_cubic(E, p)
    if _cubic_disc(a, b, c, p) == 0:
        raise ValueError(f"curve {format_curve(E)} is singular mod {p}")
    # Horner with a reduction at each step keeps every int64 value below 3p^2
    x = np.arange(p, dtype=np.int64)
    values = (((x + a) * x % p + b) * x + c) % p
    return p + 1 + int(chi_array(p)[values].sum())


def trace(E: WeierstrassCurve, p: int | None = None) -> int:
    """Frobenius trace a = p + 1 - #E(F_p), with |a| <= 2 sqrt(p) asserted."""
    p_eff = p if p is not None else E.p
    n = point_count(E, p_eff)
    a = p_eff + 1 - n
    if a * a > 4 * p_eff:
        raise RuntimeError(f"Hasse bound violated for {format_curve(E)} mod {p_eff}")
    return a


def e_prime_of(f: QuarticForm) -> WeierstrassCurve:
    """E'_f : y^2 = x^3 - 3 I(f) x^2 + J(f)^2.

    Needs J(f) != 0 and Disc(f) != 0; the model discriminant is
    2^4 3^6 J(f)^2 Disc(f).
    """
    i, j, disc = invariants(f)
    if f.p is not None:
        if j == 0 or disc == 0:
            raise ValueError("E'_f needs J != 0 and Disc != 0 mod p")
        return WeierstrassCurve(0, (-3 * i) % f.p, 0, j * j % f.p, p=f.p)
    if j == 0 or disc == 0:
        raise ValueError("E'_f needs J != 0 and Disc != 0")
    return WeierstrassCurve(0, -3 * i, 0, j * j)


# ---------------------------------------------------------------------------
# (2,2)-forms


@dataclass(frozen=True)
class TwoTwoForm:
    """Coefficient matrix a_ij of a (2,2)-form; integral matrices induced
    by quartics are stored 12-scaled (scaled12=True) to stay exact."""

    rows: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
    p: int | None = None
    scaled12: bool = False

    def value(self, s0, s1, t0, t1):
        """c(s0, s1; t0, t1); divide by 12 externally when scaled12."""
        acc = 0
        for i, tt in enumerate((t0 * t0, t0 * t1, t1 * t1)):
            a, b, c = self.rows[i]
            acc += (a * s0 * s0 + b * s0 * s1 + c * s1 * s1) * tt
        return acc % self.p if self.p is not None else acc


def two_two_from_quartic(f: QuarticForm) -> TwoTwoForm:
    """The (2,2)-form c_f with q0 = f_xx/12, q1 = f_xy/6, q2 = f_yy/12;
    c_f(s; t) equals the pairing of (s0 x + s1 y)^2 (t0 x + t1 y)^2 with f."""
    a0, a1, a2, a3, a4 = f.coeffs
    if f.p is None:
        rows = (
            (12 * a0, 6 * a1, 2 * a2),
            (6 * a1, 8 * a2, 6 * a3),
            (2 * a2, 6 * a3, 12 * a4),
        )
        return TwoTwoForm(rows, scaled12=True)
    p = check_prime(f.p, min_exclusive=3)
    i2, i3, i6 = inv_mod(2, p), inv_mod(3, p), inv_mod(6, p)
    rows = (
        (a0 % p, a1 * i2 % p, a2 * i6 % p),
        (a1 * i2 % p, 2 * a2 * i3 % p, a3 * i2 % p),
        (a2 * i6 % p, a3 * i2 % p, a4 % p),
    )
    return TwoTwoForm(rows, p=p)


def _h_quartic(c: TwoTwoForm) -> tuple:
    # H_c(s0, s1) = q1^2 - 4 q0 q2, a binary quartic in s
    q0, q1, q2 = c.rows
    out = tuple(s - 4 * t for s, t in zip(form_product(q1, q1), form_product(q0, q2)))
    return tuple(v % c.p for v in out) if c.p is not None else out


def delta_invariants(c: TwoTwoForm):
    """Relative invariants (d2, d3, d4) of a (2,2)-form.

    d2 = a11^2 - 4 a10 a12 + 8 a02 a20 - 4 a01 a21 + 8 a00 a22,
    d3 = -det(a_ij), d4 = I(H_c).  For c_f these specialize to
    (2I/3, -J/108, I^2/9).  Exact Fractions over Z, field elements mod p.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = c.rows
    d2 = a11 * a11 - 4 * a10 * a12 + 8 * a02 * a20 - 4 * a01 * a21 + 8 * a00 * a22
    d3 = -(
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    d4 = invariants_raw(_h_quartic(c))[0]
    if c.p is not None:
        return d2 % c.p, d3 % c.p, d4 % c.p
    if c.scaled12:
        return Fraction(d2, 144), Fraction(d3, 1728), Fraction(d4, 20736)
    return Fraction(d2), Fraction(d3), Fraction(d4)


def jacobian_model(c: TwoTwoForm) -> WeierstrassCurve:
    """Weierstrass model y^2 + 216 d3 y = x^3 + 9 d2 x^2 + 27(d2^2 - d4) x
    of the genus one curve cut out by c; rejects Disc(H_c) = 0.

    For c = c_f this is y^2 - 2J y = x^3 + 6I x^2 + 9I^2 x, isomorphic
    to E'_f.
    """
    hq = _h_quartic(c)
    i, j = invariants_raw(hq)
    if c.p is not None:
        p = check_prime(c.p, min_exclusive=3)
        if disc27(i % p, j % p) % p == 0:
            raise ValueError("degenerate (2,2)-form: Disc(H_c) = 0 mod p")
        d2, d3, d4 = delta_invariants(c)
        return WeierstrassCurve(
            216 * d3 % p, 9 * d2 % p, 27 * (d2 * d2 - d4) % p, 0, p=p
        )
    if disc27(i, j) == 0:
        raise ValueError("degenerate (2,2)-form: Disc(H_c) = 0")
    d2, d3, d4 = delta_invariants(c)
    cy, g2, g1 = 216 * d3, 9 * d2, 27 * (d2 * d2 - d4)
    for v in (cy, g2, g1):
        if v.denominator != 1:
            raise ValueError("non-integral Weierstrass coefficients over Z")
    return WeierstrassCurve(int(cy), int(g2), int(g1), 0)


# ---------------------------------------------------------------------------
# Integral model reduction for the congruence class of f0


S_MODULUS = 3**3 * 2**12  # 110592
S_I_RESIDUE = (-3 * 2**8) % S_MODULUS
S_J_RESIDUE = (-(3**3) * 2**10) % S_MODULUS


def curve_height(A: int, B: int) -> int:
    """H(E) = max(4|A|^3, 27 B^2) for y^2 = x^3 + Ax + B."""
    return max(4 * abs(A) ** 3, 27 * B * B)


def model_reduce(f: QuarticForm) -> tuple[int, int, int]:
    """Reduce an integral form with I = -3*2^8, J = -3^3*2^10 (mod 3^3*2^12)
    to the model y^2 + y = x^3 + a x + b.

    Returns (a, b, Delta) with a = -I/768, b = -J/110592 - 1/4 and
    Delta = -64a^3 - 432b^2 - 216b - 27 = Disc(f)/2^20.  Every divisibility
    is checked exactly; Delta must not be divisible by p^12 for any prime.
    """
    if f.p is not None:
        raise ValueError("model_reduce needs integer coefficients")
    i, j, disc = invariants(f)
    if i % S_MODULUS != S_I_RESIDUE or j % S_MODULUS != S_J_RESIDUE:
        raise ValueError("invariant congruences for the reduced model fail")
    if disc % 2**20:
        raise ValueError("2^20 does not divide Disc(f)")
    a, rem_a = divmod(-i, 768)
    if rem_a:
        raise ValueError("768 does not divide -I(f)")
    num_b = -j - 27648  # b = (-J - 3^3*2^10) / 3^3*2^12
    b, rem_b = divmod(num_b, S_MODULUS)
    if rem_b:
        raise ValueError("110592 does not divide -J(f) - 27648")
    delta = -64 * a**3 - 432 * b * b - 216 * b - 27
    if delta != disc // 2**20:
        raise RuntimeError("reduced-model discriminant mismatch (impossible)")
    if delta % 2 == 0 or delta % 3 == 0:
        raise RuntimeError("Delta not coprime to 6 (impossible for this class)")
    limit = int(round(abs(delta) ** (1 / 12))) + 2
    for q in primes_below(limit + 1):
        if delta % q**12 == 0:
            raise ValueError(f"Disc(f)/2^20 divisible by {q}^12")
    A, B = -i // 48, -j // 1728
    if curve_height(A, B) * 27648 != height_raw(i, j):
        raise RuntimeError("height relation H(E) = H(f)/27648 fails (impossible)")
    return a, b, delta
