"""The transform of the singular-quartic indicator over F_p.

For the indicator Phi_p of {Disc = 0} on the 5-dimensional space of binary
quartics, the normalized transform at f is

    Phi_hat_p(f) = p^-5 * sum over singular w of e^(2 pi i [w, f] / p),

always a rational number with denominator p^5; we carry the integer
n = p^5 * Phi_hat_p(f) exactly.  Two independent evaluation routes:

* oracle_n sums over the singular set directly.  The singular set is
  a cone, so the nonzero fibers of w -> [w, f] are equinumerous and the
  sum collapses to N0 - (N - N0)/(p - 1); the full fiber vector is
  computed and checked on every call.

* closed_n dispatches on the invariants and splitting type of f:

    n = p^4 + p^3 - p^2                       f = 0
        p^2 (p - 1)                           type (1^4) or (1^3 1)
        -chi12(p) p (p - 1)                   type (1^2 1^2)
        chi12(p) p (p + 1)                    type (2^2)
        chi12(p) p                            type (1^2 11) or (1^2 2)
        (-3 I(f) / p) p                       J = 0, I != 0
        p * a(E'_f)                           J != 0, Disc != 0

  with a(E'_f) = p + 1 - #E'_f(F_p) for E'_f : y^2 = x^3 - 3I x^2 + J^2.

Both routes need p > 3.  For squarefree composite moduli, Phi_hat_q
factors over the primes dividing q with the p in {2, 3} parts defined
away (their transforms are only ever bounded by 1).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

import numpy as np

from .ffarith import check_prime, chi12, legendre
from .forms import (
    QuarticForm,
    SplittingType,
    invariants_mod,
    splitting_type_mod,
)
from .intfactor import factorize
from .schemes import eprime_count
from .vectorized import oracle_n_batch

__all__ = [
    "BoundClass",
    "oracle_n",
    "closed_n",
    "fourier_q",
    "bound_class",
]


def _as_modp_coeffs(f, p: int):
    if isinstance(f, QuarticForm):
        if f.p is not None and f.p != p:
            raise ValueError(f"form lives mod {f.p}, not mod {p}")
        c = f.coeffs
    else:
        c = tuple(f)
    return tuple(v % p for v in c)


def oracle_n(p: int, c) -> int:
    """Exact n = p^5 * Phi_hat_p(f) for a coefficient 5-tuple, from the
    fibers of w -> [w, f] over the singular set (precomputed once per p and
    cached), every fiber computed and the nonzero ones checked equal
    (oracle_n_batch)."""
    check_prime(p, min_exclusive=3)
    return int(oracle_n_batch(p, np.array([[v % p for v in c]], dtype=np.int64))[0])


def closed_n(p: int, c) -> int:
    """Closed-form n = p^5 * Phi_hat_p(f) for a coefficient 5-tuple mod p."""
    check_prime(p, min_exclusive=3)
    c = tuple(v % p for v in c)
    if not any(c):
        return p**4 + p**3 - p**2
    i, j, d = invariants_mod(c, p)
    if d != 0:
        if j != 0:
            return p * (p + 1 - eprime_count(p, i, j))
        return legendre(-3 * i, p) * p
    if j == 0:  # I = J = 0: triple or quadruple root
        return p * p * (p - 1)
    typ = splitting_type_mod(c, p)
    chi = chi12(p)
    if typ in (SplittingType.D1211, SplittingType.D122):
        return chi * p
    if typ is SplittingType.D1212:
        return -chi * p * (p - 1)
    if typ is SplittingType.D22:
        return chi * p * (p + 1)
    raise RuntimeError(f"type {typ} with Disc = 0, J != 0 (impossible)")


def fourier_q(q: int, f: QuarticForm) -> Fraction:
    """Phi_hat_q(f) for squarefree q: the product over primes p | q with
    p > 3 of the mod-p transform values (empty product 1; the 2- and
    3-parts of q are defined away)."""
    if q <= 0:
        raise ValueError("positive modulus required")
    if isinstance(f, QuarticForm) and f.p is not None:
        raise ValueError("fourier_q needs an integral form")
    res = factorize(q)
    if not res.complete:
        raise ValueError(f"modulus {q} too large to factor")
    if any(e > 1 for e in res.factors.values()):
        raise ValueError(f"modulus {q} is not squarefree")
    coeffs = f.coeffs if isinstance(f, QuarticForm) else tuple(f)
    out = Fraction(1)
    for p in res.factors:
        if p > 3:
            out *= Fraction(closed_n(p, tuple(v % p for v in coeffs)), p**5)
    return out


class BoundClass(Enum):
    """Size classes of the transform: |Phi_hat_p| is O(p^-1) at the origin,
    O(p^-2) on the triple/double-double family, O(p^-7/2) elsewhere."""

    ORIGIN = "origin"
    FAMILY_X = "family_x"
    GENERIC = "generic"

    @property
    def exponent(self) -> float:
        return {"origin": 1.0, "family_x": 2.0, "generic": 3.5}[self.value]

    def n_bound_holds(self, n: int, p: int) -> bool:
        """Exact check of |n| against the class bound at the n = p^5 scale:
        p^4 + p^3 - p^2 at the origin, p^3 on the family, 2 p^(3/2) + p
        generically."""
        n = abs(n)
        if self is BoundClass.ORIGIN:
            return n <= p**4 + p**3 - p**2
        if self is BoundClass.FAMILY_X:
            return n <= p**3
        return n <= p or (n - p) ** 2 <= 4 * p**3


def bound_class(p: int, f) -> BoundClass:
    """Classify f mod p: origin (f = 0), the family of forms with a triple
    root or two double roots, or generic."""
    check_prime(p, min_exclusive=3)
    c = _as_modp_coeffs(f, p)
    if not any(c):
        return BoundClass.ORIGIN
    typ = splitting_type_mod(c, p)
    return BoundClass.FAMILY_X if typ.in_family_x else BoundClass.GENERIC
