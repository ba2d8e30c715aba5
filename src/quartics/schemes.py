"""Point counts on the projective objects attached to singular quartics.

X is the projectivized singular locus in P(V); for a nonzero dual form f,
X^f cuts X with the hyperplane [h, f] = 0.  Writing forms with a repeated
linear factor as l^2*q exhibits X^f through three auxiliary incidence
schemes, counted here both by brute enumeration of their source spaces

    X^f_{1^2 2}   in  P1 x P2   ([l^2 q, f] = 0),
    X^f_{2^2}     in  P2        ([q^2, f] = 0),
    X^f_{1^2 1^2} in  P1 x P1   ([l1^2 l2^2, f] = 0),

and by the closed forms the fiber bookkeeping yields:

    1_{Disc=0}(h) = m1(h) + m2(h) - m3(h)

for the fiber sizes m_i of the three squaring maps over h, so that

    p^5 * Phi_hat_p(f) = p * (#X_{1^2 2} + #X_{2^2} - #X_{1^2 1^2} - (p+1)^2).

All counts are exact integers; everything dispatches on (I, J, Disc) and
the splitting type.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import product

from .elliptic import WeierstrassCurve, point_count
from .ffarith import chi12, check_prime, legendre, poly_gcd, proj_reps
from .forms import (
    Coeffs,
    QuarticForm,
    SplittingType,
    catalecticant_kernel_quadratic,
    disc27,
    form_product,
    hessian_mod,
    invariants_mod,
    invariants_raw,
    pairing12,
    quartic_square_root_mod,
    splitting_type_mod,
)

__all__ = [
    "SemidegCase",
    "count_singular_forms",
    "brute_count_singular_forms",
    "count_squarefree_forms",
    "brute_count_squarefree_forms",
    "count_X",
    "brute_count_X",
    "count_Xf",
    "psi_fiber_counts",
    "count_X122",
    "count_X22",
    "count_X1212",
    "closed_scheme_counts",
    "eprime_count",
    "semideg_classify",
    "proj_p1_points",
    "proj_p2_points",
    "singular_proj_reps",
]


class SemidegCase(Enum):
    """The four F_p-splitting configurations of X^f_{1^2 1^2} when J(f) = 0
    and Disc(f) != 0: divisors split / do not split, crossed with the two
    intersection points rational / conjugate."""

    I = "i"  # split divisors, rational intersection: count 2p
    II = "ii"  # split divisors, conjugate intersection: count 2p + 2
    III = "iii"  # non-split divisors, rational intersection: count 2
    IV = "iv"  # non-split divisors, conjugate intersection: count 0

    @property
    def x1212_count_at(self):
        return {"i": lambda p: 2 * p, "ii": lambda p: 2 * p + 2,
                "iii": lambda p: 2, "iv": lambda p: 0}[self.value]


# ---------------------------------------------------------------------------
# Counting lemmas (closed forms + brute companions)


def count_singular_forms(p: int) -> int:
    """#{f in V(F_p) : Disc(f) = 0} = p^4 + p^3 - p^2 (zero form included)."""
    check_prime(p, min_exclusive=3)
    return p**4 + p**3 - p**2


def brute_count_singular_forms(p: int) -> int:
    """Companion exhaustive counter over all p^5 forms."""
    check_prime(p, min_exclusive=3)
    count = 0
    for c in product(range(p), repeat=5):
        i, j = invariants_raw(c)
        if disc27(i % p, j % p) % p == 0:
            count += 1
    return count


def count_squarefree_forms(n: int, p: int) -> int:
    """Number of squarefree binary n-ic forms over F_p for n >= 3:
    p^(n+1) (1 - 1/p)(1 - 1/p^2)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    check_prime(p)
    return p ** (n - 2) * (p - 1) * (p * p - 1)


def brute_count_squarefree_forms(n: int, p: int) -> int:
    """Companion counter: exhaustive over a projective transversal (the
    squarefree property is scaling-invariant), times p - 1 scalars."""
    if n < 3:
        raise ValueError("n >= 3 required")
    check_prime(p)
    reps = 0
    for c in proj_reps(p, n + 1):
        if _is_squarefree_form(c, p):
            reps += 1
    return reps * (p - 1)


def _is_squarefree_form(c, p: int) -> bool:
    k = 0
    while k < len(c) and c[k] == 0:
        k += 1
    if k >= 2:
        return False
    u = list(reversed(c[k:]))  # ascending univariate coefficients
    if len(u) == 1:
        return k <= 1
    du = [ci * i % p for i, ci in enumerate(u)][1:]
    return len(poly_gcd(u, du, p)) <= 1


def count_X(p: int) -> int:
    """#X(F_p) = (p^4 + p^3 - p^2 - 1)/(p - 1) = p^3 + 2p^2 + p + 1."""
    check_prime(p, min_exclusive=3)
    return p**3 + 2 * p**2 + p + 1


def brute_count_X(p: int) -> int:
    """Companion counter enumerating canonical representatives of P(V)."""
    return len(singular_proj_reps(p))


# ---------------------------------------------------------------------------
# Projective enumeration (canonical first-nonzero-is-1 representatives)


@lru_cache(maxsize=32)
def proj_p1_points(p: int) -> tuple:
    return tuple(proj_reps(p, 2))


@lru_cache(maxsize=32)
def proj_p2_points(p: int) -> tuple:
    return tuple(proj_reps(p, 3))


@lru_cache(maxsize=16)
def singular_proj_reps(p: int) -> tuple:
    """Canonical representatives of X(F_p) in P(V)."""
    check_prime(p, min_exclusive=3)
    out = []
    for c in proj_reps(p, 5):
        i, j = invariants_raw(c)
        if disc27(i % p, j % p) % p == 0:
            out.append(c)
    return tuple(out)


def _canonical(c, p: int):
    c = tuple(v % p for v in c)
    for v in c:
        if v:
            inv = pow(v, -1, p)
            return tuple(x * inv % p for x in c)
    return c


@lru_cache(maxsize=16)
def _square_images(p: int) -> tuple[tuple, tuple, tuple]:
    """Integer coefficients of l^2 for each l in P1, of q^2 for each q in
    P2 and of l1^2 l2^2 for each (l1, l2) in P1 x P1, one tuple per point:
    the values of the squaring maps, shared by every form's count."""
    l2 = tuple(tuple(form_product(s, s)) for s in proj_p1_points(p))
    q2 = tuple(tuple(form_product(t, t)) for t in proj_p2_points(p))
    l1l2 = tuple(tuple(form_product(u, v)) for u in l2 for v in l2)
    return l2, q2, l1l2


@lru_cache(maxsize=8)
def _psi_image_counts(p: int):
    """Fiber-size dictionaries of the three squaring maps, keyed by the
    canonical representative of the image point in P(V)."""
    check_prime(p, min_exclusive=3)
    l2, q2, l1l2 = _square_images(p)
    l2q = (form_product(u, t) for u in l2 for t in proj_p2_points(p))
    return tuple(Counter(_canonical(w, p) for w in image) for image in (l2q, q2, l1l2))


def psi_fiber_counts(h: QuarticForm) -> tuple[int, int, int]:
    """Fiber sizes (m1, m2, m3) of the three squaring maps over the line of
    a nonzero form h; (0, 0, 0) off their images.

    Per splitting type: nondegenerate (0,0,0); (1^4) (1,1,1);
    (1^3 1) (1,0,0); (1^2 1^2) (2,1,2); (2^2) (0,1,0); (1^2 11) and
    (1^2 2) (1,0,0).  Consequently 1_{Disc=0}(h) = m1 + m2 - m3.
    """
    if h.p is None:
        raise ValueError("fiber counts need a mod-p form")
    if h.is_zero:
        raise ValueError("fiber counts need a nonzero form")
    d122, d22, d1212 = _psi_image_counts(h.p)
    key = _canonical(h.coeffs, h.p)
    return d122.get(key, 0), d22.get(key, 0), d1212.get(key, 0)


# ---------------------------------------------------------------------------
# Brute-force scheme counts (full source-space enumeration)


def _require_nonzero_modp(f: QuarticForm) -> tuple[Coeffs, int]:
    if f.p is None:
        raise ValueError("a mod-p form is required")
    p = check_prime(f.p, min_exclusive=3)
    if f.is_zero:
        raise ValueError("f = 0 is rejected; the hyperplane section is undefined")
    return f.coeffs, p


def count_Xf(f: QuarticForm) -> int:
    """#X^f(F_p) = #{h in P(V) : Disc(h) = [h, f] = 0} by enumeration."""
    c, p = _require_nonzero_modp(f)
    return sum(1 for h in singular_proj_reps(p) if pairing12(h, c) % p == 0)


def count_X122(f: QuarticForm) -> int:
    """Brute count of {(l, q) in P1 x P2 : [l^2 q, f] = 0}."""
    c, p = _require_nonzero_modp(f)
    f0, f1, f2, f3, f4 = c
    total = 0
    for s0, s1 in proj_p1_points(p):
        c0 = (12 * f0 * s0 * s0 + 6 * f1 * s0 * s1 + 2 * f2 * s1 * s1) % p
        c1 = (3 * f1 * s0 * s0 + 4 * f2 * s0 * s1 + 3 * f3 * s1 * s1) % p
        c2 = (2 * f2 * s0 * s0 + 6 * f3 * s0 * s1 + 12 * f4 * s1 * s1) % p
        for t0, t1, t2 in proj_p2_points(p):
            if (c0 * t0 + c1 * t1 + c2 * t2) % p == 0:
                total += 1
    return total


def count_X22(f: QuarticForm) -> int:
    """Brute count of {q in P2 : [q^2, f] = 0}."""
    c, p = _require_nonzero_modp(f)
    _, q2, _ = _square_images(p)
    return sum(1 for w in q2 if pairing12(w, c) % p == 0)


def count_X1212(f: QuarticForm) -> int:
    """Brute count of {(l1, l2) in P1 x P1 : [l1^2 l2^2, f] = 0}."""
    c, p = _require_nonzero_modp(f)
    _, _, l1l2 = _square_images(p)
    return sum(1 for w in l1l2 if pairing12(w, c) % p == 0)


# ---------------------------------------------------------------------------
# Closed forms


@lru_cache(maxsize=None)
def eprime_count(p: int, i: int, j: int) -> int:
    """#E'(F_p) for y^2 = x^3 - 3i x^2 + j^2, memoized on (p, i, j) mod p.

    Curves over a fixed p with equal (I, J) mod p share their counts, so
    sweeps over large boxes reuse every trace.
    """
    return point_count(WeierstrassCurve(0, (-3 * i) % p, 0, j * j % p, p=p))


def _he_is_square(c: Coeffs, p: int) -> bool:
    return quartic_square_root_mod(hessian_mod(c, p), p) is not None


def semideg_classify(f: QuarticForm) -> SemidegCase:
    """Classify a semi-degenerate form (J = 0, Disc != 0 over F_p) into the
    four X_{1^2 1^2} configurations.

    Divisor splitting is read off from whether He_f is the square of an
    F_p-quadratic form; rationality of the intersection points from whether
    the kernel quadratic of the catalecticant splits over F_p.
    """
    c, p = _require_nonzero_modp(f)
    i, j, d = invariants_mod(c, p)
    if j != 0 or d == 0:
        raise ValueError("semidegenerate form required: J = 0 and Disc != 0")
    u = catalecticant_kernel_quadratic(f)
    if u is None:
        raise RuntimeError("corank-1 catalecticant expected in the semideg case")
    du = (u[1] * u[1] - 4 * u[0] * u[2]) % p
    if du == 0:
        raise RuntimeError("kernel quadratic unexpectedly degenerate")
    lines_rational = legendre(du, p) == 1
    he_square = _he_is_square(c, p)
    if he_square:
        return SemidegCase.I if lines_rational else SemidegCase.II
    return SemidegCase.III if lines_rational else SemidegCase.IV


def closed_scheme_counts(f: QuarticForm) -> tuple[int, int, int]:
    """(#X_{1^2 2}, #X_{2^2}, #X_{1^2 1^2}) by the closed formulas,
    dispatching on splitting type / J / Disc / semideg case."""
    c, p = _require_nonzero_modp(f)
    i, j, d = invariants_mod(c, p)
    chi3 = chi12(p)

    if d != 0:
        x122 = (p + 1) ** 2
        if j != 0:
            return x122, p + 1, eprime_count(p, i, j)
        case = semideg_classify(f)
        x22 = 2 * p + 1 if case in (SemidegCase.I, SemidegCase.II) else 1
        return x122, x22, case.x1212_count_at(p)

    typ = splitting_type_mod(c, p)
    big = typ in (SplittingType.D131, SplittingType.D14)
    x122 = 2 * p * p + 2 * p + 1 if big else (p + 1) ** 2
    if typ is SplittingType.D131:
        return x122, 2 * p + 1, 3 * p + 1
    if typ is SplittingType.D14:
        return x122, p + 1, 2 * p + 1
    # remaining degenerate types all have J != 0
    x22 = p + 1
    if typ in (SplittingType.D1211, SplittingType.D122):
        return x122, x22, p + 1 - chi3
    if typ is SplittingType.D1212:
        return x122, x22, (p + 1) + chi3 * (p - 1)
    if typ is SplittingType.D22:
        return x122, x22, (p + 1) - chi3 * (p + 1)
    raise RuntimeError(f"nondegenerate type {typ} with Disc = 0 (impossible)")
