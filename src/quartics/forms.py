"""Binary quartic forms over Z and over prime fields F_p.

A form a0*x^4 + a1*x^3*y + a2*x^2*y^2 + a3*x*y^3 + a4*y^4 is held as a
frozen QuarticForm; p=None means integer coefficients, otherwise the
coefficients live in F_p.  Fast tuple-level helpers (suffix _mod) operate
on plain 5-tuples and are what the transform evaluators call in loops.

Invariants under the GL2 substitution action g.f = f(ax+cy, bx+dy):

    I(f) = 12 a0 a4 - 3 a1 a3 + a2^2
    J(f) = 72 a0 a2 a4 + 9 a1 a2 a3 - 27 (a0 a3^2 + a1^2 a4) - 2 a2^3
    Disc(f) = (4 I^3 - J^2) / 27

with I(c*g.f) = c^2 det(g)^4 I(f), J(c*g.f) = c^3 det(g)^6 J(f) and
Disc(c*g.f) = c^6 det(g)^12 Disc(f).  Disc vanishes exactly when f has a
repeated factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt

from .ffarith import check_prime, inv_mod, poly_powmod, sqrt_mod
from .intfactor import factorize

__all__ = [
    "QuarticForm",
    "SplittingType",
    "parse_form",
    "format_form",
    "act",
    "twisted_act",
    "invariants",
    "invariants_mod",
    "disc27",
    "pairing",
    "pairing12",
    "form_product",
    "hessian_cov",
    "hessian_mod",
    "catalecticant",
    "catalecticant_corank",
    "splitting_type",
    "splitting_type_mod",
    "quartic_square_root_mod",
    "factor_over_Q",
    "in_family_X",
    "is_R_soluble",
    "height",
    "height_raw",
]

Coeffs = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class QuarticForm:
    """A binary quartic form; p=None for Z-coefficients, else mod-p."""

    a0: int
    a1: int
    a2: int
    a3: int
    a4: int
    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            check_prime(self.p)
            for name in ("a0", "a1", "a2", "a3", "a4"):
                object.__setattr__(self, name, getattr(self, name) % self.p)

    @property
    def coeffs(self) -> Coeffs:
        return (self.a0, self.a1, self.a2, self.a3, self.a4)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @classmethod
    def from_coeffs(cls, c, p: int | None = None) -> "QuarticForm":
        return cls(*[int(x) for x in c], p=p)

    def reduce(self, p: int) -> "QuarticForm":
        """The reduction of an integral form mod p."""
        if self.p is not None:
            raise ValueError("form already lives over a prime field")
        return QuarticForm(*[c % p for c in self.coeffs], p=p)

    def evaluate(self, x: int, y: int) -> int:
        v = (
            self.a0 * x**4
            + self.a1 * x**3 * y
            + self.a2 * x**2 * y**2
            + self.a3 * x * y**3
            + self.a4 * y**4
        )
        return v % self.p if self.p is not None else v

    def __str__(self) -> str:
        return format_form(self.coeffs)


def parse_form(text: str) -> Coeffs:
    """Parse the "a0,a1,a2,a3,a4" serialization."""
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 comma-separated coefficients, got {text!r}")
    return tuple(int(s.strip()) for s in parts)  # type: ignore[return-value]


def format_form(coeffs) -> str:
    return ",".join(str(int(c)) for c in coeffs)


# ---------------------------------------------------------------------------
# Group action


def form_product(u, v) -> list:
    """Coefficients of the product of two binary forms, each given by its
    coefficients from the x-power down.  The entries may be ints or numpy
    arrays (one form per slot), so one call multiplies whole columns."""
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


def _act_coeffs(g, c: Coeffs) -> list[int]:
    a, b, cc, d = g
    xs = [(1,)]  # powers of (a x + c y)
    ys = [(1,)]  # powers of (b x + d y)
    for _ in range(4):
        xs.append(tuple(form_product(xs[-1], (a, cc))))
        ys.append(tuple(form_product(ys[-1], (b, d))))
    out = [0] * 5
    for i, ci in enumerate(c):
        if ci:
            term = form_product(xs[4 - i], ys[i])
            for k, t in enumerate(term):
                out[k] += ci * t
    return out


def act(g, f: QuarticForm) -> QuarticForm:
    """Substitution action: (g.f)(x, y) = f(ax + cy, bx + dy)."""
    a, b, c, d = g
    det = a * d - b * c
    if f.p is None:
        if det not in (1, -1):
            raise ValueError(f"det {det} is not a unit in Z")
    elif det % f.p == 0:
        raise ValueError("singular substitution mod p")
    out = _act_coeffs(g, f.coeffs)
    return QuarticForm.from_coeffs(out, p=f.p)


def twisted_act(g, f: QuarticForm) -> QuarticForm:
    """det(g)^-2-scaled substitution; I, J, Disc are literal invariants."""
    a, b, c, d = g
    det = a * d - b * c
    if f.p is None:
        if det not in (1, -1):
            raise ValueError("twisted action over Z needs det = +-1")
        return act(g, f)
    if det % f.p == 0:
        raise ValueError("singular substitution mod p")
    s = inv_mod(det * det, f.p)
    out = [s * c_ % f.p for c_ in _act_coeffs(g, f.coeffs)]
    return QuarticForm.from_coeffs(out, p=f.p)


# ---------------------------------------------------------------------------
# Invariants, pairing, covariants


def invariants_raw(c: Coeffs) -> tuple[int, int]:
    a0, a1, a2, a3, a4 = c
    i = 12 * a0 * a4 - 3 * a1 * a3 + a2 * a2
    j = (
        72 * a0 * a2 * a4
        + 9 * a1 * a2 * a3
        - 27 * (a0 * a3 * a3 + a1 * a1 * a4)
        - 2 * a2**3
    )
    return i, j


def disc27(i, j):
    """27 Disc = 4 I^3 - J^2 from the invariants, formed in one buffer.

    Takes Python ints, or int64 arrays whose i already has the result's
    shape, a broadcast view included: the in-place steps do not
    broadcast.  int64 callers keep 4|I|^3 + J^2 below 2^63
    (experiments._check_headroom) or reduce I and J mod a small prime
    first."""
    d = i * i
    d *= i
    d *= 4
    d -= j * j
    return d


def invariants_mod(c: Coeffs, p: int) -> tuple[int, int, int]:
    """(I, J, Disc) mod p for p > 3."""
    i, j = invariants_raw(c)
    i %= p
    j %= p
    disc = disc27(i, j) * inv_mod(27, p) % p
    return i, j, disc


def invariants(f: QuarticForm) -> tuple[int, int, int]:
    """(I, J, Disc); exact over Z, reduced for mod-p forms (needs p > 3)."""
    if f.p is not None:
        check_prime(f.p, min_exclusive=3)
        return invariants_mod(f.coeffs, f.p)
    i, j = invariants_raw(f.coeffs)
    num = disc27(i, j)
    if num % 27:
        raise RuntimeError(f"27 does not divide 4I^3 - J^2 for {f} (impossible)")
    return i, j, num // 27


def pairing12(c1, c2) -> int:
    """12-scaled bilinear pairing 12*[f, h] as an exact integer."""
    return (
        12 * c1[0] * c2[0]
        + 3 * c1[1] * c2[1]
        + 2 * c1[2] * c2[2]
        + 3 * c1[3] * c2[3]
        + 12 * c1[4] * c2[4]
    )


def pairing(f: QuarticForm, h: QuarticForm):
    """[f, h] = a0 b0 + a1 b1/4 + a2 b2/6 + a3 b3/4 + a4 b4.

    Over F_p (p > 3) the value is a field element; over Z the 12-scaled
    integer 12*[f, h] is returned to stay exact.  Satisfies
    [g.f, h] = [f, g^T.h].
    """
    if f.p != h.p:
        raise ValueError("forms live over different rings")
    if f.p is None:
        return pairing12(f.coeffs, h.coeffs)
    p = check_prime(f.p, min_exclusive=3)
    return pairing12(f.coeffs, h.coeffs) * inv_mod(12, p) % p


def hessian_raw(c: Coeffs) -> Coeffs:
    a0, a1, a2, a3, a4 = c
    return (
        9 * a1 * a1 - 24 * a0 * a2,
        12 * a1 * a2 - 72 * a0 * a3,
        12 * a2 * a2 - 18 * a1 * a3 - 144 * a0 * a4,
        12 * a2 * a3 - 72 * a1 * a4,
        9 * a3 * a3 - 24 * a2 * a4,
    )


def hessian_mod(c: Coeffs, p: int) -> Coeffs:
    """He_f mod p; like invariants_raw, it also takes five numpy columns."""
    return tuple(v % p for v in hessian_raw(c))  # type: ignore[return-value]


def hessian_cov(f: QuarticForm) -> QuarticForm:
    """The quartic covariant -det[[f_xx, f_xy], [f_xy, f_yy]].

    Disc(He_f) = 2^12 * 3^6 * J(f)^2 * Disc(f).
    """
    return QuarticForm.from_coeffs(hessian_raw(f.coeffs), p=f.p)


def catalecticant(f: QuarticForm):
    """Catalecticant matrix of f as nested tuples.

    Over F_p (p > 3): M with 432*det(M) = J(f).  Over Z the 12-scaled
    integral matrix 12*M is returned (det(12M) = 4*J(f)).
    """
    a0, a1, a2, a3, a4 = f.coeffs
    if f.p is None:
        return (
            (12 * a0, 3 * a1, 2 * a2),
            (3 * a1, 2 * a2, 3 * a3),
            (2 * a2, 3 * a3, 12 * a4),
        )
    p = check_prime(f.p, min_exclusive=3)
    i4, i6 = inv_mod(4, p), inv_mod(6, p)
    return (
        (a0 % p, a1 * i4 % p, a2 * i6 % p),
        (a1 * i4 % p, a2 * i6 % p, a3 * i4 % p),
        (a2 * i6 % p, a3 * i4 % p, a4 % p),
    )


def _det3(m, p):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    ) % p


def _adjugate3(m, p):
    c = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            s = [k for k in range(3) if k != j]
            minor = m[r[0]][s[0]] * m[r[1]][s[1]] - m[r[0]][s[1]] * m[r[1]][s[0]]
            c[j][i] = (-1) ** (i + j) * minor % p
    return c


def catalecticant_kernel_quadratic(f: QuarticForm) -> Coeffs | None:
    """For corank-1 M_f, a nonzero kernel vector (u0, u1, u2) read as the
    quadratic u0 x^2 + u1 xy + u2 y^2; None when M_f is invertible.

    For a form with J = 0, Disc != 0 the kernel quadratic splits over F_p
    exactly when the two fourth-power summand lines of f are F_p-rational
    (both conditions are GL2(F_p)-equivariant and agree on the split and
    conjugate normal forms).
    """
    p = check_prime(f.p or 0, min_exclusive=3)
    m = catalecticant(f)
    if _det3(m, p) != 0:
        return None
    adj = _adjugate3(m, p)
    for row in adj:
        if any(v % p for v in row):
            return tuple(v % p for v in row)  # type: ignore[return-value]
    return None  # corank >= 2


def catalecticant_corank(f: QuarticForm) -> int:
    """Corank of M_f over F_p: 0 iff J != 0; >= 2 iff f is a fourth power."""
    if f.is_zero:
        raise ValueError("zero form has no catalecticant corank")
    p = check_prime(f.p or 0, min_exclusive=3)
    m = catalecticant(f)
    if _det3(m, p) != 0:
        return 0
    adj = _adjugate3(m, p)
    if any(v % p for row in adj for v in row):
        return 1
    if any(v % p for row in m for v in row):
        return 2
    return 3


# ---------------------------------------------------------------------------
# Splitting types over F_p


class SplittingType(Enum):
    """Multiset of (degree, multiplicity) of the irreducible factors."""

    ZERO = "0"
    T1111 = "1111"
    T211 = "211"
    T31 = "31"
    T22 = "22"
    T4 = "4"
    D1211 = "1^2 11"
    D122 = "1^2 2"
    D1212 = "1^2 1^2"
    D22 = "2^2"
    D131 = "1^3 1"
    D14 = "1^4"

    @property
    def degenerate(self) -> bool:
        return self in _DEGENERATE

    @property
    def in_family_x(self) -> bool:
        """Member of the triple-root/double-double-root family closure."""
        return self in _FAMILY_X


_DEGENERATE = {
    SplittingType.ZERO,
    SplittingType.D1211,
    SplittingType.D122,
    SplittingType.D1212,
    SplittingType.D22,
    SplittingType.D131,
    SplittingType.D14,
}

_FAMILY_X = {
    SplittingType.ZERO,
    SplittingType.D1212,
    SplittingType.D22,
    SplittingType.D131,
    SplittingType.D14,
}


def _poly_eval(coeffs_desc, r, p):
    acc = 0
    for c in coeffs_desc:
        acc = (acc * r + c) % p
    return acc


def _deflate(coeffs_desc, r, p):
    # synthetic division by (x - r); assumes r is a root
    out = []
    acc = 0
    for c in coeffs_desc[:-1]:
        acc = (acc * r + c) % p
        out.append(acc)
    return out


def splitting_type_mod(c: Coeffs, p: int) -> SplittingType:
    """Splitting type of a quartic over F_p (p > 3 for the quartic residual
    tests; linear-factor-only cases work for any odd p)."""
    c = tuple(v % p for v in c)
    if not any(c):
        return SplittingType.ZERO

    # multiplicity of the factor y = leading zero run of (a0, a1, ...)
    k = 0
    while c[k] == 0:
        k += 1
    mults = [k] if k else []

    # cofactor dehomogenized at y=1, descending coefficients
    u = list(c[k:])
    for r in range(p):
        if not u or len(u) == 1:
            break
        m = 0
        while len(u) > 1 and _poly_eval(u, r, p) == 0:
            u = _deflate(u, r, p)
            m += 1
        if m:
            mults.append(m)

    deg_r = len(u) - 1 if u else 0
    mults.sort(reverse=True)
    profile = tuple(mults)

    if deg_r == 0:
        return {
            (1, 1, 1, 1): SplittingType.T1111,
            (2, 1, 1): SplittingType.D1211,
            (2, 2): SplittingType.D1212,
            (3, 1): SplittingType.D131,
            (4,): SplittingType.D14,
        }[profile]
    if deg_r == 2:
        return SplittingType.T211 if profile == (1, 1) else SplittingType.D122
    if deg_r == 3:
        return SplittingType.T31
    # rootless quartic residual: square of an irreducible quadratic,
    # two distinct irreducible quadratics, or irreducible
    check_prime(p, min_exclusive=3)
    lead_inv = inv_mod(u[0], p)
    m3, m2, m1, m0 = (x * lead_inv % p for x in u[1:])
    b = m3 * inv_mod(2, p) % p
    e = (m2 - b * b) * inv_mod(2, p) % p
    if m1 == 2 * b * e % p and m0 == e * e % p:
        return SplittingType.D22
    frob2 = poly_powmod([0, 1], p * p, list(reversed(u)), p)
    return SplittingType.T22 if frob2 == [0, 1] else SplittingType.T4


def splitting_type(f: QuarticForm) -> SplittingType:
    if f.p is None:
        raise ValueError("splitting_type needs a mod-p form; use reduce(p)")
    return splitting_type_mod(f.coeffs, f.p)


def quartic_square_root_mod(c: Coeffs, p: int) -> tuple[int, int, int] | None:
    """A quadratic w with w^2 = c over F_p (odd p), or None.

    Decides whether a quartic is literally the square of an F_p-quadratic
    form (not merely a scalar multiple of one).
    """
    h0, h1, h2, h3, h4 = (v % p for v in c)
    if h0 != 0:
        w0 = sqrt_mod(h0, p)
        if w0 is None:
            return None
        iw = inv_mod(2 * w0, p)
        w1 = h1 * iw % p
        w2 = (h2 - w1 * w1) * iw % p
        ok = h3 == 2 * w1 * w2 % p and h4 == w2 * w2 % p
        return (w0, w1, w2) if ok else None
    if h1 != 0:
        return None
    if h2 != 0:
        w1 = sqrt_mod(h2, p)
        if w1 is None:
            return None
        w2 = h3 * inv_mod(2 * w1, p) % p
        return (0, w1, w2) if h4 == w2 * w2 % p else None
    if h3 != 0:
        return None
    w2 = sqrt_mod(h4, p)
    return None if w2 is None else (0, 0, w2)


# ---------------------------------------------------------------------------
# Factorization over Q


def _divisors(n: int) -> list[int]:
    res = factorize(abs(n))
    if not res.complete:
        raise ValueError(f"{n} too large to enumerate divisors")
    divs = [1]
    for q, e in res.factors.items():
        divs = [d * q**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _content_sign(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    lead = next((c for c in coeffs if c), 0)
    return g if lead >= 0 else -g


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int] | None:
    # exact division of integer polynomials (descending), None if inexact
    num = list(num)
    q = []
    while len(num) >= len(den):
        if num[0] % den[0]:
            return None
        c = num[0] // den[0]
        q.append(c)
        for i, d in enumerate(den):
            num[i] -= c * d
        if num[0] != 0:
            raise RuntimeError(f"leading term survived division by {den}")
        num.pop(0)
    return None if any(num) else q


def _quadratic_splits(P: list[int]) -> tuple[list[int], list[int]] | None:
    # P: degree-4 integer poly (descending), primitive, no rational roots.
    p4, p3, p2, p1, p0 = P
    # Mignotte: a degree-2 factor has sup-norm <= 2 ||P||_2
    bound = 2 * (isqrt(sum(c * c for c in P)) + 1)
    for A1 in _divisors(p4):  # wlog both leading coefficients positive
        A2 = p4 // A1
        for C1 in _divisors(p0) + [-d for d in _divisors(p0)]:
            C2 = p0 // C1
            # match the x^3 and x coefficients: A1 B2 + A2 B1 = p3,
            # C2 B1 + C1 B2 = p1
            det = A2 * C1 - A1 * C2
            cands = []
            if det != 0:
                num1 = p3 * C1 - p1 * A1
                num2 = A2 * p1 - C2 * p3
                if num1 % det == 0 and num2 % det == 0:
                    cands.append((num1 // det, num2 // det))
            else:
                for B1 in range(-bound, bound + 1):
                    if (p3 - A2 * B1) % A1 == 0:
                        cands.append((B1, (p3 - A2 * B1) // A1))
            for B1, B2 in cands:
                if A1 * C2 + A2 * C1 + B1 * B2 != p2:
                    continue
                if B1 * C2 + B2 * C1 != p1:
                    continue
                return [A1, B1, C1], [A2, B2, C2]
    return None


def _normalize_factor(c: list[int]) -> tuple[int, ...]:
    g = _content_sign(c)
    return tuple(x // g for x in c)


def factor_over_Q(f: QuarticForm) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """Factor an integral form into Q-irreducible primitive binary forms.

    Returns (content, [(factor_coeffs_descending_in_x, multiplicity), ...])
    where each factor is a primitive integral binary form of its degree
    with positive leading coefficient, and
    f = content * prod(factor^multiplicity).
    """
    if f.p is not None:
        raise ValueError("factor_over_Q needs integer coefficients")
    if f.is_zero:
        raise ValueError("cannot factor the zero form")
    coeffs = f.coeffs
    content = _content_sign(coeffs)
    prim = [c // content for c in coeffs]

    factors: list[tuple[tuple[int, ...], int]] = []
    k = 0
    while prim[k] == 0:
        k += 1
    if k:
        factors.append(((0, 1), k))  # the form y
    P = prim[k:]  # univariate in x, descending, P[0] != 0

    t = 0
    while P[-1 - t] == 0:
        t += 1
    if t:
        factors.append(((1, 0), t))  # the form x
        P = P[: len(P) - t]

    # rational roots u/v <-> linear forms (v x - u y)
    while len(P) > 1:
        found = False
        for v in _divisors(P[0]):
            for u_abs in _divisors(P[-1]):
                for u in (u_abs, -u_abs):
                    if gcd(u_abs, v) != 1:
                        continue
                    if sum(c * u ** (len(P) - 1 - i) * v**i for i, c in enumerate(P)) == 0:
                        m = 0
                        while True:
                            Q = _poly_divmod_exact(P, [v, -u])
                            if Q is None:
                                break
                            P, m = Q, m + 1
                        if m == 0:
                            raise RuntimeError(f"root {u}/{v} of {P} does not divide it")
                        factors.append((_normalize_factor([v, -u]), m))
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            break

    deg = len(P) - 1
    if deg in (2, 3):
        factors.append((_normalize_factor(P), 1))
    elif deg == 4:
        split = _quadratic_splits(P)
        if split is None:
            factors.append((_normalize_factor(P), 1))
        else:
            q1, q2 = (_normalize_factor(q) for q in split)
            if q1 == q2:
                factors.append((q1, 2))
            else:
                factors.extend([(q1, 1), (q2, 1)])
    elif deg != 0:
        raise RuntimeError(f"residual of impossible degree {deg}")

    factors.sort(key=lambda t: (len(t[0]), t[0]))
    # the product of normalized factors can differ from prim by a unit
    check = [1]
    for fac, m in factors:
        for _ in range(m):
            check = form_product(check, fac)
    if list(check) == [-c for c in prim]:
        content = -content
    elif list(check) != list(prim):
        raise RuntimeError(f"factors {factors} multiply to {check}, not {prim}")
    return content, factors


def in_family_X(f: QuarticForm) -> bool:
    """Membership in the closure of {triple root} u {c * (quadratic)^2}:
    true iff f = 0, f has a factor of multiplicity >= 3, or f is a scalar
    times the square of a quadratic form."""
    if f.p is not None:
        return splitting_type(f).in_family_x
    if f.is_zero:
        return True
    _, factors = factor_over_Q(f)
    if any(m >= 3 for _, m in factors):
        return True
    return all(m % 2 == 0 for _, m in factors)


# ---------------------------------------------------------------------------
# Real solubility and heights


def _sturm_distinct_real_roots(poly_desc: list[Fraction]) -> int:
    def deriv(q):
        n = len(q) - 1
        return [c * (n - i) for i, c in enumerate(q[:-1])]

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            c = a[0] / b[0]
            for i, bi in enumerate(b):
                a[i] -= c * bi
            a.pop(0)
        while a and a[0] == 0:
            a.pop(0)
        return a

    # squarefree part: distinct roots only
    a, b = list(poly_desc), deriv(poly_desc)
    while any(b):
        a, b = b, rem(a, b)
    if len(a) > 1:  # nontrivial gcd
        q = []
        num = list(poly_desc)
        while len(num) >= len(a):
            c = num[0] / a[0]
            q.append(c)
            for i, ai in enumerate(a):
                num[i] -= c * ai
            num.pop(0)
        poly_desc = q

    chain = [list(poly_desc), deriv(poly_desc)]
    while any(chain[-1]):
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def sign_changes(at_inf: int) -> int:
        signs = []
        for q in chain:
            if not any(q):
                continue
            lead = q[0]
            s = (1 if lead > 0 else -1) * (at_inf ** ((len(q) - 1) % 2))
            signs.append(s)
        return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)

    return sign_changes(-1) - sign_changes(1)


def is_R_soluble(f: QuarticForm) -> bool:
    """True iff z^2 = f(x, y) has a real solution with (x, y) != (0, 0),
    i.e. f is not negative definite.  Decided exactly: sign checks on the
    end coefficients, then a Sturm count for f(x, 1)."""
    if f.p is not None:
        raise ValueError("real solubility is for integral forms")
    if f.a0 >= 0 or f.a4 >= 0:
        return True
    poly = [Fraction(c) for c in f.coeffs]
    return _sturm_distinct_real_roots(poly) > 0


def height(f: QuarticForm):
    """H(f) = max(|I|^3, J^2/4) as an exact int (or Fraction for odd J)."""
    if f.p is not None:
        raise ValueError("heights are for integral forms")
    return height_raw(*invariants_raw(f.coeffs))


def height_raw(i: int, j: int):
    """max(|I|^3, J^2/4) from the invariants: an int unless J is odd and
    J^2/4 is the larger, then a Fraction with denominator 4."""
    i3 = abs(i) ** 3
    if 4 * i3 >= j * j:
        return i3
    return j * j // 4 if j % 2 == 0 else Fraction(j * j, 4)
