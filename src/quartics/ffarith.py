"""Prime-field arithmetic primitives.

Everything here works on plain Python ints (field elements are ints in
[0, p)) and on univariate polynomials over F_p represented as lists of
coefficients in ascending degree order with no trailing zeros ([] is the
zero polynomial).  All functions are pure and safe for parallel use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .intfactor import is_prime

__all__ = [
    "check_prime",
    "legendre",
    "chi12",
    "inv_mod",
    "quadratic_nonresidue",
    "sqrt_mod",
    "poly_powmod",
    "poly_gcd",
    "poly_mulmod",
    "poly_mod",
    "proj_reps",
]


def check_prime(p: int, min_exclusive: int = 1) -> int:
    """Validate that p is prime and p > min_exclusive, returning p.

    Operations tied to the quartic transform formula must pass
    min_exclusive=3 (they are meaningless at p = 2, 3 where the pairing
    denominators vanish).
    """
    if not isinstance(p, int) or p <= min_exclusive:
        raise ValueError(f"prime > {min_exclusive} required, got {p!r}")
    if not _is_prime_memo(p):
        raise ValueError(f"{p} is not prime")
    return p


@lru_cache(maxsize=256)
def _is_prime_memo(p: int) -> bool:
    # scalar sweeps validate the same few primes once per form
    return is_prime(p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: 0, 1 or -1."""
    if p == 2 or p < 2:
        raise ValueError(f"odd prime required, got {p}")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def chi12(p: int) -> int:
    """The primitive character mod 12 at a prime p > 3.

    Returns 1 for p = +-1 (mod 12) and -1 for p = +-5 (mod 12); this
    coincides with (3/p).
    """
    if p in (2, 3) or p < 2:
        raise ValueError(f"prime > 3 required, got {p}")
    return 1 if p % 12 in (1, 11) else -1


def inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo p; rejects a = 0 (mod p)."""
    a %= p
    if a == 0:
        raise ValueError(f"0 is not invertible mod {p}")
    return pow(a, -1, p)


def quadratic_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue mod an odd prime p."""
    if p == 2 or p < 2:
        raise ValueError(f"odd prime required, got {p}")
    for b in range(2, p):
        if legendre(b, p) == -1:
            return b
    raise RuntimeError(f"no nonresidue found mod {p}")  # unreachable for prime p


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod an odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = quadratic_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def proj_reps(p: int, length: int):
    """Canonical representatives of P^(length-1)(F_p): the tuples whose
    first nonzero coordinate is 1, by the position of that 1, then
    lexicographically in the coordinates after it."""
    for lead in range(length):
        for tail in product(range(p), repeat=length - lead - 1):
            yield (0,) * lead + (1,) + tail


# ---------------------------------------------------------------------------
# Univariate polynomials over F_p: ascending coefficient lists, normalized.


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo m over F_p."""
    if not m:
        raise ValueError("zero modulus")
    a = _trim([x % p for x in a])
    dm = len(m) - 1
    inv_lead = inv_mod(m[-1], p)
    while len(a) - 1 >= dm and a:
        k = len(a) - 1 - dm
        q = a[-1] * inv_lead % p
        for i, mi in enumerate(m):
            a[k + i] = (a[k + i] - q * mi) % p
        _trim(a)
    return a


def poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    """Product a*b reduced modulo m over F_p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_mod(out, m, p)


def poly_powmod(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    """base**exponent reduced modulo a nonzero polynomial over F_p."""
    if exponent < 0:
        raise ValueError("nonnegative exponent required")
    result = poly_mod([1], modulus, p)
    acc = poly_mod(base, modulus, p)
    e = exponent
    while e:
        if e & 1:
            result = poly_mulmod(result, acc, modulus, p)
        acc = poly_mulmod(acc, acc, modulus, p)
        e >>= 1
    return result


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of two polynomials over F_p."""
    a = _trim([x % p for x in a])
    b = _trim([x % p for x in b])
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv_lead = inv_mod(a[-1], p)
        a = [x * inv_lead % p for x in a]
    return a
