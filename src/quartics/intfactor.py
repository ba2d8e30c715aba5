"""Integer primality and trial-division factorization helpers.

Deterministic Miller-Rabin with magnitude-tiered base sets (exact for all
inputs below 3.3e24, far beyond anything this package factors) plus plain
trial division.  No probabilistic fallback: a composite cofactor that
survives the trial budget is reported as incomplete, never guessed.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import NamedTuple

__all__ = ["is_prime", "primes_below", "factorize", "FactorResult"]

# Smallest base sets known to be deterministic up to each bound.
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_TRIAL_BUDGET = 10**6  # factorize's trial-division bound


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 3.3e24 (raises beyond)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % q == 0:
            return n == q
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    else:
        raise ValueError(f"{n} exceeds the deterministic Miller-Rabin range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=8)
def primes_below(limit: int) -> tuple[int, ...]:
    """All primes < limit by a plain sieve."""
    if limit <= 2:
        return ()
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit) if sieve[i])


class FactorResult(NamedTuple):
    factors: dict[int, int]  # prime -> exponent (cofactor excluded if incomplete)
    cofactor: int  # 1 when complete; the unfactored composite part otherwise
    complete: bool

    @property
    def omega(self) -> int:
        """Prime factors counted with multiplicity (of the factored part)."""
        return sum(self.factors.values())

    @property
    def squarefree(self) -> bool:
        return all(e == 1 for e in self.factors.values())


def factorize(n: int) -> FactorResult:
    """Factor |n| by trial division up to _TRIAL_BUDGET, n != 0.

    A cofactor above that budget squared is tested with deterministic
    Miller-Rabin; if it is composite the result is flagged incomplete
    rather than silently wrong.  The sieve stops at the budget or at
    isqrt(|n|) rounded up to a power of two, so that primes_below's cache
    sees few limits.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    budget = _TRIAL_BUDGET
    for q in primes_below(min(budget, 1 << isqrt(n).bit_length()) + 1):
        if q * q > n:
            break
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
    if n == 1:
        return FactorResult(factors, 1, True)
    if n <= budget * budget or is_prime(n):
        # below budget^2 with no factor <= budget, n is prime
        factors[n] = factors.get(n, 0) + 1
        return FactorResult(factors, 1, True)
    return FactorResult(factors, n, False)
