"""Desk-scale lattice experiments: dyadic box sums of the transform over
squarefree moduli, integral points on the triple/double-double family in
coefficient boxes, and the almost-prime squarefree-discriminant census.

Everything is exact: box sums aggregate integer numerators per modulus and
only then become Fractions.  The census engine sweeps its box twice, in
slabs of fixed a0.  Disc depends on (I, J) alone, so the first pass
collects the box's distinct (I, J) pairs as int64 keys and factors each
distinct |Disc| once, by complete trial division (deterministic
Miller-Rabin for large prime cofactors); the second reads each row's Omega
and squarefreeness through its key.  Real solubility is decided by sign
analysis plus Sturm sequences, and irreducibility by mod-p certificates
(no root, one root, and Stickelberger's discriminant parity) with exact
factorization over Q for the rows no certificate decides.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .forms import (
    QuarticForm,
    factor_over_Q,
    format_form,
    height_raw,
    in_family_X,
    invariants,
    invariants_raw,
    is_R_soluble,
)
from .elliptic import S_MODULUS
from .intfactor import FactorResult, factorize, is_prime, primes_below
from .vectorized import Case, box_coeff_array, chi_array, closed_n_batch

__all__ = [
    "F0",
    "BoxSumResult",
    "box_sum",
    "singular_lattice_count",
    "family_counts_by_radius",
    "family_x_forms_in_box",
    "OmegaResult",
    "omega_and_squarefree",
    "CensusRow",
    "census",
    "census_rows",
    "census_s_rows",
    "write_census_csv",
    "CSV_HEADER",
]

#: the anchor form of the congruence class S: -x^4 - 38x^3y - 12x^2y^2 - 8xy^3
F0 = QuarticForm(-1, -38, -12, -8, 0)


def _squarefree_moduli(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if q >= 1 and factorize(q).squarefree]


@dataclass(frozen=True)
class BoxSumResult:
    Q: int
    r: int
    exact: Fraction
    bound: float  # r^2/Q + r^4/Q^2 + r^5/Q^(5/2)
    in_x_exact: Fraction  # sub-sum over integral f in the singular family
    in_x_q5_one: Fraction  # its part where every p | q stays in the family

    @property
    def value(self) -> float:
        return float(self.exact)

    @property
    def ratio(self) -> float:
        return float(self.exact) / self.bound


def box_sum(Q: int, r: int) -> BoxSumResult:
    """S(Q, r) = sum over squarefree q in [Q, 2Q] and nonzero f in rB of
    |Phi_hat_q(f)|, exactly.

    The box's integer invariants I and J are computed once.  For each prime
    p > 3 dividing some q, closed_n_batch reduces them mod p and returns
    |n| over the box, together with each row's case; the cases of the
    family rows are all the in-family sub-sums need of p.  The |n| vector
    over the whole box is kept only for a prime that shares a modulus
    with another prime > 3, where the product needs it; every other prime
    keeps its sum and its family rows.  The inner sum for a fixed q is an
    integer once scaled by q'^5 (q' = q with the 2- and 3-parts removed),
    so the double sum is a short exact Fraction aggregation.
    """
    if r < 1:
        raise ValueError("positive half-width required")
    if Q <= r:
        raise ValueError("Q > r required")
    qs = _squarefree_moduli(Q, 2 * Q)
    box = box_coeff_array(r)
    ij = invariants_raw(tuple(box.T))
    zero_row = len(box) // 2  # the digits of the centre row are all r

    fam_idx = _family_rows(r)
    q_parts = {q: sorted(p for p in factorize(q).factors if p > 3) for q in qs}
    shared = {p for ps in q_parts.values() if len(ps) > 1 for p in ps}
    absn: dict[int, np.ndarray] = {}  # |n| over the box, primes in shared
    sums: dict[int, int] = {}  # |n| summed over the nonzero rows
    fam_n: dict[int, np.ndarray] = {}  # |n| on the family rows
    stays: dict[int, np.ndarray] = {}
    cases = np.empty(len(box), dtype=np.int8)
    for q in qs:
        for p in q_parts[q]:
            if p not in sums:
                n = closed_n_batch(p, box, ij, cases)
                np.abs(n, out=n)
                sums[p] = int(n.sum()) - int(n[zero_row])
                fam_n[p] = n[fam_idx]
                stays[p] = cases[fam_idx] <= Case.NONSPLIT_SQUARE
                if p in shared:
                    absn[p] = n

    total = Fraction(0)
    for q in qs:
        ps = q_parts[q]
        if not ps:
            total += Fraction(len(box) - 1)
            continue
        if len(ps) == 1:
            num = sums[ps[0]]
        else:
            vec = absn[ps[0]]
            for p in ps[1:]:
                vec = vec * absn[p]
            num = int(vec.sum()) - int(vec[zero_row])
        den = 1
        for p in ps:
            den *= p
        total += Fraction(num, den**5)

    in_x, in_x_q5_one = _in_x_subsums(qs, q_parts, len(fam_idx), fam_n, stays)
    bound = r * r / Q + r**4 / Q**2 + r**5 / Q**2.5
    return BoxSumResult(Q, r, total, bound, in_x, in_x_q5_one)


def _family_rows(r: int) -> np.ndarray:
    """Row indices in box_coeff_array(r) of the nonzero integral forms of
    the singular family."""
    side = 2 * r + 1
    xs = sorted(family_x_forms_in_box(r) - {(0, 0, 0, 0, 0)})
    return np.array(
        [sum((c + r) * side ** (4 - k) for k, c in enumerate(f)) for f in xs],
        dtype=np.int64,
    )


def _in_x_subsums(qs, q_parts, n_fam, fam_n, stays):
    """Diagnostic split of the box sum over its n_fam family rows: their
    whole contribution, and the part from the rows whose reduction mod
    every prime p > 3 of q stays in family X, read from closed_n_batch's
    case codes.  fam_n[p] and stays[p] hold |n| and that flag per family
    row."""
    if not n_fam:
        return Fraction(0), Fraction(0)
    tot = Fraction(0)
    tot_q5 = Fraction(0)
    for q in qs:
        ps = q_parts[q]
        if not ps:
            tot += Fraction(n_fam)
            tot_q5 += Fraction(n_fam)
            continue
        den = 1
        for p in ps:
            den *= p
        den = den**5
        nums = np.ones(n_fam, dtype=np.int64)
        keep = np.ones(n_fam, dtype=bool)
        for p in ps:
            nums = nums * fam_n[p]
            keep &= stays[p]
        tot += Fraction(int(nums.sum()), den)
        tot_q5 += Fraction(int(nums[keep].sum()), den)
    return tot, tot_q5


# ---------------------------------------------------------------------------
# Integral points of the singular family in boxes


def family_x_forms_in_box(r: int) -> set:
    """All integral forms in rB lying in the family (zero form included),
    by parametrized enumeration: (ax+by)^3 (cx+dy) and t (ax^2+bxy+cy^2)^2,
    deduplicated."""
    forms = {(0, 0, 0, 0, 0)}
    amax = 1
    while (amax + 1) ** 3 <= r:
        amax += 1
    for a in range(-amax, amax + 1):
        for b in range(-amax, amax + 1):
            if a == 0 and b == 0:
                continue
            a3, a2b, ab2, b3 = a**3, 3 * a * a * b, 3 * a * b * b, b**3
            for c in range(-r, r + 1):
                f0, f3t = a3 * c, b3 * c
                if abs(f0) > r:
                    continue
                for d in range(-r, r + 1):
                    f = (
                        f0,
                        a3 * d + a2b * c,
                        a2b * d + ab2 * c,
                        ab2 * d + f3t,
                        b3 * d,
                    )
                    if all(abs(v) <= r for v in f):
                        forms.add(f)
    sr = isqrt(r)
    sb = isqrt(3 * r) + 1
    for t in range(-r, r + 1):
        if t == 0:
            continue
        for a in range(-sr, sr + 1):
            for b in range(-sb, sb + 1):
                for c in range(-sr, sr + 1):
                    if a == 0 and b == 0 and c == 0:
                        continue
                    f = (
                        t * a * a,
                        2 * t * a * b,
                        t * (b * b + 2 * a * c),
                        2 * t * b * c,
                        t * c * c,
                    )
                    if all(abs(v) <= r for v in f):
                        forms.add(f)
    return forms


_METHOD_A_LIMIT = 60_000_000


def family_counts_by_radius(rmax: int) -> list[int]:
    """|V(Z) & rB & family| for r = 0..rmax (index r) from one exhaustive
    scan of rmax B: a vectorized Disc = 0 prefilter, exact Q-factorization
    of each survivor, and a cumulative histogram of max |a_i| over the
    members."""
    if (2 * rmax + 1) ** 5 > _METHOD_A_LIMIT:
        raise ValueError(f"box (2*{rmax}+1)^5 too large for the exhaustive scan")
    box = box_coeff_array(rmax)
    i, j = invariants_raw(tuple(box.T))
    cand = box[4 * i**3 - j * j == 0]
    member = np.array(
        [in_family_X(QuarticForm.from_coeffs(row)) for row in cand], dtype=bool
    )
    radius = np.abs(cand[member]).max(axis=1)
    return np.cumsum(np.bincount(radius, minlength=rmax + 1)).tolist()


def singular_lattice_count(r: int, method: str = "both") -> int:
    """|V(Z) & rB & family|: method "a" scans the whole box exhaustively
    (family_counts_by_radius), method "b" enumerates the two parametrizing
    families with dedup, "both" runs and cross-checks."""
    if method not in ("a", "b", "both"):
        raise ValueError("method must be 'a', 'b' or 'both'")
    count_b = len(family_x_forms_in_box(r)) if method in ("b", "both") else None
    count_a = family_counts_by_radius(r)[r] if method in ("a", "both") else None
    if method == "a":
        return count_a
    if method == "b":
        return count_b
    if count_a != count_b:
        raise RuntimeError(
            f"family counts disagree at r={r}: scan {count_a}, parametrized {count_b}"
        )
    return count_a


# ---------------------------------------------------------------------------
# Prime-factor counting


@dataclass(frozen=True)
class OmegaResult:
    omega: int  # prime factors with multiplicity (of the factored part)
    squarefree: bool
    complete: bool


def omega_and_squarefree(n: int, trial_bound: int = 10**6) -> OmegaResult:
    """Omega(n) and squarefreeness of a nonzero integer, sign ignored.

    A composite cofactor beyond trial_bound^2 yields an explicit
    incomplete result instead of a guess.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    res: FactorResult = factorize(n, trial_bound=trial_bound)
    return OmegaResult(res.omega, res.squarefree and res.complete, res.complete)


# ---------------------------------------------------------------------------
# Census


CSV_HEADER = [
    "form",
    "a0",
    "a1",
    "a2",
    "a3",
    "a4",
    "I",
    "J",
    "Disc",
    "height",
    "omega",
    "squarefree",
    "irreducible",
    "r_soluble",
    "in_S",
]


@dataclass(frozen=True)
class CensusRow:
    coeffs: tuple
    i: int
    j: int
    disc: int
    height: object  # int or Fraction
    omega: int | None  # of Disc (Disc / 2^20 for rows in S); None when Disc = 0
    squarefree: bool
    omega_complete: bool
    irreducible: bool
    r_soluble: bool
    in_s: bool

    @property
    def passes_filters(self) -> bool:
        return (
            self.disc != 0
            and self.squarefree
            and self.omega is not None
            and self.omega <= 4
            and self.irreducible
            and self.r_soluble
        )


def _csv_record(coeffs, i: int, j: int, omega: int | None, flags) -> list:
    """One CSV row (CSV_HEADER) from int coefficients, I, J, Omega (None
    when Disc = 0) and the flags (squarefree, irreducible, r_soluble,
    in_s); Disc and the height follow from I and J."""
    return [
        format_form(coeffs),
        *coeffs,
        i,
        j,
        (4 * i**3 - j * j) // 27,
        _decimal_str(height_raw(i, j)),
        "" if omega is None else omega,
        *("true" if b else "false" for b in flags),
    ]


def _decimal_str(h) -> str:
    """A height as a decimal: an int, or J^2/4 for odd J, which ends in .25."""
    if isinstance(h, int):
        return str(h)
    q, rem = divmod(h.numerator, 4)
    if h.denominator != 4 or rem != 1:
        raise RuntimeError(f"height {h} is not an odd square over 4")
    return f"{q}.25"


def _is_in_s(coeffs) -> bool:
    return all((c - c0) % S_MODULUS == 0 for c, c0 in zip(coeffs, F0.coeffs))


def _is_irreducible(f: QuarticForm) -> bool:
    if f.is_zero:
        return False
    _, factors = factor_over_Q(f)
    return len(factors) == 1 and factors[0][1] == 1 and len(factors[0][0]) == 5


def census_row(f: QuarticForm, trial_bound: int = 10**6) -> CensusRow:
    """Full per-form census record (exact, scalar path)."""
    i, j, disc = invariants(f)
    in_s = _is_in_s(f.coeffs)
    dprime = disc
    if in_s:
        if disc % 2**20:
            raise RuntimeError("S-congruence row without 2^20 | Disc (impossible)")
        dprime = disc // 2**20
    if dprime == 0:
        om, sq, complete = None, False, True
    else:
        o = omega_and_squarefree(dprime, trial_bound=trial_bound)
        om, sq, complete = o.omega, o.squarefree, o.complete
    return CensusRow(
        coeffs=f.coeffs,
        i=i,
        j=j,
        disc=disc,
        height=height_raw(i, j),
        omega=om,
        squarefree=sq,
        omega_complete=complete,
        irreducible=_is_irreducible(f),
        r_soluble=is_R_soluble(f),
        in_s=in_s,
    )


def census_s_rows(coeff_bound: int, trial_bound: int = 10**6) -> list[CensusRow]:
    """Rows of the S-congruence sublattice inside the coefficient box
    (coordinates are +- 110592-translates of the anchor form)."""
    choices = []
    for c0 in F0.coeffs:
        base = c0 % S_MODULUS
        vals = []
        v = base - S_MODULUS * ((base + coeff_bound) // S_MODULUS)
        while v <= coeff_bound:
            if v >= -coeff_bound:
                vals.append(v)
            v += S_MODULUS
        choices.append(vals)
    rows = []

    def rec(k, acc):
        if k == 5:
            rows.append(census_row(QuarticForm.from_coeffs(acc), trial_bound))
            return
        for v in choices[k]:
            rec(k + 1, acc + [v])

    rec(0, [])
    return rows


def census_rows(
    coeff_bound: int,
    height_bound: int | None = None,
    require_s: bool = False,
    trial_bound: int = 10**6,
) -> list[CensusRow]:
    """Every census row of the box, scalar exact path (small boxes only)."""
    if require_s:
        rows = census_s_rows(coeff_bound, trial_bound)
    else:
        if (2 * coeff_bound + 1) ** 5 > 2_000_000:
            raise ValueError("box too large for the exhaustive row dump")
        rng = range(-coeff_bound, coeff_bound + 1)
        rows = [
            census_row(QuarticForm(a0, a1, a2, a3, a4), trial_bound)
            for a0 in rng
            for a1 in rng
            for a2 in rng
            for a3 in rng
            for a4 in rng
        ]
    if height_bound is not None:
        rows = [r for r in rows if r.height < height_bound]
    return rows


def write_census_csv(rows, path) -> None:
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(CSV_HEADER)
        for r in rows:
            flags = (r.squarefree, r.irreducible, r.r_soluble, r.in_s)
            w.writerow(_csv_record(r.coeffs, r.i, r.j, r.omega, flags))


# -- vectorized aggregate engine --------------------------------------------


_CENSUS_GUARD = 25  # (2*25+1)^5 ~ 3.5e8 rows is the ceiling for the engine
_CERT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
_KEY_HALF = 1 << 30  # the (I, J) key packs I + 2^30 and J + 2^30 into 31 bits each


def _check_headroom(coeff_bound: int) -> None:
    """Over |a_i| <= B, |I| <= 16 B^2 and |J| <= 137 B^3.  Both must fit a
    half of the (I, J) key, and 4 I^3 - J^2 must fit int64."""
    imax, jmax = 16 * coeff_bound**2, 137 * coeff_bound**3
    if max(imax, jmax) >= _KEY_HALF or 4 * imax**3 + jmax**2 >= 1 << 63:
        raise ValueError(f"coefficient bound {coeff_bound} overflows int64 invariants")


def _ij_key(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return (i + _KEY_HALF) * (2 * _KEY_HALF) + (j + _KEY_HALF)


def _slab_cols(coeff_bound: int, a0: int) -> tuple[np.ndarray, ...]:
    """The five coefficient columns of the box rows with first coefficient
    a0, in box order."""
    side = 2 * coeff_bound + 1
    idx = np.arange(side**4, dtype=np.int64)
    cols = [np.full(side**4, a0, dtype=np.int64)]
    cols += [((idx // side ** (3 - k)) % side) - coeff_bound for k in range(4)]
    return tuple(cols)


def _batch_omega_squarefree(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """omega and squarefree flags for an array of positive int64 values, by
    batched trial division (small primes on the full array, the long tail
    only on surviving composite cofactors)."""
    v = vals.astype(np.int64).copy()
    om = np.zeros(len(v), dtype=np.int64)
    sq = np.ones(len(v), dtype=bool)
    small = 300
    for q in primes_below(small + 1):
        m = v % q == 0
        if not m.any():
            continue
        v[m] //= q
        om[m] += 1
        m &= v % q == 0
        if m.any():
            sq[m] = False
            while m.any():
                v[m] //= q
                om[m] += 1
                m &= v % q == 0
    active = np.nonzero(v > 1)[0]
    av = v[active]
    # rough values below small^2 are prime
    done = av < small * small
    om[active[done]] += 1
    active, av = active[~done], av[~done]
    # perfect prime squares and cubes
    s = np.sqrt(av.astype(np.float64)).astype(np.int64)
    for adj in (-1, 0, 1):
        m = (s + adj) ** 2 == av
        if m.any():
            om[active[m]] += 2
            sq[active[m]] = False
            keep = ~m
            active, av, s = active[keep], av[keep], s[keep]
    c = np.cbrt(av.astype(np.float64)).astype(np.int64)
    for adj in (-1, 0, 1):
        m = (c + adj) ** 3 == av
        if m.any():
            om[active[m]] += 3
            sq[active[m]] = False
            keep = ~m
            active, av, c = active[keep], av[keep], c[keep]
    # deterministic primality test peels off the prime cofactors
    if len(av):
        pmask = np.fromiter((is_prime(int(x)) for x in av), bool, count=len(av))
        om[active[pmask]] += 1
        active, av = active[~pmask], av[~pmask]
    # remaining composites: pq, p^2 q, pqr with all factors > small;
    # the sieve bound rounds up to a power of two to stay cache-friendly
    limit = isqrt(int(av.max())) + 1 if len(av) else 0
    limit = 1 << max(limit, small).bit_length()
    for q in primes_below(limit + 1):
        if q <= small:
            continue
        if not len(av):
            break
        m = av % q == 0
        if m.any():
            av[m] //= q
            om[active[m]] += 1
            m2 = m & (av % q == 0)
            while m2.any():
                sq[active[m2]] = False
                av[m2] //= q
                om[active[m2]] += 1
                m2 &= av % q == 0
        finished = (av == 1) | (av < q * q)
        if finished.any():
            om[active[finished & (av > 1)]] += 1
            keep = ~finished
            active, av = active[keep], av[keep]
    # prime cofactors can survive the last gap below the trial limit
    for k in range(len(av)):
        if not is_prime(int(av[k])):
            raise RuntimeError(f"unfactored census cofactor {int(av[k])}")
        om[active[k]] += 1
    return om, sq


def _batch_soluble(cols) -> np.ndarray:
    """Vectorized real solubility; falls back to Sturm on the measure-zero
    Disc = 0 stratum."""
    a0, a1, a2, a3, a4 = cols
    out = (a0 >= 0) | (a4 >= 0)
    rest = np.nonzero(~out)[0]
    if not len(rest):
        return out
    b0, b1, b2, b3, b4 = sub = tuple(c[rest] for c in cols)
    i, j = invariants_raw(sub)
    disc27 = 4 * i**3 - j * j  # 27 * Disc, same sign
    # negative discriminant: two real roots; positive: four or none,
    # four exactly when P < 0 and D < 0
    P = 8 * b0 * b2 - 3 * b1 * b1
    D = (
        64 * b0**3 * b4
        - 16 * b0 * b0 * b2 * b2
        + 16 * b0 * b1 * b1 * b2
        - 16 * b0 * b0 * b1 * b3
        - 3 * b1**4
    )
    has_root = (disc27 < 0) | ((disc27 > 0) & (P < 0) & (D < 0))
    sing = np.nonzero(disc27 == 0)[0]
    for k in sing:
        row = [int(c[rest[k]]) for c in cols]
        has_root[k] = is_R_soluble(QuarticForm.from_coeffs(row))
    out[rest] = has_root
    return out


def _batch_irreducible(cols, idx) -> np.ndarray:
    """Irreducibility over Q for the rows selected by idx: mod-p
    certificates first, exact factorization for the undecided rest.

    At a prime p, no projective root rules out linear factors, and a
    nonsingular reduction with exactly one root rules out quadratic
    splittings.  A reduction with no root whose Disc is a non-square mod p
    is irreducible of degree 4 (Stickelberger: a squarefree quartic with
    two quadratic factors has square Disc), so it rules out both; with
    Disc = (4I^3 - J^2)/27, chi(Disc) = chi(3) chi(4I^3 - J^2)."""
    sub = [c[idx] for c in cols]
    n = len(idx)
    irr = np.zeros(n, dtype=bool)
    red = (sub[0] == 0) | (sub[4] == 0)
    no_lin = np.zeros(n, dtype=bool)
    no_quad = np.zeros(n, dtype=bool)
    open_mask = ~red
    for p in _CERT_PRIMES:
        if not open_mask.any():
            break
        rows = np.nonzero(open_mask)[0]
        cc = [c[rows] % p for c in sub]
        nonzero_modp = (cc[0] | cc[1] | cc[2] | cc[3] | cc[4]) != 0
        roots = (cc[0] == 0).astype(np.int64)  # the point at infinity
        for x in range(p):
            val = (((cc[0] * x + cc[1]) * x + cc[2]) * x + cc[3]) * x + cc[4]
            roots += val % p == 0
        i, j = (v % p for v in invariants_raw(cc))
        disc27 = (4 * i**3 - j * j) % p
        chi = chi_array(p)
        no_lin[rows] |= (roots == 0) & nonzero_modp
        no_quad[rows] |= ((roots == 1) & (disc27 != 0)) | (
            (roots == 0) & (chi[disc27] == -chi[3])
        )
        decided = no_lin & no_quad
        open_mask &= ~decided
    irr |= no_lin & no_quad
    for k in np.nonzero(open_mask)[0]:
        irr[k] = _is_irreducible(
            QuarticForm.from_coeffs([int(c[k]) for c in sub])
        )
    irr[red] = False
    return irr


def census(
    coeff_bound: int,
    height_bound: int | None = None,
    require_s: bool = False,
    out_csv=None,
) -> dict:
    """Aggregate census over the coefficient box |a_i| <= coeff_bound.

    Reports total/zero-discriminant counts, the histogram of
    Omega(Disc) over nonzero discriminants, squarefree and
    squarefree-with-Omega<=4 counts, real-soluble counts, the number of
    candidates (squarefree, Omega <= 4, soluble, inside the height bound),
    the count additionally irreducible over Q ("passing_all"), distinct
    (I, J) pairs, and the S-congruence slice.  With out_csv set, the rows
    passing every filter are streamed to a CSV file.

    The engine sweeps the box in slabs of fixed a0, twice.  Disc =
    (4I^3 - J^2)/27 depends on (I, J) alone, so the first pass collects the
    box's distinct (I, J) pairs as sorted int64 keys and factors each
    nonzero |Disc| once, into an Omega and a squarefree flag per key.  The
    second pass recomputes each row's (I, J), reads its Omega and flag
    through its key, and decides solubility, the height filter and
    irreducibility row by row, writing CSV rows in box order.
    """
    if coeff_bound < 0:
        raise ValueError(f"coefficient bound {coeff_bound} is negative")
    if require_s:
        rows = census_s_rows(coeff_bound)
        if height_bound is not None:
            rows = [r for r in rows if r.height < height_bound]
        if out_csv is not None:
            write_census_csv(rows, out_csv)
        agg = _aggregate_from_rows(rows)
        agg.update(
            coeff_bound=coeff_bound,
            height_bound=height_bound,
            require_s=True,
        )
        return agg
    if coeff_bound > _CENSUS_GUARD:
        raise ValueError(
            f"coefficient bound {coeff_bound} beyond the engine guard {_CENSUS_GUARD}"
        )
    _check_headroom(coeff_bound)
    a0s = range(-coeff_bound, coeff_bound + 1)

    # pass 1: Omega and squarefreeness per distinct (I, J)
    key_chunks = [
        np.unique(_ij_key(*invariants_raw(_slab_cols(coeff_bound, a0)))) for a0 in a0s
    ]
    keys = np.unique(np.concatenate(key_chunks))
    del key_chunks
    i, j = np.divmod(keys, 2 * _KEY_HALF)
    i -= _KEY_HALF
    j -= _KEY_HALF
    absdisc, inverse = np.unique(np.abs(4 * i**3 - j * j) // 27, return_inverse=True)
    del i, j
    nz = absdisc != 0
    om = np.full(len(absdisc), -1, dtype=np.int8)  # -1 marks Disc = 0
    sq = np.zeros(len(absdisc), dtype=bool)
    om[nz], sq[nz] = _batch_omega_squarefree(absdisc[nz])
    key_om, key_sq = om[inverse], sq[inverse]
    del absdisc, inverse, nz, om, sq

    # pass 2: row by row, in box order
    omega_hist = np.zeros(64, dtype=np.int64)  # Omega(|Disc|) < 63 in int64
    totals = dict(
        total_forms=0,
        zero_disc=0,
        squarefree=0,
        sf_omega_le4=0,
        r_soluble=0,
        candidates=0,
        passing_all=0,
        s_rows=0,
        s_passing=0,
    )
    writer = None
    out_handle = None
    if out_csv is not None:
        out_handle = open(out_csv, "w", newline="")
        writer = csv.writer(out_handle)
        writer.writerow(CSV_HEADER)
    try:
        for a0 in a0s:
            cols = _slab_cols(coeff_bound, a0)
            i, j = invariants_raw(cols)
            k = np.searchsorted(keys, _ij_key(i, j))
            om = key_om[k]
            sq = key_sq[k]
            totals["total_forms"] += len(om)
            zero = om < 0
            totals["zero_disc"] += int(zero.sum())
            omega_hist += np.bincount(om[~zero], minlength=len(omega_hist))
            totals["squarefree"] += int(sq.sum())
            sf4 = sq & (om <= 4)  # sq is false where Disc = 0
            totals["sf_omega_le4"] += int(sf4.sum())

            soluble = _batch_soluble(cols)
            totals["r_soluble"] += int(soluble.sum())

            cand = sf4 & soluble
            if height_bound is not None:
                cand &= (np.abs(i) ** 3 < height_bound) & (j * j < 4 * height_bound)
            totals["candidates"] += int(cand.sum())

            cidx = np.nonzero(cand)[0]
            if len(cidx):
                irr = _batch_irreducible(cols, cidx)
                totals["passing_all"] += int(irr.sum())
                if writer is not None:
                    # the rows passed irreducibility and solubility, and the
                    # engine's range lies below the S anchor box
                    rows = cidx[irr]
                    writer.writerows(
                        _csv_record(coeffs, iv, jv, o, (s, True, True, False))
                        for coeffs, iv, jv, o, s in zip(
                            np.stack([c[rows] for c in cols], axis=1).tolist(),
                            i[rows].tolist(),
                            j[rows].tolist(),
                            om[rows].tolist(),
                            sq[rows].tolist(),
                        )
                    )
    finally:
        if out_handle is not None:
            out_handle.close()

    agg = dict(
        coeff_bound=coeff_bound,
        height_bound=height_bound,
        require_s=False,
        omega_hist={str(k): int(v) for k, v in enumerate(omega_hist) if v},
        distinct_ij=int(len(keys)),
        **totals,
    )
    return agg


def _aggregate_from_rows(rows) -> dict:
    omega_hist: dict[str, int] = {}
    for r in rows:
        if r.omega is not None:
            omega_hist[str(r.omega)] = omega_hist.get(str(r.omega), 0) + 1
    return dict(
        total_forms=len(rows),
        zero_disc=sum(1 for r in rows if r.disc == 0),
        omega_hist=dict(sorted(omega_hist.items())),
        squarefree=sum(1 for r in rows if r.squarefree),
        sf_omega_le4=sum(
            1 for r in rows if r.squarefree and r.omega is not None and r.omega <= 4
        ),
        r_soluble=sum(1 for r in rows if r.r_soluble),
        candidates=sum(
            1
            for r in rows
            if r.squarefree and r.omega is not None and r.omega <= 4 and r.r_soluble
        ),
        passing_all=sum(1 for r in rows if r.passes_filters),
        distinct_ij=len({(r.i, r.j) for r in rows}),
        s_rows=sum(1 for r in rows if r.in_s),
        s_passing=sum(1 for r in rows if r.in_s and r.passes_filters),
    )
