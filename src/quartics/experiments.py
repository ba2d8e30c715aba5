"""Desk-scale lattice experiments: dyadic box sums of the transform over
squarefree moduli, integral points on the triple/double-double family in
coefficient boxes, and the almost-prime squarefree-discriminant census.

Everything is exact: box sums aggregate integer numerators per modulus and
only then become Fractions.  Every sweep of a coefficient box runs over
orbit representatives, one slab of fixed a0 at a time (_orbit_slabs), and
counts each with its orbit size: x <-> y and y -> -y fix every census
field, and together with f -> -f they fix n mod p and family membership,
which box sums and singular counts read.  The census engine sweeps its
representatives twice.  Disc depends on (I, J) alone, so the first pass
collects the box's distinct (I, J) pairs as int64 keys and factors each
distinct |Disc| once, by batched trial division over the primes up to
isqrt(max |Disc|); the second reads each row's Omega and squarefreeness
through its key.  Real solubility is decided by sign analysis, with the
square locus He_f || f on Disc = 0, and irreducibility by mod-p
certificates (no root, one root, and Stickelberger's discriminant parity)
with exact factorization over Q for the rows no certificate decides."""

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
    hessian_raw,
    in_family_X,
    invariants,
    invariants_raw,
    is_R_soluble,
)
from .elliptic import S_MODULUS
from .intfactor import FactorResult, factorize, primes_below
from .vectorized import Case, chi_array, closed_n_batch

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

    n(f) mod p is invariant under x <-> y, y -> -y and f -> -f, so the sum
    runs over the 8-fold orbit representatives of the box
    (_orbit_slabs), each weighted by its orbit size; the zero form is its
    own orbit and gets weight 0.  Their integer invariants I and J are
    computed once.  For each prime p > 3 dividing some q, closed_n_batch
    reduces them mod p and returns |n| on the representatives, together
    with each one's case; the family is a union of orbits, so its
    representatives' cases are all the in-family sub-sums need of p.  The
    |n| vector is kept only for a prime that shares a modulus with another
    prime > 3, where the product needs it; every other prime keeps its
    weighted sum and its family representatives.  The inner sum for a
    fixed q is an integer once scaled by q'^5 (q' = q with the 2- and
    3-parts removed), so the double sum is a short exact Fraction
    aggregation.
    """
    if r < 1:
        raise ValueError("positive half-width required")
    if Q <= r:
        raise ValueError("Q > r required")
    qs = _squarefree_moduli(Q, 2 * Q)
    slabs = [(np.stack(cols, axis=1), w) for _, cols, w in _orbit_slabs(r, negate=True)]
    reps = np.concatenate([rows for rows, _ in slabs])
    w = np.concatenate([w for _, w in slabs])
    del slabs
    w[~reps.any(axis=1)] = 0  # the zero form
    ij = invariants_raw(tuple(reps.T))

    fam_idx = _family_rows(r)
    fam = np.flatnonzero(np.isin(_box_index(reps.T, r), fam_idx))
    fam_w = w[fam]
    if int(fam_w.sum()) != len(fam_idx):
        raise RuntimeError(f"the family rows of {r}B are not a union of orbits")
    q_parts = {q: sorted(p for p in factorize(q).factors if p > 3) for q in qs}
    shared = {p for ps in q_parts.values() if len(ps) > 1 for p in ps}
    absn: dict[int, np.ndarray] = {}  # |n| on the representatives, primes in shared
    sums: dict[int, int] = {}  # |n| summed over the nonzero rows
    fam_n: dict[int, np.ndarray] = {}  # |n| on the family representatives
    stays: dict[int, np.ndarray] = {}
    cases = np.empty(len(reps), dtype=np.int8)
    for q in qs:
        for p in q_parts[q]:
            if p not in sums:
                n = closed_n_batch(p, reps, ij, cases)
                np.abs(n, out=n)
                sums[p] = int(n @ w)
                fam_n[p] = n[fam]
                stays[p] = cases[fam] <= Case.NONSPLIT_SQUARE
                if p in shared:
                    absn[p] = n

    total = Fraction(0)
    for q in qs:
        ps = q_parts[q]
        if not ps:
            total += Fraction((2 * r + 1) ** 5 - 1)
            continue
        if len(ps) == 1:
            num = sums[ps[0]]
        else:
            vec = absn[ps[0]]
            for p in ps[1:]:
                vec = vec * absn[p]
            num = int(vec @ w)
        den = 1
        for p in ps:
            den *= p
        total += Fraction(num, den**5)

    in_x, in_x_q5_one = _in_x_subsums(qs, q_parts, fam_w, fam_n, stays)
    bound = r * r / Q + r**4 / Q**2 + r**5 / Q**2.5
    return BoxSumResult(Q, r, total, bound, in_x, in_x_q5_one)


def _family_rows(r: int) -> np.ndarray:
    """Row indices in box_coeff_array(r) of the nonzero integral forms of
    the singular family."""
    xs = sorted(family_x_forms_in_box(r) - {(0, 0, 0, 0, 0)})
    return _box_index(np.array(xs, dtype=np.int64).reshape(-1, 5).T, r)


def _in_x_subsums(qs, q_parts, fam_w, fam_n, stays):
    """Diagnostic split of the box sum over its family rows: their whole
    contribution, and the part from the rows whose reduction mod every
    prime p > 3 of q stays in family X, read from closed_n_batch's case
    codes.  The family is a union of orbits: fam_w holds the orbit size of
    each family representative, and fam_n[p] and stays[p] its |n| and
    that flag."""
    n_fam = int(fam_w.sum())
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
        nums = fam_w
        keep = np.ones(len(fam_w), dtype=bool)
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


def family_counts_by_radius(rmax: int) -> list[int]:
    """|V(Z) & rB & family| for r = 0..rmax (index r) from one exhaustive
    scan of rmax B.  The family and max |a_i| are invariant under x <-> y,
    y -> -y and f -> -f, so the scan runs over the 8-fold orbit
    representatives, one slab at a time: a vectorized Disc = 0 prefilter,
    exact Q-factorization of each survivor, and a histogram of max |a_i|
    over the members weighted by orbit size, summed cumulatively."""
    hist = np.zeros(rmax + 1, dtype=np.int64)
    for _, cols, w in _orbit_slabs(rmax, negate=True):
        i, j = invariants_raw(cols)
        cand = np.flatnonzero(4 * i**3 == j * j)
        member = np.array(
            [in_family_X(QuarticForm.from_coeffs([int(c[k]) for c in cols]))
             for k in cand.tolist()],
            dtype=bool,
        )
        keep = cand[member]
        radius = np.max([np.abs(c[keep]) for c in cols], axis=0)
        np.add.at(hist, radius, w[keep])
    return np.cumsum(hist).tolist()


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


# The 4-fold group of the census, as (permutation, signs) on (a0, ..., a4):
# the identity, tau (y -> -y), sigma (x <-> y) and sigma tau.  All four
# fix I, J, Disc, the height, irreducibility and real solubility.
_GROUP = (
    ((0, 1, 2, 3, 4), (1, 1, 1, 1, 1)),
    ((0, 1, 2, 3, 4), (1, -1, 1, -1, 1)),
    ((4, 3, 2, 1, 0), (1, 1, 1, 1, 1)),
    ((4, 3, 2, 1, 0), (1, -1, 1, -1, 1)),
)


def _box_index(cols, bound: int):
    """Index of rows in box_coeff_array(bound): lexicographic in (a0, ..., a4)."""
    side = 2 * bound + 1
    idx = cols[0] + bound
    for c in cols[1:]:
        idx = idx * side + (c + bound)
    return idx


def _orbit_slabs(bound: int, negate: bool = False):
    """Orbit representatives of the box |a_i| <= bound, one a0 slab at a time.

    The group is _GROUP, generated by sigma: (a0, ..., a4) -> (a4, ..., a0)
    and tau: (a0, -a1, a2, -a3, a4); with negate, f -> -f as well, which
    makes it 8-fold.  A row represents its orbit when its box index is the
    least in the orbit.  Yields (a0, cols, w) for each slab that holds
    representatives: five int64 columns of them in box order, and their
    weights, the orbit sizes.  sigma sends slab a0 to slab a4 and tau
    flips a1, so representatives have a4 >= a0 and a1 <= 0; with negate,
    also a0 <= 0 and |a4| <= -a0.  Only those rows are tested.  Raises
    unless the weights sum to (2 bound + 1)^5.
    """
    maps = list(_GROUP)
    if negate:
        maps += [(perm, tuple(-s for s in sgn)) for perm, sgn in _GROUP]
    side = 2 * bound + 1
    full = np.arange(-bound, bound + 1, dtype=np.int64)
    total = 0
    for a0 in range(-bound, (0 if negate else bound) + 1):
        a4 = np.arange(a0, -a0 + 1 if negate else bound + 1, dtype=np.int64)
        grid = np.meshgrid(full[: bound + 1], full, full, a4, indexing="ij")
        cols = (np.full(grid[0].size, a0, dtype=np.int64), *(g.ravel() for g in grid))
        own = _box_index(cols, bound)
        rep = np.ones(len(own), dtype=bool)
        stab = np.zeros(len(own), dtype=np.int64)
        for perm, sgn in maps:
            image = _box_index([s * cols[k] for k, s in zip(perm, sgn)], bound)
            rep &= own <= image
            stab += own == image
        cols = tuple(c[rep] for c in cols)
        w = len(maps) // stab[rep]
        total += int(w.sum())
        yield a0, cols, w
    if total != side**5:
        raise RuntimeError(f"orbit weights sum to {total}, not {side}^5")


def _batch_omega_squarefree(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """omega and squarefree flags for an array of positive int64 values, by
    batched trial division over every prime up to isqrt(max(vals)): about
    5.7e5 for the largest |Disc| that _check_headroom admits at
    _CENSUS_GUARD.

    Each prime q is tested on the active rows by (v // q) * q == v: numpy
    divides by a scalar with a multiply and shift (libdivide), several
    times faster than v % q.  Its powers are stripped on the rows it
    divides alone.  After every 16th prime q, the rows whose cofactor is
    below q^2 leave the active set: a cofactor above 1 then has no factor
    <= q and no room for two factors > q, so it is prime.  (That check
    reads every active row, so it runs once per 16 primes; a row stays
    active at most 16 primes too long.)  A row still active after the
    last prime has had every prime up to isqrt(max(vals)) >=
    isqrt(cofactor) tried, so its cofactor is 1 or prime.
    """
    om = np.zeros(len(vals), dtype=np.int8)  # Omega < 63 for int64 values
    sq = np.ones(len(vals), dtype=bool)
    active = np.arange(len(vals))
    av = vals.astype(np.int64)
    for k, q in enumerate(primes_below(isqrt(int(av.max())) + 1 if len(av) else 0), 1):
        hit = np.flatnonzero((av // q) * q == av)
        while len(hit):
            av[hit] //= q
            om[active[hit]] += 1
            hit = hit[(av[hit] // q) * q == av[hit]]
            sq[active[hit]] = False
        if k % 16 == 0:
            done = av < q * q
            om[active[done & (av > 1)]] += 1
            active, av = active[~done], av[~done]
            if not len(av):
                break
    om[active[av > 1]] += 1
    return om, sq


def _batch_soluble(cols) -> np.ndarray:
    """Vectorized real solubility: z^2 = f(x, y) has a real point unless f
    is negative definite.

    A row with a0 >= 0 or a4 >= 0 is soluble.  Otherwise the sign of Disc
    counts the real roots, with the P, D test for four.  On Disc = 0 a
    non-real repeated root comes with its conjugate, so f is insoluble only
    when f = c q^2 with c < 0 and disc(q) < 0.  Those rows form the square
    locus He_f || f, on which He/f = 12 c disc(q), so the row is insoluble
    exactly when that ratio is positive.  Rows with I = J = 0 have a triple
    or quadruple root, which is real.
    """
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
    # Disc = 0; b0 != 0, so He || f means He_k b0 = b_k He_0 for every k
    he = hessian_raw(sub)
    definite = (disc27 == 0) & (he[0] * b0 > 0) & ((i != 0) | (j != 0))
    for bk, hk in zip(sub[1:], he[1:]):
        definite &= hk * b0 == bk * he[0]
    has_root |= (disc27 == 0) & ~definite
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
    passing every filter are streamed to a CSV file in box order.

    Every reported quantity is invariant under x <-> y and y -> -y, so the
    engine sweeps the 4-fold orbit representatives of the box
    (_orbit_slabs), slab by slab, twice, and counts each with its orbit
    size.  Disc = (4I^3 - J^2)/27 depends on (I, J) alone, so the first
    pass collects the box's distinct (I, J) pairs as sorted int64 keys and
    factors each nonzero |Disc| once, into an Omega and a squarefree flag
    per key.  The second pass recomputes each representative's (I, J),
    reads its Omega and flag through its key, and decides solubility, the
    height filter and irreducibility.  Every CSV field but the
    coefficients is an orbit invariant, so each slab's passing rows are
    the images of passing representatives (_expand_slab).  A
    representative whose sigma images lie in a later slab is kept, keyed
    by a4, until that slab comes.
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

    # pass 1: Omega and squarefreeness per distinct (I, J)
    key_chunks = [
        np.unique(_ij_key(*invariants_raw(cols)))
        for _, cols, _ in _orbit_slabs(coeff_bound)
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

    # pass 2: orbit representatives, each counted with its orbit size
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
    pending: dict[int, list[np.ndarray]] = {}  # passing representatives by a4
    if out_csv is not None:
        out_handle = open(out_csv, "w", newline="")
        writer = csv.writer(out_handle)
        writer.writerow(CSV_HEADER)
    try:
        for a0, cols, w in _orbit_slabs(coeff_bound):
            i, j = invariants_raw(cols)
            k = np.searchsorted(keys, _ij_key(i, j))
            om = key_om[k]
            sq = key_sq[k]
            totals["total_forms"] += int(w.sum())
            zero = om < 0
            totals["zero_disc"] += int(w[zero].sum())
            omega_hist += np.bincount(
                om[~zero], weights=w[~zero], minlength=len(omega_hist)
            ).astype(np.int64)  # exact: the counts stay below 2^53
            totals["squarefree"] += int(w[sq].sum())
            sf4 = sq & (om <= 4)  # sq is false where Disc = 0
            totals["sf_omega_le4"] += int(w[sf4].sum())

            soluble = _batch_soluble(cols)
            totals["r_soluble"] += int(w[soluble].sum())

            cand = sf4 & soluble
            if height_bound is not None:
                cand &= (np.abs(i) ** 3 < height_bound) & (j * j < 4 * height_bound)
            totals["candidates"] += int(w[cand].sum())

            cidx = np.nonzero(cand)[0]
            passing = cidx[_batch_irreducible(cols, cidx)]
            totals["passing_all"] += int(w[passing].sum())
            if writer is not None:
                reps = np.stack([v[passing] for v in (*cols, i, j, om, sq)], axis=1)
                rows = _expand_slab(a0, reps, pending, coeff_bound)
                # the rows passed irreducibility and solubility, and the
                # engine's range lies below the S anchor box
                writer.writerows(
                    _csv_record(row[:5], *row[5:8], (row[8], True, True, False))
                    for row in rows.tolist()
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


def _expand_slab(a0: int, reps: np.ndarray, pending: dict, bound: int) -> np.ndarray:
    """Every box row of slab a0 whose 4-fold representative is listed, in
    box order, for slabs taken in ascending order.  Rows hold a0..a4 and
    then orbit invariants; reps are the slab's own representatives.

    The slab's rows are the identity and tau images of reps and the sigma
    and sigma tau images of the representatives with a4 = a0, which come
    from this slab or an earlier one.  pending keeps those representatives
    by a4 until their slab comes.  np.unique drops the images a stabilizer
    repeats."""
    for a4 in np.unique(reps[:, 4]).tolist():
        pending.setdefault(a4, []).append(reps[reps[:, 4] == a4])
    parts = []
    for rows, maps in [(reps, _GROUP[:2])] + [(b, _GROUP[2:]) for b in pending.pop(a0, [])]:
        for perm, sgn in maps:
            image = rows.copy()
            image[:, :5] = rows[:, perm] * sgn
            parts.append(image)
    rows = np.concatenate(parts)
    _, first = np.unique(_box_index(rows.T[:5], bound), return_index=True)
    return rows[first]


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
