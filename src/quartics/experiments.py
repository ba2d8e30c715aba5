"""Desk-scale lattice experiments: dyadic box sums of the transform over
squarefree moduli, integral points on the triple/double-double family in
coefficient boxes, and the almost-prime squarefree-discriminant census.

Everything is exact: box sums aggregate integer numerators per modulus and
only then become Fractions.  Every sweep of a coefficient box runs over
orbit representatives, one slab of fixed a0 at a time (_orbit_slabs), and
counts each with its orbit size: x <-> y and y -> -y fix every census
field, and together with f -> -f they fix n mod p and family membership,
which box sums and singular counts read.  Both decide family membership
by one batch rule on the Disc = 0 rows, I = J = 0 or He_f || f
(_family_member); the parametrized enumeration family_x_forms_in_box is
its independent cross-check.  The census engine sweeps its
representatives twice.  The first pass counts the box's distinct (I, J)
pairs as int64 keys, lists their distinct |Disc| and factors each nonzero
one once, by batched trial division over the primes up to
isqrt(max |Disc|); the second computes each row's |Disc| and reads its
Omega and squarefreeness through it.  Real solubility is decided by sign
analysis, with the family rule and the sign of J on Disc = 0, and
irreducibility by mod-p certificates (no root, one root, and
Stickelberger's discriminant parity) with one exact integer batch step,
by Gauss's lemma, for the rows no certificate decides."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, prod

import numpy as np

from .forms import (
    QuarticForm,
    disc27,
    factor_over_Q,
    format_form,
    height_raw,
    hessian_raw,
    invariants,
    invariants_raw,
    is_R_soluble,
)
from .elliptic import S_MODULUS
from .intfactor import factorize, primes_below
from .vectorized import check_memory, chi_array, closed_n_batch, prime_table_bytes, proportional

__all__ = [
    "F0",
    "BoxSumResult",
    "box_sum",
    "singular_lattice_count",
    "family_counts_by_radius",
    "family_x_forms_in_box",
    "CensusRow",
    "census",
    "check_census_bounds",
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
    (_orbit_slabs), each weighted by its orbit size; the zero form, its
    own orbit, is dropped.  Their integer invariants I and J are
    computed once.  The family rows are the Disc = 0 representatives that
    _family_member keeps (I = J = 0 or He_f || f), the rule
    family_counts_by_radius scans with.  For each prime p > 3 dividing
    some q, closed_n_batch reduces the representatives mod p and returns
    |n| on them; the family rows' |n| is all the in-family sub-sum needs
    of p.  The |n| vector is kept only for a prime that shares a modulus
    with another prime > 3, where the product needs it; every other prime
    keeps its weighted sum and its family rows.  The inner sum for a fixed
    q is an integer once scaled by q'^5 (q' = q with the 2- and 3-parts
    removed), so the double sum is a short exact Fraction aggregation,
    formed for the total and the family sub-sum in one loop over q.  Its
    integer numerators are int64 dot products; each is checked first
    against max |n| per prime and the total weight, which bounds the
    family sub-sum too, and a bound beyond int64 raises ValueError.

    Its peak is about (17 + s) (2r+1)^5 bytes for s shared primes, each of
    whose |n| vectors takes (2r+1)^5 bytes: VmHWM rose 14 to 17 + s bytes
    per box point at r = 12 (Q = 20 to 160, s = 2 to 16), 16 and 18 (Q =
    80, s = 9), set in the prime loop as those vectors pile up (the
    representatives' build reached 13).  Beside it the per-prime caches
    reach prime_table_bytes.  A box and caches past 2 GiB raise ValueError
    before the sweep.
    """
    if r < 1:
        raise ValueError("positive half-width required")
    if Q <= r:
        raise ValueError("Q > r required")
    qs = _squarefree_moduli(Q, 2 * Q)
    q_parts = {q: sorted(p for p in factorize(q).factors if p > 3) for q in qs}
    shared = {p for ps in q_parts.values() if len(ps) > 1 for p in ps}
    tables = prime_table_bytes({p for ps in q_parts.values() for p in ps})
    check_memory((17 + len(shared)) * (2 * r + 1) ** 5 + tables, f"the box sum at Q={Q}, r={r}")
    slabs = [(np.stack(cols, axis=1), w) for _, cols, w in _orbit_slabs(r, negate=True)]
    reps = np.concatenate([rows for rows, _ in slabs])
    w = np.concatenate([w for _, w in slabs])
    del slabs
    nonzero = reps.any(axis=1)
    reps, w = reps[nonzero], w[nonzero]
    i, j = ij = invariants_raw(tuple(reps.T))
    cand = np.flatnonzero(disc27(i, j) == 0)
    fam = cand[_family_member(tuple(reps[cand].T), i[cand], j[cand])]
    fam_w = w[fam]
    absn: dict[int, np.ndarray] = {}  # |n| on the representatives, primes in shared
    nmax: dict[int, int] = {}  # max |n|, for the int64 headroom checks
    sums: dict[int, int] = {}  # |n| summed over the nonzero rows
    fam_n: dict[int, np.ndarray] = {}  # |n| on the family rows
    wsum = int(w.sum())
    for q in qs:
        for p in q_parts[q]:
            if p not in sums:
                n = closed_n_batch(p, reps, ij)
                np.abs(n, out=n)
                nmax[p] = int(n.max())
                _check_int64(nmax[p] * wsum, f"the |n| sum at p = {p}")
                sums[p] = int(n @ w)
                fam_n[p] = n[fam]
                if p in shared:
                    absn[p] = n

    total = in_x = Fraction(0)
    for q in qs:
        ps = q_parts[q]  # none: every nonzero row counts 1
        if len(ps) == 1:
            num = sums[ps[0]]
        else:
            # bounds every partial product too, as wsum >= 1
            _check_int64(wsum * prod(nmax[p] for p in ps), f"the |n| product sum at q = {q}")
            vec = w
            for p in ps:
                vec = vec * absn[p]
            num = int(vec.sum())
        fam_nums = fam_w
        for p in ps:
            fam_nums = fam_nums * fam_n[p]
        den = prod(ps) ** 5
        total += Fraction(num, den)
        in_x += Fraction(int(fam_nums.sum()), den)

    bound = r * r / Q + r**4 / Q**2 + r**5 / Q**2.5
    return BoxSumResult(Q, r, total, bound, in_x)


_INT64_MAX = (1 << 63) - 1


def _check_int64(bound: int, what: str) -> None:
    """Raise unless a bound on an int64 result fits: numpy wraps silently."""
    if bound > _INT64_MAX:
        raise ValueError(f"{what} may exceed int64 (bound {bound})")


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


def _family_member(cols, i, j) -> np.ndarray:
    """Family membership of integer rows with Disc = 0, given their I and J:
    I = J = 0 (a triple or quadruple root, or f = 0), or He_f || f (f =
    c q^2).  closed_n_batch applies the same rule mod p; forms.in_family_X
    is the scalar contract."""
    return ((i == 0) & (j == 0)) | proportional(cols, hessian_raw(cols))


def family_counts_by_radius(rmax: int) -> list[int]:
    """|V(Z) & rB & family| for r = 0..rmax (index r) from one exhaustive
    scan of rmax B.  The family and max |a_i| are invariant under x <-> y,
    y -> -y and f -> -f, so the scan runs over the 8-fold orbit
    representatives, one slab at a time: a vectorized Disc = 0 prefilter,
    _family_member on its survivors in batch, and a histogram of max |a_i|
    over the members weighted by orbit size, summed cumulatively.

    Its peak is the largest slab's, a0 = -rmax: about 160 bytes for each
    of its (rmax+1)(2rmax+1)^3 grid rows (VmHWM rose 155 to 159 at rmax =
    8, 12, 16 and 20).  A scan past 2 GiB raises ValueError before it
    starts."""
    check_memory(160 * (rmax + 1) * (2 * rmax + 1) ** 3, f"the singular count at rmax={rmax}")
    hist = np.zeros(rmax + 1, dtype=np.int64)
    for _, cols, w in _orbit_slabs(rmax, negate=True):
        i, j = invariants_raw(cols)
        cand = np.flatnonzero(disc27(i, j) == 0)
        keep = cand[_family_member(tuple(c[cand] for c in cols), i[cand], j[cand])]
        radius = np.max([np.abs(c[keep]) for c in cols], axis=0)
        np.add.at(hist, radius, w[keep])
    return np.cumsum(hist).tolist()


def singular_lattice_count(rmax: int) -> tuple[list[int], list[int]]:
    """|V(Z) & rB & family| for r = 0..rmax (index r), twice: by the
    exhaustive scan of rmax B (family_counts_by_radius) and by the
    parametrized enumeration with dedup of rmax B (family_x_forms_in_box),
    counted cumulatively by max |a_i|.  The caller compares the two."""
    exhaustive = family_counts_by_radius(rmax)
    radii = [max(map(abs, f)) for f in family_x_forms_in_box(rmax)]
    return exhaustive, np.cumsum(np.bincount(radii, minlength=rmax + 1)).tolist()


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
        disc27(i, j) // 27,
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


def census_row(f: QuarticForm) -> CensusRow:
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
        res = factorize(dprime)
        om, sq, complete = res.omega, res.squarefree and res.complete, res.complete
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


def census_s_rows(coeff_bound: int) -> list[CensusRow]:
    """Rows of the S-congruence sublattice inside the coefficient box
    (coordinates are +- 110592-translates of the anchor form)."""
    b = coeff_bound
    choices = [range(-b + (c0 + b) % S_MODULUS, b + 1, S_MODULUS) for c0 in F0.coeffs]
    return [census_row(QuarticForm.from_coeffs(c)) for c in product(*choices)]


def census_rows(coeff_bound: int) -> list[CensusRow]:
    """Every census row of the box, scalar exact path (small boxes only)."""
    if coeff_bound > 8:  # 17^5 = 1.4M rows
        raise ValueError("box too large for the exhaustive row dump")
    rng = range(-coeff_bound, coeff_bound + 1)
    return [census_row(QuarticForm(*c)) for c in product(rng, repeat=5)]


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
    half of the (I, J) key, and 4 |I|^3 + J^2, which bounds disc27 and
    each step of its buffer, must fit int64."""
    imax, jmax = 16 * coeff_bound**2, 137 * coeff_bound**3
    if max(imax, jmax) >= _KEY_HALF or -disc27(-imax, jmax) >= 1 << 63:
        raise ValueError(f"coefficient bound {coeff_bound} overflows int64 invariants")


def _ij_key(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return (i + _KEY_HALF) * (2 * _KEY_HALF) + (j + _KEY_HALF)


def _abs_disc(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|Disc| from int64 I and J, in disc27's one buffer."""
    d = disc27(i, j)
    np.abs(d, out=d)
    d //= 27
    return d


_DISC_CHUNK = 1 << 16


def _abs_disc_of_keys(keys: np.ndarray) -> np.ndarray:
    """|Disc| of (I, J) keys, unpacked and formed _DISC_CHUNK keys at a
    time into one output array: I, J and _abs_disc's buffer over every
    distinct key at once would set the census's peak RSS."""
    out = np.empty(len(keys), dtype=np.int64)
    for start in range(0, len(keys), _DISC_CHUNK):
        i, j = np.divmod(keys[start : start + _DISC_CHUNK], 2 * _KEY_HALF)
        i -= _KEY_HALF
        j -= _KEY_HALF
        out[start : start + len(i)] = _abs_disc(i, j)
    return out


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for a 1-d array, by a sort and a neighbour mask.  On
    int64, numpy 2.4's np.unique goes through a hash table, which is many
    times slower on the census keys."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _lookup(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """np.searchsorted(table, queries) for a sorted table, with the queries
    sorted first: the binary searches then walk the table in order, about
    twice as fast as unsorted queries.  The census finds each pass-2
    slab's |Disc| in the pass-1 table of distinct |Disc| with it."""
    order = np.argsort(queries)
    k = np.empty_like(order)
    k[order] = np.searchsorted(table, queries[order])
    return k


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
    also a0 <= 0 and |a4| <= -a0.  The slab's grid holds just those rows.
    A row strictly inside it (a1 < 0 and a4 > a0; with negate, also
    |a4| < -a0) differs from each image in the first coordinate the map
    moves, a1 under tau and a0 otherwise, and is the smaller there: it
    is the least of its orbit, with a trivial stabilizer, and weighs
    len(maps) untested.  Only the rows on the faces a1 = 0, a4 = a0 and
    (with negate) a4 = -a0 compare box indices with their images.
    Raises unless the weights sum to (2 bound + 1)^5.
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
        face = np.zeros(grid[0].shape, dtype=bool)
        face[-1] = True  # a1 = 0
        face[..., 0] = True  # a4 = a0
        if negate:
            face[..., -1] = True  # a4 = -a0; all of the slab a0 = 0
        face = np.flatnonzero(face)
        sub = [c[face] for c in cols]
        own = _box_index(sub, bound)
        rep = np.ones(len(face), dtype=bool)
        stab = np.zeros(len(face), dtype=np.int64)
        for perm, sgn in maps:
            image = _box_index([s * sub[k] for k, s in zip(perm, sgn)], bound)
            rep &= own <= image
            stab += own == image
        keep = np.ones(len(cols[0]), dtype=bool)
        keep[face] = rep
        w = np.full(len(cols[0]), len(maps), dtype=np.int64)
        w[face] = len(maps) // stab
        cols = tuple(c[keep] for c in cols)
        w = w[keep]
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
    when f = c q^2 with c < 0 and d = disc(q) < 0.  Such a row is in the
    family (_family_member) with J = -2 (c d)^3 != 0, and a0 = c u^2 < 0
    gives c < 0, so it is insoluble exactly when J < 0.  The family's other
    rows, I = J = 0, have a triple or quadruple root, which is real.
    """
    a0, a1, a2, a3, a4 = cols
    out = (a0 >= 0) | (a4 >= 0)
    rest = np.nonzero(~out)[0]
    if not len(rest):
        return out
    b0, b1, b2, b3, b4 = sub = tuple(c[rest] for c in cols)
    i, j = invariants_raw(sub)
    d = disc27(i, j)  # 27 Disc, same sign
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
    has_root = (d < 0) | ((d > 0) & (P < 0) & (D < 0))
    zero = np.flatnonzero(d == 0)
    sz = tuple(c[zero] for c in sub)
    has_root[zero] = ~((j[zero] < 0) & _family_member(sz, i[zero], j[zero]))
    out[rest] = has_root
    return out


def _batch_irreducible(cols, idx) -> np.ndarray:
    """Irreducibility over Q for the rows selected by idx: mod-p
    certificates first, then one exact integer step (_batch_reducible) for
    the rows they leave open.

    At a prime p, no projective root rules out linear factors, and a
    nonsingular reduction with exactly one root rules out quadratic
    splittings.  A reduction with no root whose Disc is a non-square mod p
    is irreducible of degree 4 (Stickelberger: a squarefree quartic with
    two quadratic factors has square Disc), so it rules out both; with
    Disc = (4I^3 - J^2)/27, chi(Disc) = chi(3) chi(4I^3 - J^2).  Rows with
    a0 a4 = 0 have the factor y or x."""
    sub = [c[idx] for c in cols]
    n = len(idx)
    no_lin = np.zeros(n, dtype=bool)
    no_quad = np.zeros(n, dtype=bool)
    open_mask = (sub[0] != 0) & (sub[4] != 0)
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
        d = disc27(i, j) % p
        chi = chi_array(p)
        no_lin[rows] |= (roots == 0) & nonzero_modp
        no_quad[rows] |= ((roots == 1) & (d != 0)) | ((roots == 0) & (chi[d] == -chi[3]))
        open_mask &= ~(no_lin & no_quad)
    irr = no_lin & no_quad
    rest = np.nonzero(open_mask)[0]
    irr[rest] = ~_batch_reducible([c[rest] for c in sub])
    return irr


def _divisor_table(n_max: int):
    """The positive divisors of 1..n_max in one flat ascending array, with
    each n's start and count in it (index n; n = 0 has none)."""
    n = np.arange(n_max + 1)
    hit = n[:, None] % np.maximum(n[None, :], 1) == 0
    hit[:, 0] = False
    hit[0] = False
    count = hit.sum(axis=1)
    return np.nonzero(hit)[1], np.cumsum(count) - count, count


_DIV_FLAT, _DIV_START, _DIV_COUNT = _divisor_table(_CENSUS_GUARD)


def _batch_reducible(cols) -> np.ndarray:
    """Reducibility over Q of integral quartics with a0 a4 != 0, exactly.

    By Gauss's lemma a row f that factors over Q factors over Z with
    factors of the same degrees, so f is reducible exactly when it has an
    integral factor A1 x - C1 y or A1 x^2 + B1 xy + C1 y^2 with A1 > 0
    dividing a0 and C1 dividing a4.  Every (row, A1, C1) pair is one entry
    of a flat expansion (np.repeat over _DIV_FLAT), and each pair tests:
    - a rational root: f(C1, A1) = 0;
    - a quadratic split (A1 x^2 + B1 xy + C1 y^2)(A2 x^2 + B2 xy + C2 y^2)
      with A2 = a0/A1 and C2 = a4/C1.  The x^3 y and x^2 y^2 coefficients
      give X + Y = a1 and XY = A1 A2 (a2 - A1 C2 - A2 C1) for X = A1 B2
      and Y = A2 B1, so X and Y are the roots of a monic integer quadratic
      whose discriminant must be a square.  X is taken as the larger root:
      the same split with its two factors swapped (both negated when
      A2 < 0) is the pair (|A2|, +-C2), whose X is the smaller one.  The
      split exists when A1 | X, A2 | Y and the x y^3 coefficient
      C2 B1 + C1 B2 = a3.  This covers a singular linear system in
      (B1, B2) too, so no enumeration of B1 is needed.
    The pairs are reduced back to rows with np.bincount.  Over |a_i| <=
    _CENSUS_GUARD = 25, the table covers every |a0| and |a4|, |f(C1, A1)|
    stays below 5 * 25^5 and the discriminants below 2^17, where int64 is
    exact and a float64 square root is exact on squares; larger rows
    raise."""
    if any(np.abs(c).max(initial=0) > _CENSUS_GUARD for c in cols):
        raise ValueError(f"a coefficient exceeds {_CENSUS_GUARD}, the exact step's range")
    n0, n4 = np.abs(cols[0]), np.abs(cols[4])
    per4 = 2 * _DIV_COUNT[n4]  # signed divisors of a4
    per = _DIV_COUNT[n0] * per4
    row = np.repeat(np.arange(len(n0)), per)
    pos = np.arange(len(row)) - np.repeat(np.cumsum(per) - per, per)
    k0, k4 = np.divmod(pos, per4[row])
    a0, a1, a2, a3, a4 = (c[row] for c in cols)
    A1 = _DIV_FLAT[_DIV_START[n0[row]] + k0]
    C1 = _DIV_FLAT[_DIV_START[n4[row]] + k4 // 2] * (1 - 2 * (k4 & 1))
    A2, C2 = a0 // A1, a4 // C1

    v = a0 * C1 + a1 * A1
    v = v * C1 + a2 * A1**2
    v = v * C1 + a3 * A1**3
    hit = v * C1 + a4 * A1**4 == 0

    disc = a1 * a1 - 4 * A1 * A2 * (a2 - A1 * C2 - A2 * C1)
    s = np.rint(np.sqrt(np.maximum(disc, 0))).astype(np.int64)
    X = (a1 + s) // 2  # exact on squares, where s = a1 mod 2
    B2, rx = np.divmod(X, A1)
    B1, ry = np.divmod(a1 - X, A2)
    hit |= (s * s == disc) & (rx == 0) & (ry == 0) & (C2 * B1 + C1 * B2 == a3)
    return np.bincount(row[hit], minlength=len(n0)) > 0


def check_census_bounds(
    coeff_bound: int, height_bound: int | None = None, require_s: bool = False
) -> None:
    """Raise ValueError on the bounds census rejects: a negative box, a
    height bound that admits no candidate, and, for the engine (not the S
    slice), a box beyond _CENSUS_GUARD or the int64 headroom.  It reads no
    row, so a caller can check before it creates any output."""
    if coeff_bound < 0:
        raise ValueError(f"coefficient bound {coeff_bound} is negative")
    if height_bound is not None and height_bound <= 1:
        # height < 1 forces I = 0 and |J| <= 1, and J = -2 a2^3 mod 9 is
        # 0, 2 or 7 mod 9, so J = 0 and Disc = 0
        raise ValueError(f"height bound {height_bound} admits no candidate")
    if require_s:
        return
    if coeff_bound > _CENSUS_GUARD:
        raise ValueError(
            f"coefficient bound {coeff_bound} beyond the engine guard {_CENSUS_GUARD}"
        )
    _check_headroom(coeff_bound)


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
    size.  The first pass collects the box's distinct (I, J) pairs as int64
    keys, deduped by sorting (_sorted_unique: a sort and a neighbour mask,
    never numpy's hash table), only to count them and to list their
    distinct |Disc| = |disc27(I, J)|/27; it factors each nonzero |Disc|
    once, into an Omega and a squarefree flag per |Disc|.  The second pass
    recomputes each representative's (I, J) and |Disc| in int64 (exact,
    by _check_headroom), finds its |Disc| by a binary search with the
    slab's queries sorted first (_lookup), reads its Omega and flag, and
    decides solubility, the height filter and irreducibility: mod-p
    certificates, then one exact batch step for the rows they leave open,
    so the engine never factors a form one at a time
    (_batch_irreducible).  Every CSV field but the
    coefficients is an orbit invariant, so each slab's passing rows are
    the images of passing representatives (_expand_slab).  A
    representative whose sigma images lie in a later slab is kept, keyed
    by a4, until that slab comes.  Each slab's rows become CSV bytes in
    one batch (_csv_bytes): Disc and four times the height are int64
    columns, every integer column is turned into ASCII digits by numpy,
    and the lines go to the file opened in binary mode; the scalar
    _csv_record and write_census_csv shape the S-slice rows, whose
    coefficients can exceed int64.  check_census_bounds holds the checks
    on the bounds, run before anything else.
    """
    check_census_bounds(coeff_bound, height_bound, require_s)
    if require_s:
        rows = census_s_rows(coeff_bound)
        if out_csv is not None:
            low = [r for r in rows if _below_height(r, height_bound)]
            write_census_csv([r for r in low if r.passes_filters], out_csv)
        agg = _aggregate_from_rows(rows, height_bound)
        agg.update(
            coeff_bound=coeff_bound,
            height_bound=height_bound,
            require_s=True,
        )
        return agg

    # pass 1: the distinct (I, J), then Omega and squarefreeness per
    # distinct |Disc|
    key_chunks = [
        _sorted_unique(_ij_key(*invariants_raw(cols)))
        for _, cols, _ in _orbit_slabs(coeff_bound)
    ]
    keys = np.concatenate(key_chunks)
    del key_chunks
    keys = _sorted_unique(keys)
    distinct_ij = len(keys)
    absdisc = _abs_disc_of_keys(keys)
    del keys
    absdisc = _sorted_unique(absdisc)
    nz = absdisc != 0
    disc_om = np.full(len(absdisc), -1, dtype=np.int8)  # -1 marks Disc = 0
    disc_sq = np.zeros(len(absdisc), dtype=bool)
    disc_om[nz], disc_sq[nz] = _batch_omega_squarefree(absdisc[nz])
    del nz

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
    out_handle = None
    pending: dict[int, list[np.ndarray]] = {}  # passing representatives by a4
    if out_csv is not None:
        out_handle = open(out_csv, "wb")
        out_handle.write(",".join(CSV_HEADER).encode() + b"\r\n")
    try:
        for a0, cols, w in _orbit_slabs(coeff_bound):
            i, j = invariants_raw(cols)
            k = _lookup(absdisc, _abs_disc(i, j))
            om = disc_om[k]
            sq = disc_sq[k]
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
            if out_handle is not None:
                reps = np.stack([v[passing] for v in (*cols, i, j, om, sq)], axis=1)
                out_handle.write(_csv_bytes(_expand_slab(a0, reps, pending, coeff_bound)))
    finally:
        if out_handle is not None:
            out_handle.close()

    agg = dict(
        coeff_bound=coeff_bound,
        height_bound=height_bound,
        require_s=False,
        omega_hist={str(k): int(v) for k, v in enumerate(omega_hist) if v},
        distinct_ij=distinct_ij,
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
    for a4 in _sorted_unique(reps[:, 4]).tolist():
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


def _ascii_digits(v: np.ndarray) -> np.ndarray:
    """int64 values as ASCII decimals, one row of a uint8 matrix per value:
    a sign column when any value is negative, then the digits, right
    aligned.  0 bytes pad, and dropping them leaves the decimal.  Each
    digit position divides the remaining magnitudes by 10 once."""
    a = np.abs(v)
    width = len(str(int(a.max()))) if len(a) else 1
    neg = v < 0
    sign = int(neg.any())
    out = np.zeros((len(v), width + sign), dtype=np.uint8)
    if sign:
        out[:, 0] = neg * ord("-")
    for k in range(1, width + 1):
        q = a // 10
        digit = a - q * 10
        digit += ord("0")
        if k > 1:
            digit[a == 0] = 0  # no digits left: pad
        out[:, -k] = digit
        a = q
    return out


# byte tables, 0-padded: the squarefree flag, and the height's 4 h mod 4
_FLAG_BYTES = np.frombuffer(b"false\0true", dtype=np.uint8).reshape(2, 5)
_QUARTER_BYTES = np.frombuffer(b"\0\0\0.25", dtype=np.uint8).reshape(2, 3)


def _csv_bytes(rows: np.ndarray) -> bytes:
    """The CSV lines of census rows that passed every filter, as csv.writer
    writes them from _csv_record: the quoted form, then the fields, each
    line ending in CRLF.  rows are int64: a0..a4, I, J, Omega and
    squarefree.  The last three fields are constants: the rows passed
    irreducibility and solubility, and the engine's range lies below the S
    anchor box.

    Disc = (4 I^3 - J^2)/27, and 4 height = max(4 |I|^3, J^2) is 1 mod 4
    exactly when J is odd and J^2/4 > |I|^3: the height then ends in .25.
    Both are exact in int64 wherever _check_headroom admits the box.  Each
    integer column becomes a matrix of ASCII digits (_ascii_digits), the
    separators and flags come from byte tables, and the pieces are joined
    into one uint8 matrix, row by row, whose pad bytes are dropped."""
    n = len(rows)
    i, j = rows[:, 5], rows[:, 6]
    h4 = np.maximum(4 * np.abs(i) ** 3, j * j)
    quarter = h4 % 4
    if (quarter > 1).any():
        raise RuntimeError("a height is not an integer or an odd square over 4")

    def text(b: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(b, dtype=np.uint8), (n, len(b)))

    def joined(cols) -> list:
        return [piece for c in cols for piece in (text(b","), _ascii_digits(c))][1:]

    form = joined(rows[:, :5].T)
    line = np.concatenate(
        [
            text(b'"'), *form, text(b'",'), *form, text(b","),
            *joined((i, j, disc27(i, j) // 27, h4 // 4)), _QUARTER_BYTES[quarter],
            text(b","), _ascii_digits(rows[:, 7]), text(b","), _FLAG_BYTES[rows[:, 8]],
            text(b",true,true,false\r\n"),
        ],
        axis=1,
    )
    return line[line != 0].tobytes()


def _below_height(row: CensusRow, height_bound: int | None) -> bool:
    return height_bound is None or row.height < height_bound


def _aggregate_from_rows(rows, height_bound: int | None = None) -> dict:
    """census's aggregates over scalar rows.  As in the engine, the height
    bound restricts the candidates, and so passing_all and s_passing."""
    omega_hist: dict[str, int] = {}
    for r in rows:
        if r.omega is not None:
            omega_hist[str(r.omega)] = omega_hist.get(str(r.omega), 0) + 1
    low = [r for r in rows if _below_height(r, height_bound)]
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
            for r in low
            if r.squarefree and r.omega is not None and r.omega <= 4 and r.r_soluble
        ),
        passing_all=sum(1 for r in low if r.passes_filters),
        distinct_ij=len({(r.i, r.j) for r in rows}),
        s_rows=sum(1 for r in rows if r.in_s),
        s_passing=sum(1 for r in low if r.in_s and r.passes_filters),
    )
