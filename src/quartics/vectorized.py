"""numpy batch engines behind the exhaustive sweeps.

The scalar implementations in forms/schemes/fourier are the contracts;
everything here is an equivalent vectorized evaluation path for sweeps
over ~p^5-sized spaces.  All arithmetic is exact: int64 modular work plus
BLAS float products of nonnegative integers.  Every count of zero
pairings goes through _zero_pairings, whose dot products are at most
5 (p-1)^2; it checks in code, before any product, that this fits the int32
it casts to (primes up to 20,719).  The oracle's fibre product also
carries each form's bincount offset, and _fibre_product sizes its float32
chunks so that its largest index is below 2^24.  The scalar/vectorized
agreement is itself part of the test suite.

Memory discipline, per chunk: a pairing product holds at most
_CHUNK_ENTRIES (2^19) float64 entries and a fibre product as many float32
ones, unless one form alone needs more (then one form per chunk, one
entry per row: p^4 + p^3 - p^2 for the fibres).  Their int32 and int64
copies take half and twice as much again, and a fibre histogram has k*m
bins for k forms, m < 5p^2 + p.  Beyond those, memory is the size of the
inputs and outputs: a row set (p^5 x 5 for all_forms_array, a
(2r+1)^5 x 5 box), a few row-length vectors, and the one cached
singular set of about p^4 rows, 5.5 MB at p = 19, written slab by slab
into one preallocated array beside p^4-entry grids: four uint8, one uint16.

The pairing table (_pairing_table) holds the fibres of every one of the
p^5 forms at once: p^6 float64 entries, 0.9 MB at p = 7, 14 MB at p = 11
and 39 MB at p = 13, at most two such arrays at a time (an int64 one
last), and beside them the BLAS buffers.  Its entries count rows, so they
are integers at most the number of rows and every BLAS sum is exact; each
table row must sum to that number, which is checked.  The one table
rule, _takes_table, takes it when |rows| |forms| >= p^8, where its 5 p^8
multiply-adds are no more than the direct product's.  It errs towards the
direct path: on one BLAS thread (2 vCPU), over the singular set at p = 5,
7 and 11 (the rule: 539, 2,140 and 13,524 forms), the table already won
from 51, 284 and 2,009 forms for the full fibres and from about 120, 250
and 800 to 1,300 for the zero pairings.  check_oracle_size, the one
memory guard of an oracle query, bounds the singular set and the table.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np

from .ffarith import check_prime, chi12, proj_reps
from .forms import disc27, form_product, hessian_mod, invariants_raw

__all__ = [
    "check_memory",
    "check_oracle_size",
    "singular_coeff_array",
    "all_forms_array",
    "chi_array",
    "trace_table",
    "count_xf_batch",
    "oracle_n_batch",
    "Case",
    "proportional",
    "closed_n_batch",
    "x1212_batch",
    "scheme_counts_batch",
    "box_coeff_array",
]

_CHUNK_ENTRIES = 1 << 19  # entries per pairing or fibre-product chunk
_PAIRING_WEIGHTS = np.array([12, 3, 2, 3, 12], dtype=np.int64)  # forms.pairing12's
# Per-prime tables cached: the 35 primes 5..157 that divide the moduli of
# box_sum(80, r), the largest Q of the box-sum grid.  At p = 157 a
# trace_table holds 8p^2 B = 197 KB and a _case_tables pair 9p^2 B = 222 KB,
# 4.5 MB for all 35 of both; a chi_array holds 8p B.
_PRIME_TABLES = 35


def all_forms_array(p: int) -> np.ndarray:
    """All p^5 coefficient rows in lexicographic order (only sensible for
    small p)."""
    idx = np.arange(p**5, dtype=np.int64)
    return np.stack([(idx // p ** (4 - k)) % p for k in range(5)], axis=1)


def check_memory(nbytes: int, what: str) -> None:
    """Raise ValueError when a stage's estimated peak, nbytes, passes 2 GiB."""
    if nbytes > 2**31:
        raise ValueError(f"{what} needs about {nbytes / 2**30:.1f} GiB, past 2 GiB")


def check_oracle_size(p: int, forms: int = 0) -> None:
    """Raise ValueError, allocating nothing, when an oracle query of that
    many forms at p would pass 2 GiB: the singular set's build, 78 to 85
    p^4 bytes at p = 23 to 43 beside the previous prime's cached set (so
    p <= 67), or the pairing table that _takes_table takes over the set."""
    check_memory(85 * p**4, f"the singular set at p={p}")
    _takes_table(p, p**4 + p**3 - p**2, forms)


@lru_cache(maxsize=1)  # a sweep visits each prime once, in ascending order
def singular_coeff_array(p: int) -> np.ndarray:
    """(p^4 + p^3 - p^2, 5) read-only array of all singular forms, zero row
    included, in lexicographic order.

    No monomial of I or J has a0 twice, so both are affine in a0:
    invariants_raw runs on each a1's (a2, a3, a4) grid at a0 = 0 and 1,
    filling uint8 (p, p, p, p) grids of (I, J) mod p and their a0-steps;
    each next slab adds the steps and wraps (x + dx < 2p < 256 within
    check_oracle_size's bound).  A slab's hits, the uint16 cell codes
    I*p + J set in one p x p table of 4I^3 = J^2, come from np.flatnonzero
    in lexicographic order, decoded straight into the preallocated result.
    Raises ValueError past check_oracle_size's bound, and RuntimeError
    before a slab would write past its end and when the hits leave it short.
    """
    check_prime(p, min_exclusive=3)
    check_oracle_size(p)
    size = p**4 + p**3 - p**2
    grid = np.ix_(*[np.arange(p, dtype=np.int64)] * 3)
    i, j, di, dj = np.empty((4,) + (p,) * 4, dtype=np.uint8)
    for a1 in range(p):
        (i0, j0), (i1, j1) = (invariants_raw((a0, a1, *grid)) for a0 in (0, 1))
        i[a1], j[a1], di[a1], dj[a1] = i0 % p, j0 % p, (i1 - i0) % p, (j1 - j0) % p
    on_disc = (disc27(*np.indices((p, p), dtype=np.int64)) % p == 0).ravel()
    code = np.empty_like(i, dtype=np.uint16)
    out = np.empty((size, 5), dtype=np.int64)
    start = 0
    for a0 in range(p):
        np.multiply(i, p, out=code, dtype=np.uint16)
        code += j
        hits = np.flatnonzero(on_disc[code])
        stop = start + len(hits)
        if stop > size:
            raise RuntimeError(f"singular count at p={p} passes {size} in slab a0={a0}")
        for k, col in enumerate((a0, *np.unravel_index(hits, i.shape))):
            out[start:stop, k] = col
        start = stop
        for x, dx in ((i, di), (j, dj)):  # on to slab a0 + 1
            x += dx
            np.minimum(x, x - p, out=x)  # x - p wraps past 255 where x < p
    if start != size:
        raise RuntimeError(f"singular count mismatch at p={p}: {start}")
    out.flags.writeable = False
    return out


@lru_cache(maxsize=_PRIME_TABLES)
def chi_array(p: int) -> np.ndarray:
    """chi_array(p)[a] = Legendre symbol (a/p)."""
    t = np.full(p, -1, dtype=np.int64)
    t[0] = 0
    x = np.arange(1, p, dtype=np.int64)
    t[(x * x) % p] = 1
    return t


@lru_cache(maxsize=_PRIME_TABLES)
def trace_table(p: int) -> np.ndarray:
    """trace_table(p)[i, j] = trace of y^2 = x^3 - 3i x^2 + j^2 over F_p,
    for the (i, j) with j != 0 and 4i^3 != j^2; 0 elsewhere (unused slots).

    The character sums come from one integer matrix product: with
    H[i, v] = #{x : x^3 - 3i x^2 = v} and C[v, s] = chi(v + s), the sum of
    chi(x^3 - 3i x^2 + s) over x is (H @ C)[i, s].
    Every entry is Hasse-checked: a^2 <= 4p.
    """
    check_prime(p, min_exclusive=3)
    chi = chi_array(p)
    i, x = np.indices((p, p), dtype=np.int64, sparse=True)
    hist = np.bincount((i * p + (x**3 - 3 * i * x * x) % p).ravel(), minlength=p * p)
    sums = hist.reshape(p, p) @ chi[(i + x) % p]
    j = x
    tr = -np.take_along_axis(sums, j * j % p, axis=1)
    # disc27 takes i at the table's shape: a broadcast view, not a copy
    valid = (j != 0) & (disc27(np.broadcast_to(i, (p, p)), j) % p != 0)
    if np.any((tr[valid] ** 2) > 4 * p):
        raise RuntimeError(f"Hasse bound violated in trace table at p={p}")
    tr[~valid] = 0
    return tr


# ---------------------------------------------------------------------------
# Oracle: exact n = p^5 * Phi_hat_p(f) from fibers over the singular cone


def _pairing_table(p: int, rows: np.ndarray) -> np.ndarray:
    """(p^5, p) int64 table N[f, t] = #{w in rows : [w, f] = t mod p} for
    every form f, in lexicographic order, rows counted with multiplicity.

    The pairing is diagonal, so the table grows one coordinate at a time
    from the float64 histogram H[w0, .., w4, t] of the rows (all at t = 0).
    Stage k replaces w_k by f_k: one BLAS product of the (p^4, p^2) view
    with columns (w_k, s) by the 0/1 matrix M[(w, s), (f, t)] =
    [t = s + c_k f w mod p], after which f_k moves to the front, so that
    the next stage's coordinate sits beside t.  Every entry counts rows, so
    every table row must sum to len(rows); that is checked."""
    rows = np.asarray(rows, dtype=np.int64) % p
    q = p**4
    table = np.bincount(rows @ p ** np.arange(5, 0, -1), minlength=p * p * q)
    table = table.astype(np.float64)
    w, s, f, t = np.ix_(*[np.arange(p)] * 4)
    for c in _PAIRING_WEIGHTS[::-1]:
        stage = ((s + c * f * w - t) % p == 0).reshape(p * p, p * p).astype(np.float64)
        table = table.reshape(q, p * p)  # past stage 1 a copy, freeing the old table first
        table = (table @ stage).reshape(q, p, p).transpose(1, 0, 2)
    table = table.reshape(p * q, p)
    table = table.astype(np.int64)
    if np.any(table.sum(axis=1) != len(rows)):
        raise RuntimeError(f"pairing table at p={p} does not conserve the row count")
    return table


def _takes_table(p: int, rows: int, forms: int) -> bool:
    """The table rule: _pairing_table's 5 p^8 multiply-adds are no more
    than the direct product's rows * forms.  Raises ValueError when it takes
    a table past 2 GiB, about 31 p^6 bytes (p > 19): an oracle query that
    took one rose 19 to 29 p^6 at p = 11 to 17, on two BLAS threads."""
    if rows * forms < p**8:
        return False
    check_memory(31 * p**6, f"the pairing table at p={p}")
    return True


def _table_rows(p: int, rows: np.ndarray, forms: np.ndarray) -> np.ndarray | None:
    """The rows of _pairing_table(p, rows) at the forms (reduced mod p),
    when _takes_table takes the table; else None."""
    if not _takes_table(p, len(rows), len(forms)):
        return None
    return _pairing_table(p, rows)[forms @ p ** np.arange(4, -1, -1)]


def _zero_pairings(p: int, rows: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """For each form f, the number of rows h with [h, f] = 0 mod p.

    Column 0 of the pairing table when _table_rows takes it.  Otherwise the
    rows are weighted by _PAIRING_WEIGHTS mod p once, and each chunk of
    forms is one float64 BLAS product of residues, of at most
    _CHUNK_ENTRIES entries unless one form alone needs more.  Every dot
    product is at most 5 (p-1)^2, checked to fit int32 before any product;
    float64 holds it exactly."""
    if 5 * (p - 1) ** 2 > np.iinfo(np.int32).max:
        raise ValueError(f"pairings at p={p} exceed the int32 range")
    forms = np.asarray(forms, dtype=np.int64) % p
    fibres = _table_rows(p, rows, forms)
    if fibres is not None:
        return fibres[:, 0].copy()
    wr = (np.asarray(rows, dtype=np.int64) % p * _PAIRING_WEIGHTS % p).astype(np.float64)
    out = np.empty(len(forms), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(len(wr), 1))
    for start in range(0, len(forms), step):
        stop = start + step
        vals = (wr @ forms[start:stop].T.astype(np.float64)).astype(np.int32)
        out[start:stop] = np.count_nonzero(vals % np.int32(p) == 0, axis=0)
    return out


def _fibre_product(p: int, rows: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """(len(forms), p) int64 fibres N[k, t] = #{w in rows : [w, f_k] = t},
    forms reduced mod p, by one float32 BLAS product per chunk of forms.

    The product gives every bincount index at once: the weighted rows, a
    contiguous (6, n) block reduced mod p as it is cast, carry a ones row
    and the forms a column of offsets k*m, so entry (k, w) is k*m plus a
    representative of [w, f_k] in [0, 5(p-1)^2], below m.  Chunks of at
    most 2^24 / m forms keep every sum exact.  m is a multiple of p, so the
    (k, m) histogram folds into the (k, p) fibre histogram over m/p blocks.
    The product and its int64 copy are allocated once per call."""
    m = p * (5 * (p - 1) ** 2 // p + 1)
    if m > 2**24:
        raise RuntimeError(f"fibre indices at p={p} exceed the float32 exact range")
    n = len(rows)
    step = max(1, min(_CHUNK_ENTRIES // n, 2**24 // m, len(forms)))
    ws = np.ones((6, n), dtype=np.float32)
    np.remainder(rows.T, p, out=ws[:5], casting="unsafe")  # exact for any int64 row
    ws[:5] *= _PAIRING_WEIGHTS[:, None]
    ws[:5] %= p
    prod = np.empty((step, n), dtype=np.float32)
    idx = np.empty((step, n), dtype=np.int64)
    out = np.empty((len(forms), p), dtype=np.int64)
    for start in range(0, len(forms), step):
        k = min(step, len(forms) - start)
        fs = np.column_stack((forms[start : start + k], np.arange(k) * m)).astype(np.float32)
        np.matmul(fs, ws, out=prod[:k])
        np.copyto(idx[:k], prod[:k], casting="unsafe")
        hist = np.bincount(idx[:k].ravel(), minlength=k * m)
        out[start : start + k] = hist.reshape(k, m // p, p).sum(axis=1)
    return out


def count_xf_batch(p: int, forms: np.ndarray) -> np.ndarray:
    """#X^f(F_p) = (N0 - 1)/(p - 1) for every row, N0 = #{singular w :
    [w, f] = 0}: the singular set is the cone {0} u F_p^x X(F_p).  Raises
    RuntimeError where p - 1 does not divide N0 - 1."""
    check_prime(p, min_exclusive=3)
    n0 = _zero_pairings(p, singular_coeff_array(p), forms)
    if np.any((n0 - 1) % (p - 1)):
        raise RuntimeError("(p-1) does not divide N0 - 1")
    return (n0 - 1) // (p - 1)


def oracle_n_batch(p: int, forms: np.ndarray) -> np.ndarray:
    """n = N0 - (N - N0)/(p - 1) where N0 = #{singular w : [w, f] = 0}.

    Every call computes the full fibre vector of w -> 12[w, f] over the
    entire singular set, from the pairing table when _table_rows takes it,
    else from _fibre_product, and requires all nonzero fibres to coincide
    (the cone property that makes the transform rational) and (p-1) to
    divide N - N0.
    """
    check_prime(p, min_exclusive=3)
    sing = singular_coeff_array(p)
    forms = np.asarray(forms, dtype=np.int64) % p
    fibres = _table_rows(p, sing, forms)
    if fibres is None:
        fibres = _fibre_product(p, sing, forms)
    n0 = fibres[:, 0]
    nonzero = fibres[:, 1:]
    if np.any(nonzero.max(axis=1) != nonzero.min(axis=1)):
        raise RuntimeError("nonzero fibers differ: cone property violated")
    rest = len(sing) - n0
    if np.any(rest % (p - 1)):
        raise RuntimeError("(p-1) does not divide the off-kernel fiber mass")
    return n0 - rest // (p - 1)


# ---------------------------------------------------------------------------
# Closed formula, fully vectorized


def proportional(f, g, p: int | None = None) -> np.ndarray:
    """Row by row, whether the five columns f and g are proportional: all
    ten 2x2 minors f_a g_b - f_b g_a vanish, mod p when p is given.  A zero
    row of either is proportional to everything.  With g = He_f on Disc = 0
    this tells the square locus c q^2 from the lone double roots."""
    out = np.ones(np.shape(f[0]), dtype=bool)
    for a in range(5):
        for b in range(a + 1, 5):
            minor = f[a] * g[b] - f[b] * g[a]
            out &= (minor if p is None else minor % p) == 0
    return out


class Case(IntEnum):
    """closed_n_batch's case per row; ZERO through NONSPLIT_SQUARE are the
    rows in family X mod p.

    The square locus f = c q^2, d = disc(q), has I = (c d)^2 and
    J = -2 (c d)^3, so it lies in the Disc = 0, J != 0 cells when c d != 0,
    and chi(d) = chi(-2 I J) chi(c) tells its two cases apart."""

    ZERO = 0  # f = 0 mod p
    TRIPLE = 1  # I = J = 0, f != 0: a triple or quadruple root
    SPLIT_SQUARE = 2  # (1^2 1^2): c q^2, chi(d) = 1
    NONSPLIT_SQUARE = 3  # (2^2): c q^2, chi(d) = -1
    DOUBLE = 4  # a lone double root: (1^2 11) or (1^2 2)
    SEMIDEGENERATE = 5  # Disc != 0, J = 0
    GENERIC = 6  # Disc != 0, J != 0


@lru_cache(maxsize=_PRIME_TABLES)
def _case_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, Case) for every (I, J) mod p, flattened at I*p + J.

    n depends on (I, J) alone except in two places, which closed_n_batch
    decides row by row: I = J = 0 holds the zero form as well as the
    triple roots, and Disc = 0, J != 0 holds the square locus as well as
    the lone double roots.  Those cells carry TRIPLE and DOUBLE.
    """
    i, j = np.indices((p, p), dtype=np.int64, sparse=True)
    double = (disc27(np.broadcast_to(i, (p, p)), j) % p == 0) & (j != 0)
    n = p * trace_table(p)
    case = np.full((p, p), Case.GENERIC, dtype=np.int8)
    n[:, 0] = p * chi_array(p)[(-3 * i[:, 0]) % p]
    case[:, 0] = Case.SEMIDEGENERATE
    n[double] = chi12(p) * p
    case[double] = Case.DOUBLE
    n[0, 0] = p * p * (p - 1)
    case[0, 0] = Case.TRIPLE
    n, case = n.ravel(), case.ravel()
    n.flags.writeable = case.flags.writeable = False
    return n, case


def closed_n_batch(
    p: int,
    forms: np.ndarray,
    ij: tuple[np.ndarray, np.ndarray] | None = None,
    cases: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized n = p^5 * Phi_hat_p(f) by the closed-form case list.

    ij is the pair of integer invariant arrays (I, J) of the rows, or any
    arrays congruent to them mod p; without it they are computed from the
    rows reduced mod p.  A caller that sweeps one box over many primes
    computes ij once and passes it to every call.

    cases, if given, is an int8 array with one slot per row that receives
    each row's Case.

    Case dispatch per form, by (I, J) mod p through _case_tables: generic
    via the trace table; semidegenerate; I = J = 0, where the rows zero
    mod p are told apart from the triple/quadruple roots by their columns;
    singular with J != 0, split into the square locus c q^2 (He_f parallel
    to f) and the lone double roots.  On the square locus chi(disc q) =
    chi(-2 I J) chi(c), by the identities of Case; raises RuntimeError if
    it comes out 0.
    """
    check_prime(p, min_exclusive=3)
    forms = np.asarray(forms, dtype=np.int64)
    if ij is None:
        ij = invariants_raw(tuple((forms % p).T))
    i, j = (np.asarray(v, dtype=np.int64) % p for v in ij)
    if i.shape != (len(forms),) or j.shape != (len(forms),):
        raise ValueError("ij must hold one I and one J per row")
    if cases is None:
        cases = np.empty(len(forms), dtype=np.int8)
    elif cases.shape != (len(forms),) or cases.dtype != np.int8:
        raise ValueError("cases must be an int8 array with one slot per row")
    n_tab, case_tab = _case_tables(p)
    flat = i * p + j
    n = n_tab[flat]
    np.take(case_tab, flat, out=cases)

    # I = J = 0: the rows zero mod p, among the triple/quadruple roots
    rows = np.flatnonzero(cases == Case.TRIPLE)
    zero = rows[~np.any(np.take(forms, rows, axis=0) % p, axis=1)]
    n[zero] = p**4 + p**3 - p**2
    cases[zero] = Case.ZERO

    # singular with J != 0: types (1^2 11), (1^2 2), (1^2 1^2), (2^2); a
    # row whose He_f is not parallel to f is a lone double root, as the
    # table has it
    rows = np.flatnonzero(cases == Case.DOUBLE)
    sub = tuple((np.take(forms, rows, axis=0) % p).T)
    prop = proportional(sub, hessian_mod(sub, p), p)
    rows = rows[prop]
    # f = c q^2, q = u x^2 + v xy + w y^2, d = v^2 - 4uw != 0 as J != 0:
    # -2 I J = 4 (c d)^5 has the character of c d, and c that of a0 = c u^2,
    # or of a2 = c v^2 (v != 0) when u = 0
    a0, a2 = (sub[k][prop] for k in (0, 2))
    chi = chi_array(p)
    chi_d = chi[-2 * i[rows] * j[rows] % p] * chi[np.where(a0 != 0, a0, a2)]
    if np.any(chi_d == 0):
        raise RuntimeError("chi(disc q) = 0 on the square locus (impossible with J != 0)")
    chi3 = chi12(p)
    split, nonsplit = rows[chi_d == 1], rows[chi_d == -1]
    n[split] = -chi3 * p * (p - 1)  # (1^2 1^2)
    cases[split] = Case.SPLIT_SQUARE
    n[nonsplit] = chi3 * p * (p + 1)  # (2^2)
    cases[nonsplit] = Case.NONSPLIT_SQUARE

    return n


# ---------------------------------------------------------------------------
# Brute scheme counts, vectorized over forms


def x1212_batch(p: int, forms: np.ndarray) -> np.ndarray:
    """Brute #X^f_{1^2 1^2} for every row of forms: the zero pairings of
    the row against all (p+1)^2 products l1^2 l2^2 over P1 x P1.  A zero
    row counts every pair."""
    check_prime(p, min_exclusive=3)
    s = np.array(list(proj_reps(p, 2)), dtype=np.int64).T
    sq = form_product(s, s)  # the coefficients of l^2, one entry per line l
    rows = form_product([c[:, None] for c in sq], [c[None, :] for c in sq])
    return _zero_pairings(p, np.stack(rows, axis=-1).reshape(-1, 5), forms)


def scheme_counts_batch(
    p: int, forms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute (#X_{1^2 2}, #X_{2^2}, #X_{1^2 1^2}) for every row of forms,
    by enumeration of the source spaces.  For X_{1^2 2}, each line l makes
    [l^2 q, f] a linear functional of q, and its zeros in P2 are counted
    from its three coefficients rather than enumerated, over chunks of
    rows that hold at most _CHUNK_ENTRIES (row, line) pairs."""
    check_prime(p, min_exclusive=3)
    forms = np.asarray(forms, dtype=np.int64)
    lines = list(proj_reps(p, 2))
    x122 = np.zeros(len(forms), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // len(lines))
    for start in range(0, len(forms), step):
        # contiguous columns: the loop below reads each of them p + 1 times
        f0, f1, f2, f3, f4 = np.ascontiguousarray(forms[start : start + step].T) % p
        out = x122[start : start + step]
        for s0, s1 in lines:
            c0 = (12 * f0 * s0 * s0 + 6 * f1 * s0 * s1 + 2 * f2 * s1 * s1) % p
            c1 = (3 * f1 * s0 * s0 + 4 * f2 * s0 * s1 + 3 * f3 * s1 * s1) % p
            c2 = (2 * f2 * s0 * s0 + 6 * f3 * s0 * s1 + 12 * f4 * s1 * s1) % p
            # q -> c . q is one linear functional on P2: p + 1 zeros, or
            # every point when it vanishes
            out += np.where((c0 | c1 | c2) == 0, p * p + p + 1, p + 1)
    t = np.array(list(proj_reps(p, 3)), dtype=np.int64).T
    x22 = _zero_pairings(p, np.stack(form_product(t, t), axis=1), forms)
    return x122, x22, x1212_batch(p, forms)


# ---------------------------------------------------------------------------
# Coefficient boxes over Z


def box_coeff_array(r: int) -> np.ndarray:
    """All (2r+1)^5 integer coefficient rows with |a_i| <= r."""
    side = 2 * r + 1
    idx = np.arange(side**5, dtype=np.int64)
    cols = [((idx // side ** (4 - k)) % side) - r for k in range(5)]
    return np.stack(cols, axis=1)
