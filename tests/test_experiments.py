import csv
import hashlib
import io
from dataclasses import replace
from fractions import Fraction
from itertools import count
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quartics.experiments import (
    CSV_HEADER,
    F0,
    box_sum,
    census,
    census_row,
    census_rows,
    census_s_rows,
    family_counts_by_radius,
    family_x_forms_in_box,
    singular_lattice_count,
    write_census_csv,
)
from quartics import experiments, intfactor
from quartics.experiments import (
    _abs_disc_of_keys,
    _aggregate_from_rows,
    _batch_irreducible,
    _batch_omega_squarefree,
    _batch_reducible,
    _batch_soluble,
    _CENSUS_GUARD,
    _check_headroom,
    _csv_bytes,
    _csv_record,
    _expand_slab,
    _family_member,
    _ij_key,
    _is_irreducible,
    _lookup,
    _orbit_slabs,
    _sorted_unique,
)
from quartics.forms import (
    QuarticForm,
    disc27,
    form_product,
    in_family_X,
    invariants_raw,
    is_R_soluble,
)
from quartics.fourier import BoundClass, bound_class, fourier_q
from quartics.intfactor import factorize, is_prime, primes_below
from quartics.vectorized import Case, _case_tables, box_coeff_array, closed_n_batch


def test_omega_examples():
    # the census reads Omega and squarefreeness of |Disc| from factorize (sign
    # ignored) and, in batch, from _batch_omega_squarefree
    r = factorize(-91)
    assert (r.omega, r.squarefree, r.complete) == (2, True, True)
    r = factorize(12)
    assert (r.omega, r.squarefree) == (3, False)
    r = factorize(1)
    assert (r.omega, r.squarefree, r.complete) == (0, True, True)
    with pytest.raises(ValueError):
        factorize(0)
    incomplete = factorize(1000003 * 1000033)
    assert not incomplete.complete
    om, sq = _batch_omega_squarefree(np.array([91, 12, 1], dtype=np.int64))
    assert om.tolist() == [2, 3, 0] and sq.tolist() == [True, False, True]


# the largest |Disc| that _check_headroom admits at the engine guard
_DISC_CEILING = (4 * (16 * _CENSUS_GUARD**2) ** 3 + (137 * _CENSUS_GUARD**3) ** 2) // 27


def _assert_batch_omega_matches(vals):
    vals = np.array(vals, dtype=np.int64)
    om, sq = _batch_omega_squarefree(vals)
    assert len(om) == len(sq) == len(vals)
    for k, v in enumerate(vals):
        r = factorize(int(v))
        assert r.complete
        assert (om[k], sq[k]) == (r.omega, r.squarefree), v


def test_batch_omega_matches_scalar():
    _assert_batch_omega_matches([])
    _assert_batch_omega_matches([1])
    _assert_batch_omega_matches([1009**2])  # the sieve includes isqrt(max)
    _assert_batch_omega_matches(
        [1, 2, 4, 91, 12, 360, 1009, 1009 * 1009, 999983, 999983 * 2, 10**9 + 7,
         (10**9 + 7) * 3, 6 * 10**9 + 11, 2**20 * 91, 1009 * 1013, 2**40 * 3**5,
         307**2, 307**3, 1009**3, 307 * 311]
    )
    # the engine sieves to isqrt of the largest value; a prime above the
    # square of the last sieved prime survives every round
    last = primes_below(isqrt(_DISC_CEILING) + 1)[-1]
    cofactor = next(n for n in range(last * last + 1, _DISC_CEILING) if is_prime(n))
    _assert_batch_omega_matches([cofactor, _DISC_CEILING])


@settings(deadline=None, max_examples=15)
@given(st.lists(st.integers(1, 33 * 10**10), max_size=20))
def test_batch_omega_matches_factorize_random(vals):
    _assert_batch_omega_matches(vals)


def test_singular_lattice_counts_small():
    exhaustive, parametrized = singular_lattice_count(4)
    assert exhaustive == parametrized
    for r in (1, 2, 3, 4):
        a = family_counts_by_radius(r)[r]
        assert a == len(family_x_forms_in_box(r)) == exhaustive[r]
    assert exhaustive[:2] == [1, 19]


def _orbit(f, negate):
    a0, a1, a2, a3, a4 = f
    imgs = {f, (a0, -a1, a2, -a3, a4), (a4, a3, a2, a1, a0), (a4, -a3, a2, -a1, a0)}
    if negate:
        imgs |= {tuple(-a for a in g) for g in imgs}
    return imgs


def _brute_orbits(r, negate):
    """{least row of the orbit: orbit size} over the box, from every row's
    full orbit; lexicographic order on tuples is box order."""
    reps = {}
    for f in map(tuple, box_coeff_array(r).tolist()):
        orbit = _orbit(f, negate)
        reps[min(orbit)] = len(orbit)
    return reps


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_orbit_slabs_one_row_per_orbit(r, negate):
    got = [
        (a0, tuple(row), int(wk))
        for a0, cols, w in _orbit_slabs(r, negate)
        for row, wk in zip(np.stack(cols, axis=1).tolist(), w)
    ]
    assert all(row[0] == a0 for a0, row, _ in got)
    rows = [row for _, row, _ in got]
    assert rows == sorted(rows)  # box order, no repeats
    assert {row: wk for _, row, wk in got} == _brute_orbits(r, negate)
    assert sum(wk for _, _, wk in got) == (2 * r + 1) ** 5


@pytest.mark.parametrize("r", [1, 2, 3])
def test_expand_slab_rebuilds_the_box(r):
    # expanding every 4-fold representative, slab by slab, gives the whole
    # box once, in box order: the census CSV path
    pending = {}
    rows = [
        _expand_slab(a0, np.stack(cols, axis=1), pending, r)
        for a0, cols, _ in _orbit_slabs(r)
    ]
    assert not pending
    assert np.array_equal(np.concatenate(rows), box_coeff_array(r))


def test_orbit_slab_counts():
    # the 8-fold representatives of the box_sum box r = 6 and the 4-fold
    # ones of the census workload B = 8
    assert sum(len(w) for _, _, w in _orbit_slabs(6, negate=True)) == 47_299
    assert sum(len(w) for _, _, w in _orbit_slabs(8)) == 358_649


def test_family_counts_by_radius_scan_once(monkeypatch):
    # one scan of 3B sends each Disc = 0 orbit once to the batch classifier
    # and counts every r <= 3
    reps = np.array(sorted(_brute_orbits(3, negate=True)), dtype=np.int64)
    i, j = invariants_raw(tuple(reps.T))
    rows = []
    monkeypatch.setattr(
        experiments,
        "_family_member",
        lambda cols, i, j: rows.append(len(i)) or _family_member(cols, i, j),
    )
    counts = family_counts_by_radius(3)
    assert sum(rows) == int(np.count_nonzero(4 * i**3 == j * j))
    assert counts[0] == 1  # the zero form
    assert counts[1:] == [len(family_x_forms_in_box(r)) for r in (1, 2, 3)]


def test_family_member_matches_scalar():
    # the batch classifier against in_family_X on every Disc = 0 row of 4B
    box = box_coeff_array(4)
    i, j = invariants_raw(tuple(box.T))
    disc0 = 4 * i**3 == j * j
    rows = box[disc0]
    member = _family_member(tuple(rows.T), i[disc0], j[disc0])
    expected = [in_family_X(QuarticForm(*f)) for f in rows.tolist()]
    assert member.tolist() == expected
    assert 0 < sum(expected) < len(expected)  # both sides of the rule occur


def test_family_box_contains_zero_once():
    forms = family_x_forms_in_box(2)
    assert (0, 0, 0, 0, 0) in forms
    # every parametrized form really lies in the family, and in the box
    for c in forms:
        assert all(abs(v) <= 2 for v in c)
        assert in_family_X(QuarticForm(*c))


def test_family_box_matches_exhaustive_filter():
    # independent route: scan the whole box with the Q-factorization test
    r = 2
    forms = family_x_forms_in_box(r)
    brute = set()
    rng = range(-r, r + 1)
    for a0 in rng:
        for a1 in rng:
            for a2 in rng:
                for a3 in rng:
                    for a4 in rng:
                        if in_family_X(QuarticForm(a0, a1, a2, a3, a4)):
                            brute.add((a0, a1, a2, a3, a4))
    assert forms == brute


def test_box_sum_anchor():
    # frozen regression anchor, r=1, Q=5 (242 nonzero forms, q in {5,6,7,10})
    res = box_sum(5, 1)
    assert res.exact == Fraction(73574986, 300125)
    assert res.in_x_exact == Fraction(29013806, 1500625)
    assert 0 <= res.in_x_exact <= res.exact
    with pytest.raises(ValueError):
        box_sum(3, 5)
    with pytest.raises(ValueError):
        box_sum(3, 0)


def test_box_sum_golden_zero_mod_p_rows():
    # frozen at r=5, Q=11: the box holds nonzero forms = 0 mod 5, which
    # closed_n_batch must count with n = p^4 + p^3 - p^2 and as in family X
    res = box_sum(11, 5)
    assert res.exact == Fraction(
        759121545087201859971595202, 620917258679232471831875
    )
    assert res.in_x_exact == Fraction(
        205369508321565625767066118, 6830089845471557190150625
    )


def test_box_sum_golden_shared_primes():
    # frozen at r=1, Q=20: q = 35 takes the product of the |n| vectors of
    # 5 and 7 over the whole box
    res = box_sum(20, 1)
    assert res.exact == Fraction(
        235743896594426068815759799627994626043850080768,
        93593010117919327851599576560935366217039026025,
    )
    assert res.in_x_exact == Fraction(
        3294859088139562000644686547660548581242935933256,
        2339825252947983196289989414023384155425975650625,
    )


def test_family_rows_stay_in_family_mod_every_prime():
    # reduction mod p sends (ax+by)^3 (cx+dy) and t q^2 to forms of the same
    # shape or to 0, so every p | q keeps box_sum's family rows in family X
    reps = np.concatenate(
        [np.stack(cols, axis=1) for _, cols, _ in _orbit_slabs(6, negate=True)]
    )
    i, j = invariants_raw(tuple(reps.T))
    cand = np.flatnonzero(disc27(i, j) == 0)
    fam = reps[cand[_family_member(tuple(reps[cand].T), i[cand], j[cand])]]
    assert len(fam) == 83
    cases = np.empty(len(fam), dtype=np.int8)
    for p in primes_below(158)[2:]:  # 5 <= p <= 157
        closed_n_batch(p, fam, cases=cases)
        assert cases.max() <= Case.NONSPLIT_SQUARE, p


def test_box_sum_family_subsums_match_enumeration():
    # box_sum takes its family rows from _family_member; the scalar sums
    # over the parametrized enumeration give the same sub-sum, also when
    # each term is kept only where every p | q leaves f in family X mod p.
    # Q = 20 holds q = 35, where the family products of 5 and 7 are formed
    Q, r = 20, 3
    res = box_sum(Q, r)
    forms = family_x_forms_in_box(r) - {(0, 0, 0, 0, 0)}
    in_x = in_x_mod_p = Fraction(0)
    for q in range(Q, 2 * Q + 1):
        if not factorize(q).squarefree:
            continue
        ps = [p for p in factorize(q).factors if p > 3]
        for f in forms:
            v = abs(fourier_q(q, f))
            in_x += v
            if all(bound_class(p, f) is not BoundClass.GENERIC for p in ps):
                in_x_mod_p += v
    assert res.in_x_exact == in_x == in_x_mod_p


def _box_sum_18_5_bounds():
    """The int64 bounds box_sum(18, 5) checks, from max |n| over the whole
    box: prod_{p | q, p > 3} max |n_p| times the 161,050 nonzero forms,
    for q = 35 (5 * 7, the largest) and for the largest single prime, 31."""
    box = box_coeff_array(5)
    box = box[box.any(axis=1)]
    nmax = {p: int(np.abs(closed_n_batch(p, box)).max()) for p in (5, 7, 31)}
    return len(box) * nmax[5] * nmax[7], len(box) * nmax[31]


def test_box_sum_int64_headroom_is_checked(monkeypatch):
    need, single = _box_sum_18_5_bounds()
    exact = box_sum(18, 5).exact
    monkeypatch.setattr(experiments, "_INT64_MAX", need)
    assert box_sum(18, 5).exact == exact
    for limit, what in ((need - 1, "product sum at q = 35"), (single - 1, "sum at p = 31")):
        monkeypatch.setattr(experiments, "_INT64_MAX", limit)
        with pytest.raises(ValueError, match=what):
            box_sum(18, 5)


def test_box_sum_tables_stay_cached():
    # one box_sum(80, r) needs the tables of 35 primes; all stay cached
    box_sum(80, 6)
    misses = _case_tables.cache_info().misses
    box_sum(80, 6)
    assert _case_tables.cache_info().misses == misses


def test_box_sum_monotone_in_q():
    vals = [box_sum(Q, 2).exact for Q in (10, 20, 40)]
    assert vals[0] > vals[1] > vals[2]


def test_census_row_f0():
    row = census_row(F0)
    assert row.in_s
    assert row.omega == 2 and row.squarefree  # Disc/2^20 = -91 = -7*13
    assert not row.irreducible  # x divides f0
    assert row.r_soluble  # f0(2, -1) = 256 > 0
    assert row.height == 452984832
    assert row.disc == -91 * 2**20


def test_census_row_incomplete_factoring_is_not_squarefree(monkeypatch):
    # Disc(F0)/2^20 = -91: with trial division by 2 alone, 91 is an
    # unfactored composite, and the row must not read as squarefree
    monkeypatch.setattr(intfactor, "_TRIAL_BUDGET", 2)
    row = census_row(F0)
    assert not row.omega_complete and not row.squarefree


def test_census_guard_stays_below_the_s_box():
    # the engine writes s_rows = s_passing = 0 and in_S = false, true only
    # while its boxes hold no S-congruence row; the smallest box that holds
    # one, F0's, must stay past _CENSUS_GUARD
    smallest = next(b for b in count() if census_s_rows(b))
    assert smallest == 38 and census_s_rows(37) == []
    assert [row.coeffs for row in census_s_rows(smallest)] == [F0.coeffs]
    assert _CENSUS_GUARD < smallest


def test_census_s_slice():
    rows = census_s_rows(38)
    assert len(rows) == 1 and rows[0].coeffs == F0.coeffs
    assert census_s_rows(10) == []
    agg = census(38, require_s=True)
    assert agg["total_forms"] == 1 and agg["s_rows"] == 1
    assert agg["sf_omega_le4"] == 1 and agg["passing_all"] == 0
    for row in rows:
        assert row.disc % 2**20 == 0
        dprime = row.disc // 2**20
        assert dprime % 2 and dprime % 3  # coprime to 6


def test_census_s_slice_csv_holds_passing_rows(tmp_path):
    # F0 is reducible, so the slice passes nothing and the CSV is its header
    path = tmp_path / "s.csv"
    agg = census(38, require_s=True, out_csv=str(path))
    assert agg["passing_all"] == 0
    assert len(path.read_text().splitlines()) == agg["passing_all"] + 1


def test_census_s_slice_height_bounds_candidates_only():
    # as in the engine, the height bound counts every row and caps the
    # candidates; height(F0) = 452984832
    for bound, candidates in ((10, 0), (452984832, 0), (452984833, 1)):
        agg = census(38, height_bound=bound, require_s=True)
        assert agg["total_forms"] == agg["s_rows"] == 1
        assert agg["candidates"] == candidates
        assert agg["passing_all"] == agg["s_passing"] == 0


def test_census_engine_matches_scalar_rows():
    for bound in (1, 2):
        agg = census(bound)
        rows = census_rows(bound)
        ragg = _aggregate_from_rows(rows)
        for key in (
            "total_forms",
            "zero_disc",
            "squarefree",
            "sf_omega_le4",
            "r_soluble",
            "candidates",
            "passing_all",
            "distinct_ij",
        ):
            assert agg[key] == ragg[key], key
        assert agg["omega_hist"] == ragg["omega_hist"]


CENSUS_5 = {
    "candidates": 32348, "coeff_bound": 5, "distinct_ij": 30493,
    "height_bound": None,
    "omega_hist": {
        "1": 11372, "2": 16660, "3": 21948, "4": 19372, "5": 22172,
        "6": 18180, "7": 15780, "8": 9692, "9": 8836, "10": 5048,
        "11": 3784, "12": 2072, "13": 1464, "14": 584, "15": 452,
        "16": 128, "17": 92, "18": 48, "19": 28, "20": 8,
    },
    "passing_all": 29884, "r_soluble": 141866, "require_s": False,
    "s_passing": 0, "s_rows": 0, "sf_omega_le4": 37588, "squarefree": 37676,
    "total_forms": 161051, "zero_disc": 3331,
}

CENSUS_8 = {
    "candidates": 242118, "coeff_bound": 8, "distinct_ij": 254909,
    "height_bound": None,
    "omega_hist": {
        "1": 66992, "2": 120300, "3": 152972, "4": 156292, "5": 169988,
        "6": 161324, "7": 151332, "8": 116440, "9": 97384, "10": 65808,
        "11": 51636, "12": 34264, "13": 24772, "14": 13880, "15": 10608,
        "16": 5348, "17": 3736, "18": 2092, "19": 1324, "20": 460,
        "21": 296, "22": 124, "23": 64, "24": 16, "25": 8, "26": 4,
    },
    "passing_all": 233624, "r_soluble": 1246099, "require_s": False,
    "s_passing": 0, "s_rows": 0, "sf_omega_le4": 279904, "squarefree": 282080,
    "total_forms": 1419857, "zero_disc": 12393,
}


def test_census_golden_aggregates():
    # B = 8 is the census workload of the benchmark
    assert census(5) == CENSUS_5
    assert census(8) == CENSUS_8


def test_census_zero_box():
    # one form, f = 0, with Disc = 0: the Omega engine gets no values
    assert census(0) == {
        "coeff_bound": 0, "height_bound": None, "require_s": False,
        "omega_hist": {}, "distinct_ij": 1, "total_forms": 1, "zero_disc": 1,
        "squarefree": 0, "sf_omega_le4": 0, "r_soluble": 1, "candidates": 0,
        "passing_all": 0, "s_rows": 0, "s_passing": 0,
    }


def test_census_rejects_bad_bounds():
    with pytest.raises(ValueError):
        census(-1)
    with pytest.raises(ValueError):
        census(-1, require_s=True)
    with pytest.raises(ValueError):
        census(26)  # beyond the engine guard
    for height in (1, 0, -5):  # a vacuous height filter
        with pytest.raises(ValueError):
            census(2, height_bound=height)
        with pytest.raises(ValueError):
            census(38, height_bound=height, require_s=True)
    _check_headroom(198)
    with pytest.raises(ValueError):
        _check_headroom(199)  # 137 B^3 >= 2^30


def test_batch_irreducible_matches_scalar_on_box():
    box = box_coeff_array(3)
    irr = _batch_irreducible(tuple(box.T), np.arange(len(box)))
    for k, row in enumerate(box):
        assert irr[k] == _is_irreducible(QuarticForm.from_coeffs(row.tolist())), row


def test_irreducibility_certificate_edge_cases(monkeypatch):
    def refuse(f):
        raise AssertionError("factor_over_Q reached")

    monkeypatch.setattr(experiments, "factor_over_Q", refuse)
    forms = [
        (1, 0, 0, 0, 1),  # x^4 + y^4: reducible mod every prime
        (1, 0, 3, 0, 2),  # (x^2 + y^2)(x^2 + 2y^2): square Disc where rootless
        (2, 0, 0, 0, 1),  # 2x^4 + y^4: rootless, non-square Disc mod 5
    ]
    cols = tuple(np.array(c, dtype=np.int64) for c in zip(*forms))
    irr = _batch_irreducible(cols, np.arange(len(forms)))
    assert irr.tolist() == [True, False, True]


_EXACT_CASES = [
    ((1, 0, 1, 0, 1), False),  # (x^2 + xy + y^2)(x^2 - xy + y^2): singular system
    ((1, 0, 2, 0, 1), False),  # (x^2 + y^2)^2
    ((2, 0, 0, 0, 2), True),  # 2 (x^4 + y^4): content 2
    ((2, -1, 2, 1, -1), False),  # (2x - y)(x^3 + xy^2 + y^3): the root 1/2
    ((1, 0, 0, 0, 1), True),  # x^4 + y^4
]


@pytest.mark.parametrize("coeffs, irreducible", _EXACT_CASES)
def test_batch_reducible_named_cases(coeffs, irreducible):
    assert _is_irreducible(QuarticForm(*coeffs)) == irreducible
    cols = tuple(np.array([c], dtype=np.int64) for c in coeffs)
    assert _batch_reducible(cols).tolist() == [not irreducible]


def test_batch_reducible_matches_scalar_on_box():
    # the exact step alone, with the certificates bypassed
    box = box_coeff_array(3)
    box = box[(box[:, 0] != 0) & (box[:, 4] != 0)]
    red = _batch_reducible(tuple(box.T))
    for k, row in enumerate(box):
        assert red[k] != _is_irreducible(QuarticForm.from_coeffs(row.tolist())), row


_B25 = st.integers(-_CENSUS_GUARD, _CENSUS_GUARD)
_NONZERO_B25 = _B25.filter(bool)


@st.composite
def _quartics_up_to_b25(draw):
    """A quartic with a0 a4 != 0 drawn directly with |a_i| <= 25, or as a
    product of a linear and a cubic form or of two quadratic forms, which
    random draws would seldom be; the caller filters to |a_i| <= 25."""
    kind = draw(st.sampled_from(["random", "linear", "quadratic"]))
    if kind == "random":
        f = [draw(_NONZERO_B25), *draw(st.tuples(_B25, _B25, _B25)), draw(_NONZERO_B25)]
    else:
        deg = 1 if kind == "linear" else 2
        small = st.integers(-5, 5)
        u = [draw(small) for _ in range(deg + 1)]
        v = [draw(small) for _ in range(5 - deg)]
        f = form_product(u, v)
    return tuple(f)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        _quartics_up_to_b25().filter(
            lambda f: f[0] * f[4] != 0 and max(map(abs, f)) <= _CENSUS_GUARD
        ),
        min_size=1,
        max_size=20,
    )
)
def test_batch_reducible_matches_scalar_up_to_b25(forms):
    cols = tuple(np.array(c, dtype=np.int64) for c in zip(*forms))
    red = _batch_reducible(cols)
    for k, f in enumerate(forms):
        assert red[k] != _is_irreducible(QuarticForm(*f)), f


def test_batch_reducible_rejects_rows_beyond_guard():
    big = (_CENSUS_GUARD + 1, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        _batch_reducible(tuple(np.array([c], dtype=np.int64) for c in big))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
@example([])
@example([7] * 5)
@example([-(2**63), 2**63 - 1, -(2**63), 0, 2**63 - 1])
def test_sorted_unique_matches_np_unique(values):
    a = np.array(values, dtype=np.int64)
    uniq, inverse = np.unique(a, return_inverse=True)
    assert np.array_equal(_sorted_unique(a), uniq)
    assert _sorted_unique(a).dtype == np.int64
    assert np.array_equal(_lookup(uniq, a), inverse)


def test_abs_disc_of_keys_in_chunks(monkeypatch):
    # chunks of 7 keys, the last one short, give the one-shot |Disc|
    rng = np.random.default_rng(5)
    i = rng.integers(-16 * 25**2, 16 * 25**2 + 1, size=40)
    j = rng.integers(-137 * 25**3, 137 * 25**3 + 1, size=40)
    monkeypatch.setattr(experiments, "_DISC_CHUNK", 7)
    assert _abs_disc_of_keys(_ij_key(i, j)).tolist() == [
        abs(disc27(a, b)) // 27 for a, b in zip(i.tolist(), j.tolist())
    ]


def test_census_looks_up_each_pass2_slab_once_by_abs_disc(monkeypatch):
    # pass 2 finds each slab's |Disc| in the one pass-1 table of distinct
    # |Disc|; no other table is searched
    lookup = experiments._lookup
    tables = []
    monkeypatch.setattr(
        experiments, "_lookup", lambda table, q: tables.append(table) or lookup(table, q)
    )
    census(8)
    assert len(tables) == sum(1 for _ in _orbit_slabs(8))
    assert all(t is tables[0] for t in tables)
    i, j = invariants_raw(tuple(box_coeff_array(8).T))
    assert np.array_equal(tables[0], np.unique(np.abs(disc27(i, j)) // 27))


def test_census_height_filter():
    full = census(2)
    capped = census(2, height_bound=1000)
    assert capped["candidates"] <= full["candidates"]
    assert capped["passing_all"] <= full["passing_all"]


def test_census_subset_property():
    # the S-restricted slice of any box is a subset of the unrestricted box
    for bound in (2, 5):
        s_rows = census_s_rows(bound)
        assert len(s_rows) <= census(bound)["total_forms"]
        for row in s_rows:
            assert all(abs(c) <= bound for c in row.coeffs)


def test_census_csv(tmp_path):
    rows = census_rows(1)
    path = tmp_path / "census.csv"
    write_census_csv(rows, path)
    with open(path) as fh:
        r = csv.reader(fh)
        header = next(r)
        assert header == CSV_HEADER
        body = list(r)
    assert len(body) == len(rows)
    k = [row.coeffs for row in rows].index((-1, 0, 0, 0, -1))
    assert body[k][0] == "-1,0,0,0,-1"
    assert body[k][-2] == "false"  # negative definite: not R-soluble


def test_census_csv_engine_path(tmp_path):
    # the vectorized engine streams exactly the passing rows
    path = tmp_path / "big.csv"
    agg = census(2, out_csv=str(path))
    with open(path) as fh:
        body = list(csv.reader(fh))[1:]
    assert len(body) == agg["passing_all"]
    scalar_passing = {r.coeffs for r in census_rows(2) if r.passes_filters}
    assert {tuple(map(int, row[1:6])) for row in body} == scalar_passing


@pytest.mark.parametrize(
    "bound, height, rows, digest",
    [
        (4, None, 7892, "81ea0e861eec1d18f7f2274bb56a4960b36bae25224ac02be9c9810d5f77a790"),
        (5, 10**6, 12992, "335cb6ab0b5dcd4d5b9a5e42de164bc21a70159926cfe6541fe6ea80f5e83fde"),
    ],
    ids=["B4", "B5-height"],
)
def test_census_csv_bytes_pinned(tmp_path, monkeypatch, bound, height, rows, digest):
    # the row output, byte for byte, as the per-row csv.writer wrote it;
    # the engine shapes its rows without the scalar _csv_record
    def refuse(*args):
        raise AssertionError("scalar _csv_record reached")

    monkeypatch.setattr(experiments, "_csv_record", refuse)
    path = tmp_path / "rows.csv"
    agg = census(bound, height_bound=height, out_csv=str(path))
    data = path.read_bytes()
    assert agg["passing_all"] == rows == data.count(b"\r\n") - 1
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_census_csv_engine_matches_scalar_writer(tmp_path, bound):
    # the batch line shaper against write_census_csv of the scalar rows
    engine, scalar = tmp_path / "engine.csv", tmp_path / "scalar.csv"
    census(bound, out_csv=str(engine))
    write_census_csv([r for r in census_rows(bound) if r.passes_filters], scalar)
    assert engine.read_bytes() == scalar.read_bytes()


def test_r_solubility_vectorized_consistency():
    # _batch_soluble inside the engine vs the Sturm path
    rng = np.random.default_rng(3)
    cols = [rng.integers(-8, 9, size=600).astype(np.int64) for _ in range(5)]
    out = _batch_soluble(cols)
    for k in range(600):
        f = QuarticForm(*(int(c[k]) for c in cols))
        assert out[k] == is_R_soluble(f), f.coeffs


def test_batch_soluble_on_negative_singular_rows():
    # every Disc = 0 row of 4B with a0 < 0 and a4 < 0: the square-locus
    # rule against Sturm, on the only rows where the sign tests say nothing
    box = box_coeff_array(4)
    i, j = invariants_raw(tuple(box.T))
    rows = box[(4 * i**3 == j * j) & (box[:, 0] < 0) & (box[:, 4] < 0)]
    assert len(rows) == 110
    out = _batch_soluble(tuple(rows.T))
    ref = [is_R_soluble(QuarticForm.from_coeffs(row)) for row in rows.tolist()]
    assert out.tolist() == ref
    assert not all(ref)  # the insoluble squares are reached


_SMALL = st.integers(-5, 5)


@st.composite
def _singular_or_random_rows(draw):
    # c q^2, l^2 q, l^3 m and unrestricted rows, all inside 25B
    kind = draw(st.sampled_from(["square", "double", "triple", "any"]))
    if kind == "any":
        return draw(st.tuples(*[st.integers(-25, 25)] * 5))
    if kind == "square":
        c, (u, v, t) = draw(_SMALL), draw(st.tuples(_SMALL, _SMALL, _SMALL))
        q = (u, v, t)
        f = (c * u * u, 2 * c * u * v, c * (v * v + 2 * u * t), 2 * c * v * t, c * t * t)
    else:
        a, b = draw(_SMALL), draw(_SMALL)
        if kind == "double":
            q = draw(st.tuples(_SMALL, _SMALL, _SMALL))
        else:
            c, d = draw(_SMALL), draw(_SMALL)
            q = (a * c, a * d + b * c, b * d)
        lsq = (a * a, 2 * a * b, b * b)
        f = tuple(
            sum(lsq[m] * q[k - m] for m in range(3) if 0 <= k - m <= 2)
            for k in range(5)
        )
    assume(all(abs(x) <= 25 for x in f))
    return f


@settings(deadline=None, max_examples=300)
@given(st.lists(_singular_or_random_rows(), min_size=1, max_size=20))
def test_batch_soluble_matches_sturm(rows):
    out = _batch_soluble(tuple(np.array(rows, dtype=np.int64).T))
    assert out.tolist() == [is_R_soluble(QuarticForm(*f)) for f in rows]


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(_singular_or_random_rows(), st.integers(0, 40), st.booleans()),
        min_size=1,
        max_size=20,
    )
)
# odd J with J^2/4 > |I|^3 (height 52212.25), and the tie 4|I|^3 = J^2
@example([((-2, -1, -2, -2, 1), 3, True), ((0, 0, 1, 0, 0), 0, False)])
# corners of 25B: the widest |I| and |Disc| (I = 10^4), the widest |J| and
# height (J = 2078125, a negative Disc), the most negative Disc with a zero
# coefficient, and the zero form
@example(
    [
        ((-25, -25, -25, 25, -25), 12, True),
        ((-25, -25, 25, -25, -25), 0, False),
        ((-25, -25, 25, 0, 25), 40, True),
        ((0, 0, 0, 0, 0), 1, False),
    ]
)
def test_csv_lines_match_csv_writer(rows):
    forms = np.array([f for f, _, _ in rows], dtype=np.int64)
    i, j = invariants_raw(tuple(forms.T))
    table = np.column_stack((forms, i, j, [[om, sf] for _, om, sf in rows]))
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(
        _csv_record(f, int(ik), int(jk), om, (sf, True, True, False))
        for (f, om, sf), ik, jk in zip(rows, i, j)
    )
    assert _csv_bytes(table) == expected.getvalue().encode()


def test_csv_bytes_of_an_empty_slab():
    assert _csv_bytes(np.zeros((0, 9), dtype=np.int64)) == b""


def test_census_makes_no_scalar_solubility_calls(monkeypatch):
    # nor any exact factorization: the batch step decides every open row
    def refuse(f):
        raise AssertionError("a scalar solubility or factorization call reached")

    monkeypatch.setattr(experiments, "is_R_soluble", refuse)
    monkeypatch.setattr(experiments, "factor_over_Q", refuse)
    assert census(5) == CENSUS_5


@settings(deadline=None, max_examples=40)
@given(st.tuples(*[st.integers(-12, 12)] * 5))
def test_census_row_invariant_under_box_symmetries(f):
    # every field but the coefficients is fixed by sigma and tau, which
    # lets the census count orbit representatives
    a0, a1, a2, a3, a4 = f
    row = replace(census_row(QuarticForm(*f)), coeffs=None)
    for g in ((a4, a3, a2, a1, a0), (a0, -a1, a2, -a3, a4)):
        assert replace(census_row(QuarticForm(*g)), coeffs=None) == row
