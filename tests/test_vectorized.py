"""The numpy engines must agree with the scalar contract implementations."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartics.forms import (
    QuarticForm,
    SplittingType,
    act,
    invariants_mod,
    invariants_raw,
    splitting_type_mod,
)
from quartics.fourier import closed_n
from quartics.schemes import (
    count_X122,
    count_X1212,
    count_X22,
    count_Xf,
    singular_proj_reps,
)
from quartics.vectorized import (
    Case,
    all_forms_array,
    box_coeff_array,
    chi_array,
    closed_n_batch,
    count_xf_batch,
    inv_array,
    oracle_n_batch,
    scheme_counts_batch,
    singular_coeff_array,
    singular_proj_array,
    trace_table,
    x1212_batch,
)
from quartics import vectorized


def test_all_forms_enumeration():
    b = all_forms_array(5)
    assert b.shape == (5**5, 5)
    assert list(b[0]) == [0, 0, 0, 0, 0]
    assert list(b[7]) == [0, 0, 0, 1, 2]
    assert list(b[-1]) == [4, 4, 4, 4, 4]


def test_singular_sets():
    for p in (5, 7, 11):
        sing = singular_coeff_array(p)
        assert len(sing) == p**4 + p**3 - p**2
        i, j = invariants_raw(tuple(sing.T))
        assert not np.any((4 * i**3 - j * j) % p)
        keys = sing @ p ** np.arange(4, -1, -1)  # lexicographic rank of each row
        assert np.all(np.diff(keys) > 0)  # distinct and in lexicographic order
        forms = all_forms_array(p)
        i, j = invariants_raw(tuple(forms.T))
        assert np.array_equal(sing, forms[(4 * i**3 - j * j) % p == 0])
        reps = singular_proj_array(p)
        assert len(reps) == p**3 + 2 * p**2 + p + 1
        assert set(map(tuple, reps)) == set(singular_proj_reps(p))


def test_chi_and_inv_tables():
    from quartics.ffarith import inv_mod, legendre

    for p in (5, 13):
        chi = chi_array(p)
        assert all(chi[a] == legendre(a, p) for a in range(p))
        inv = inv_array(p)
        assert all(inv[a] == inv_mod(a, p) for a in range(1, p))


def test_trace_table():
    from quartics.schemes import eprime_count

    for p in (5, 11):
        t = trace_table(p)
        for i in range(p):
            for j in range(1, p):
                if (4 * i**3 - j * j) % p == 0:
                    continue
                assert t[i, j] == p + 1 - eprime_count(p, i, j)
                assert t[i, j] ** 2 <= 4 * p


@pytest.mark.parametrize("p", [5, 7])
def test_closed_batch_exhaustive(p):
    forms = all_forms_array(p)
    batch = closed_n_batch(p, forms)
    for k in range(len(forms)):
        assert batch[k] == closed_n(p, tuple(int(v) for v in forms[k]))


@pytest.mark.parametrize("p", [11, 13, 17])
def test_closed_batch_sampled(p):
    rng = np.random.default_rng(p)
    forms = rng.integers(0, p, size=(300, 5), dtype=np.int64)
    batch = closed_n_batch(p, forms)
    for k in range(len(forms)):
        assert batch[k] == closed_n(p, tuple(int(v) for v in forms[k]))


@pytest.mark.parametrize("p", [5, 7])
def test_oracle_batch_modes_agree(p):
    forms = all_forms_array(p)
    assert np.array_equal(
        oracle_n_batch(p, forms, check_fibers=True),
        oracle_n_batch(p, forms, check_fibers=False),
    )


def test_oracle_fibre_check_rejects_a_nonsingular_row(monkeypatch):
    # one singular row swapped for x^4 + y^4, Disc != 0 mod 5: the folded
    # fibre histogram of some form is no longer flat off zero
    p = 5
    sing = singular_coeff_array(p).copy()
    sing[-1] = [1, 0, 0, 0, 1]
    monkeypatch.setattr(vectorized, "singular_coeff_array", lambda q: sing)
    with pytest.raises(RuntimeError, match="cone property"):
        oracle_n_batch(p, all_forms_array(p), check_fibers=True)


@pytest.mark.parametrize("p", [5, 7, 11, 61])
def test_x1212_batch_vs_scalar(p):
    forms = np.random.default_rng(p).integers(0, p, size=(40, 5), dtype=np.int64)
    forms = forms[np.any(forms, axis=1)]
    batch = x1212_batch(p, forms)
    for k in range(len(forms)):
        assert batch[k] == count_X1212(QuarticForm(*(int(v) for v in forms[k]), p=p))


def test_count_xf_batch():
    rng = random.Random(5)
    for p in (5, 7):
        cs = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(12)]
        cs = [c for c in cs if any(c)]
        batch = count_xf_batch(p, np.array(cs, dtype=np.int64))
        for k, c in enumerate(cs):
            assert batch[k] == count_Xf(QuarticForm(*c, p=p))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([5, 7, 11]),
    st.lists(st.tuples(*[st.integers(-30, 30)] * 5), min_size=1, max_size=6),
)
def test_scheme_counts_batch_vs_scalar(p, rows):
    # the third count is x1212_batch's; a row = 0 mod p counts every point
    x122, x22, x1212 = scheme_counts_batch(p, np.array(rows, dtype=np.int64))
    plane = p * p + p + 1
    for k, c in enumerate(rows):
        if any(a % p for a in c):
            f = QuarticForm(*c, p=p)
            expected = (count_X122(f), count_X22(f), count_X1212(f))
        else:
            expected = ((p + 1) * plane, plane, (p + 1) ** 2)
        assert (x122[k], x22[k], x1212[k]) == expected, (p, c)


def test_box_coeff_array():
    b = box_coeff_array(1)
    assert b.shape == (243, 5)
    assert b.min() == -1 and b.max() == 1
    assert len(np.unique(b, axis=0)) == 243


def test_classifier_square_locus_matches_types():
    # the vectorized (1^2 1^2)/(2^2) split agrees with the root-scan types
    from quartics.ffarith import chi12
    from quartics.forms import SplittingType

    for p in (5, 7, 11):
        forms = all_forms_array(p) if p <= 7 else None
        if forms is None:
            rng = np.random.default_rng(p)
            forms = rng.integers(0, p, size=(4000, 5), dtype=np.int64)
        batch = closed_n_batch(p, forms)
        chi = chi12(p)
        for k in range(len(forms)):
            c = tuple(int(v) for v in forms[k])
            if not any(c):
                continue
            i, j, d = invariants_mod(c, p)
            if d != 0 or j == 0:
                continue
            t = splitting_type_mod(c, p)
            expected = {
                SplittingType.D1211: chi * p,
                SplittingType.D122: chi * p,
                SplittingType.D1212: -chi * p * (p - 1),
                SplittingType.D22: chi * p * (p + 1),
            }[t]
            assert batch[k] == expected


_CASE_TYPES = {
    Case.ZERO: {SplittingType.ZERO},
    Case.TRIPLE: {SplittingType.D131, SplittingType.D14},
    Case.SPLIT_SQUARE: {SplittingType.D1212},
    Case.NONSPLIT_SQUARE: {SplittingType.D22},
    Case.DOUBLE: {SplittingType.D1211, SplittingType.D122},
}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_case_codes_match_splitting_types(p):
    if p <= 7:
        forms = all_forms_array(p)
    else:
        forms = np.random.default_rng(p).integers(0, p, size=(2000, 5), dtype=np.int64)
    cases = np.empty(len(forms), dtype=np.int8)
    closed_n_batch(p, forms, cases=cases)
    for k in range(len(forms)):
        t = splitting_type_mod(tuple(int(v) for v in forms[k]), p)
        case = Case(cases[k])
        assert (case <= Case.NONSPLIT_SQUARE) == t.in_family_x
        assert t in _CASE_TYPES.get(case, {s for s in SplittingType if not s.degenerate})


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 40),
    st.sampled_from([5, 7, 11, 13, 17, 19, 23]),
    st.integers(0, 2**32 - 1),
)
def test_closed_batch_integer_invariants_match_reduced_rows(bound, p, seed):
    box = np.random.default_rng(seed).integers(-bound, bound + 1, size=(300, 5))
    box[:3] = [[0] * 5, [p] * 5, [-p, 0, 0, 0, p]]  # the zero row and two rows = 0 mod p
    cases_z = np.empty(len(box), dtype=np.int8)
    cases_p = np.empty(len(box), dtype=np.int8)
    n_z = closed_n_batch(p, box, invariants_raw(tuple(box.T)), cases_z)
    n_p = closed_n_batch(p, box % p, cases=cases_p)
    assert np.array_equal(n_z, n_p)
    assert np.array_equal(cases_z, cases_p)
    assert list(cases_z[:3]) == [Case.ZERO] * 3


def test_closed_batch_rejects_misshapen_outputs():
    forms = all_forms_array(5)[:10]
    with pytest.raises(ValueError):
        closed_n_batch(5, forms, cases=np.empty(10, dtype=np.int64))
    with pytest.raises(ValueError):
        closed_n_batch(5, forms, (np.zeros(9), np.zeros(9)))


_PRIMES = [5, 7, 11, 13, 17, 19, 23]
_COEFF = st.integers(-60, 60)


def _n_and_cases(p, rows):
    rows = np.array(rows, dtype=np.int64)
    cases = np.empty(len(rows), dtype=np.int8)
    return closed_n_batch(p, rows, invariants_raw(tuple(rows.T)), cases), cases


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_PRIMES), st.lists(st.tuples(*[_COEFF] * 5), min_size=1, max_size=30))
def test_closed_batch_invariant_under_box_symmetries(p, forms):
    # sigma (x <-> y), tau (y -> -y) and f -> -f fix n and the Case; the
    # orbit sweeps of box_sum and singular-count rest on this
    n, cases = _n_and_cases(p, forms)
    images = [
        [(a4, a3, a2, a1, a0) for a0, a1, a2, a3, a4 in forms],
        [(a0, -a1, a2, -a3, a4) for a0, a1, a2, a3, a4 in forms],
        [tuple(-a for a in f) for f in forms],
    ]
    for image in images:
        n_g, cases_g = _n_and_cases(p, image)
        assert np.array_equal(n_g, n)
        assert np.array_equal(cases_g, cases)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_PRIMES), st.tuples(*[_COEFF] * 5), st.tuples(*[_COEFF] * 4))
def test_closed_batch_invariant_under_gl2(p, coeffs, g):
    a, b, c, d = g
    if (a * d - b * c) % p == 0:
        g = (1, b, 0, 1)
    f = QuarticForm(*coeffs, p=p)
    n, _ = _n_and_cases(p, [f.coeffs, act(g, f).coeffs])
    assert n[0] == n[1]
