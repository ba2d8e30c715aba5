"""The numpy engines must agree with the scalar contract implementations."""

import hashlib
import os
import subprocess
import sys

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
from quartics.fourier import BoundClass, bound_class, closed_n
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
    oracle_n_batch,
    proportional,
    scheme_counts_batch,
    singular_coeff_array,
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
    for p in (5, 7, 11, 13):
        assert singular_coeff_array(p).dtype == np.uint8
        sing = singular_coeff_array(p).astype(np.int64)  # cast before arithmetic
        assert len(sing) == p**4 + p**3 - p**2
        i, j = invariants_raw(tuple(sing.T))
        assert not np.any((4 * i**3 - j * j) % p)
        keys = sing @ p ** np.arange(4, -1, -1)  # lexicographic rank of each row
        assert np.all(np.diff(keys) > 0)  # distinct and in lexicographic order
        forms = all_forms_array(p)
        i, j = invariants_raw(tuple(forms.T))
        assert np.array_equal(sing, forms[(4 * i**3 - j * j) % p == 0])
        # the cone {0} u F_p^x X(F_p) that count_xf_batch reads #X^f from
        reps = np.array(singular_proj_reps(p), dtype=np.int64)
        assert len(reps) == p**3 + 2 * p**2 + p + 1
        cone = (np.arange(1, p)[:, None, None] * reps % p).reshape(-1, 5)
        assert np.array_equal(np.sort(cone @ p ** np.arange(4, -1, -1)), keys[1:])


def test_singular_sets_pinned():
    # the sets past test_singular_sets' brute filter, pinned by the sha256
    # of their int64 cast; the cache keeps the last set only
    pinned = {
        17: "be6df1bec73737fc0910d62e20d6af04fdb1a4ebe7da4e3924b2e049fbb91c95",
        19: "60abde656a4423ba959879608f1b902d105336f363c9e70c1a79ea775c04991c",
        23: "8fa8b5c076f010b8303ba9686902a9fcc81a6b536d8526c47acac44e04b8e855",
    }
    for p, digest in pinned.items():
        wide = singular_coeff_array(p).astype(np.int64)
        assert hashlib.sha256(wide.tobytes()).hexdigest() == digest
        assert singular_coeff_array.cache_info().currsize == 1


def test_singular_sets_are_read_only():
    # the cached arrays are shared by every later oracle call
    with pytest.raises(ValueError, match="read-only"):
        singular_coeff_array(5)[0, 0] = 1


@pytest.mark.parametrize(
    "wrong",
    [
        lambda c: (0 * c[1], 0 * c[1]),  # every form singular: too many rows
        lambda c: (1 + 0 * c[1], 0 * c[1]),  # none singular: too few
    ],
)
def test_singular_set_checks_its_size(monkeypatch, wrong):
    monkeypatch.setattr(vectorized, "invariants_raw", wrong)
    with pytest.raises(RuntimeError, match="singular count"):
        singular_coeff_array.__wrapped__(5)  # past the cache


def test_oracle_size_bound(monkeypatch):
    # the singular set takes about 22 p^4 bytes: 1.8 GiB at p = 97, 2.1 GiB
    # at p = 101; the pairing table about 31 p^6: 1.4 GiB at p = 19, 4.3 GiB
    # at p = 23, where the rule takes it from 268,668 forms (268,668 *
    # 291,479 >= 23^8) and leaves 268,667 on the direct path
    def unreachable(*args):
        raise AssertionError("allocation reached")

    monkeypatch.setattr(vectorized, "_pairing_table", unreachable)
    for p, forms in ((19, 19**5), (97, 200), (23, 268_667)):
        vectorized.check_oracle_size(p, forms)
    for p, forms in ((23, 23**5), (23, 268_668), (101, 1)):
        with pytest.raises(ValueError, match="past 2 GiB"):
            vectorized.check_oracle_size(p, forms)
    # the build itself refuses p = 101 before it computes any invariant
    monkeypatch.setattr(vectorized, "invariants_raw", unreachable)
    with pytest.raises(ValueError, match="singular set at p=101"):
        singular_coeff_array.__wrapped__(101)
    # and _table_rows itself, for any row set, before the table is built
    rows = np.broadcast_to(np.zeros(5, dtype=np.int64), (23**4, 5))
    with pytest.raises(ValueError, match="pairing table at p=23"):
        vectorized._table_rows(23, rows, rows)


def test_chi_table():
    from quartics.ffarith import legendre

    for p in (5, 13):
        chi = chi_array(p)
        assert all(chi[a] == legendre(a, p) for a in range(p))


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


def test_trace_table_at_a_large_prime():
    # the float32 character sums against the scalar point count of
    # y^2 = x^3 - 3i x^2 + j^2 at p = 1009, on seeded nonsingular cells
    from quartics.elliptic import WeierstrassCurve, point_count

    p = 1009
    t = trace_table(p)
    cells = np.random.default_rng(p).integers(0, p, size=(40, 2)).tolist()
    cells = [(i, j) for i, j in cells if j and (4 * i**3 - j * j) % p]
    assert len(cells) >= 30
    for i, j in cells:
        assert t[i, j] == p + 1 - point_count(WeierstrassCurve(0, -3 * i, 0, j * j, p))


def test_proportional_reads_every_minor():
    # f = e_a, g = e_b: the minor (a, b) is the only one that is nonzero
    eye = np.eye(5, dtype=np.int64)
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    f = eye[[a for a, _ in pairs]].T
    g = eye[[b for _, b in pairs]].T
    assert not proportional(f, g).any()
    assert not proportional(f, g, 7).any()
    assert proportional(f, 3 * f).all()
    assert proportional(f, 3 * f + 7 * g, 7).all()
    assert proportional(f, 0 * g).all()  # a zero row is proportional to every row


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


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_oracle_cone_identity(p):
    # the singular set S is {0} u F_p^x X(F_p), so N0 = 1 + (p-1) #X^f and
    # the oracle's n = N0 - (|S| - N0)/(p-1) gives
    # (p-1) n + |S| = p (1 + (p-1) #X^f): the oracle's full fibres against
    # count_xf_batch's zero pairings, two kernels over the one singular set
    if p <= 7:
        forms = all_forms_array(p)
    else:
        forms = np.random.default_rng(p).integers(0, p, size=(200, 5), dtype=np.int64)
    size = p**4 + p**3 - p**2
    xf = count_xf_batch(p, forms)
    assert np.array_equal(
        (p - 1) * oracle_n_batch(p, forms) + size, p * (1 + (p - 1) * xf)
    )


def _spy_tables(monkeypatch) -> list:
    """Record the p of every _pairing_table build."""
    built, table = [], vectorized._pairing_table
    monkeypatch.setattr(
        vectorized, "_pairing_table", lambda p, rows: built.append(p) or table(p, rows)
    )
    return built


def test_oracle_fibre_check_rejects_a_nonsingular_row(monkeypatch):
    # one singular row swapped for x^4 + y^4, Disc != 0 mod 5: the fibres
    # of some form are no longer flat off zero, on both paths: all forms
    # take the pairing table, 500 forms (500 * 725 < 5^8) the direct product
    p = 5
    sing = singular_coeff_array(p).copy()
    sing[-1] = [1, 0, 0, 0, 1]
    monkeypatch.setattr(vectorized, "singular_coeff_array", lambda q: sing)
    built = _spy_tables(monkeypatch)
    for forms, tables in ((all_forms_array(p), [p]), (all_forms_array(p)[:500], [])):
        built.clear()
        with pytest.raises(RuntimeError, match="cone property"):
            oracle_n_batch(p, forms)
        assert built == tables


@pytest.mark.parametrize("p", [5, 7])
def test_pairing_table_matches_direct(monkeypatch, p):
    # every distinct row set the kernels are given: the singular set, which
    # count_xf_batch pairs against too, and through scheme_counts_batch the
    # X_{2^2} and X_{1^2 1^2} rows; then a set with a row twice over and
    # an unreduced row that breaks the x <-> y symmetry of the others
    sets, kernel = [singular_coeff_array(p)], vectorized._zero_pairings
    monkeypatch.setattr(
        vectorized, "_zero_pairings", lambda q, rows, f: sets.append(rows) or kernel(q, rows, f)
    )
    count_xf_batch(p, all_forms_array(p)[1:2])
    assert sets.pop() is sets[0]
    scheme_counts_batch(p, all_forms_array(p)[1:2])
    rows = np.concatenate([sets[0], sets[0][:1], [[p + 1, -1, 0, 2 * p, 3]]])
    sets.append(rows)
    assert len(sets) == 4
    forms = all_forms_array(p)
    default = vectorized._CHUNK_ENTRIES
    for r in sets:
        table = vectorized._pairing_table(p, r)
        # both direct kernels, the table rule switched off, on a prefix of
        # the forms, at products of 1, 3, 104 and 10^4 entries, then all
        # forms at the default, which the gather below runs at too.  The
        # zero pairings take one-row tiles of one form and of three (a
        # ragged last chunk), then tiles of 13 rows, which divides none of
        # the eight row counts, with 8 forms a chunk.  The fibres take
        # tiles of 2m rows (170 at p = 5, 364 at p = 7, ragged at the end)
        # of one form.  At 10^4, tiles of 1,250 rows hold the whole set at
        # p = 5 and leave a ragged last tile at p = 7.
        for budget, k in ((1, 4), (3, 10), (104, 200), (10**4, 1000), (default // 8, len(forms))):
            monkeypatch.setattr(vectorized, "_CHUNK_ENTRIES", 8 * budget)
            assert np.array_equal(table[:k], vectorized._fibre_product(p, r, forms[:k]))
            with monkeypatch.context() as direct:
                direct.setattr(vectorized, "_table_rows", lambda *args: None)
                zeros = kernel(p, r, forms[:k])
            assert np.array_equal(table[:k, 0], zeros)
    assert table[0, 0] == len(rows)  # the zero form pairs every row to 0, repeats counted
    # the gather, on forms out of order, over chunks of forms
    shuffled = np.random.default_rng(p).permutation(forms)
    assert np.array_equal(
        vectorized._table_rows(p, rows, shuffled),
        vectorized._fold(vectorized._fibre_product(p, rows, shuffled)),
    )


@pytest.mark.parametrize("p", [5, 11])
def test_oracle_reads_the_set_as_any_integer_rows(monkeypatch, p):
    # the uint8 singular set and its int64 cast give the same oracle and
    # #X^f: all forms through the table at p = 5, 200 direct at p = 11
    if p == 5:
        forms = all_forms_array(p)
    else:
        forms = np.random.default_rng(p).integers(0, p, size=(200, 5), dtype=np.int64)
    narrow = oracle_n_batch(p, forms), count_xf_batch(p, forms)
    wide = singular_coeff_array(p).astype(np.int64)
    monkeypatch.setattr(vectorized, "singular_coeff_array", lambda q: wide)
    assert np.array_equal(narrow[0], oracle_n_batch(p, forms))
    assert np.array_equal(narrow[1], count_xf_batch(p, forms))


def test_pairing_table_checks_mass(monkeypatch):
    # a weight that is no residue leaves some (w, s, f) without a t, so
    # mass leaks out of the table
    monkeypatch.setattr(vectorized, "_PAIRING_WEIGHTS", np.array([12, 3, 2, 3, 0.5]))
    with pytest.raises(RuntimeError, match="row count"):
        vectorized._pairing_table(5, singular_coeff_array(5))


def test_table_selection_by_input_size(monkeypatch):
    # the rule |rows| |forms| >= p^8 at its edge, then on verify-theorem's
    # prime tasks: the exhaustive p = 7 builds the table, the 200 sampled
    # forms at p = 11 do not
    from quartics import cli

    rows = all_forms_array(5)[:625]  # 625 * 625 = 5^8
    assert vectorized._table_rows(5, rows, rows[:624]) is None
    assert vectorized._table_rows(5, rows, rows) is not None
    built = _spy_tables(monkeypatch)
    assert cli._verify_prime(7, None, 1)["mismatches"] == 0
    assert built == [7]
    built.clear()
    assert cli._verify_prime(11, 200, 1)["mismatches"] == 0
    assert built == []


_PEAK_SCRIPT = """
import numpy as np
from quartics import vectorized

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) * 1024

built, table = [], vectorized._pairing_table
vectorized._pairing_table = lambda p, rows: built.append(p) or table(p, rows)
p = 13
forms = np.random.default_rng(p).integers(0, p, size=(26_668, 5), dtype=np.int64)
rss = status("VmRSS:")
vectorized.oracle_n_batch(p, forms)
print(status("VmHWM:") - rss, len(built))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_sampled_table_peak_within_its_bound():
    # 26,668 forms * 30,589 singular rows >= 13^8: the rule's threshold,
    # where a sampled query first takes the table.  Its whole rise, the
    # singular set's build included, stays within _takes_table's 31 p^6
    proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rise, tables = map(int, proc.stdout.split())
    assert tables == 1
    assert rise <= 31 * 13**6


@pytest.mark.parametrize("p", [5, 7, 11, 61])
def test_x1212_batch_vs_scalar(p):
    forms = np.random.default_rng(p).integers(0, p, size=(40, 5), dtype=np.int64)
    forms = forms[np.any(forms, axis=1)]
    batch = x1212_batch(p, forms)
    for k in range(len(forms)):
        assert batch[k] == count_X1212(QuarticForm(*(int(v) for v in forms[k]), p=p))


def test_count_xf_batch():
    # every nonzero form at p = 5, through the pairing table
    p = 5
    forms = all_forms_array(p)[1:]
    expected = [count_Xf(QuarticForm(*c, p=p)) for c in forms.tolist()]
    assert count_xf_batch(p, forms).tolist() == expected


def test_count_xf_batch_checks_the_cone(monkeypatch):
    # one singular row dropped: N0 - 1 is no longer a multiple of p - 1
    # for the forms that pair it to zero
    sing = singular_coeff_array(5)[:-1]
    monkeypatch.setattr(vectorized, "singular_coeff_array", lambda q: sing)
    with pytest.raises(RuntimeError, match="does not divide"):
        count_xf_batch(5, all_forms_array(5)[1:])


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


@pytest.mark.parametrize("p", [5, 7])
def test_scheme_counts_batch_x122_exhaustive(p):
    # the count by lines against the scalar point enumeration, every form
    forms = all_forms_array(p)[1:]
    x122, _, _ = scheme_counts_batch(p, forms)
    expected = [count_X122(QuarticForm(*c, p=p)) for c in forms.tolist()]
    assert x122.tolist() == expected


@pytest.mark.parametrize("budget", [1, 100])
@pytest.mark.parametrize("p", [5, 7])
def test_zero_pairings_across_chunk_edges(monkeypatch, p, budget):
    # at 100 entries scheme_counts_batch takes 16 and 12 forms a chunk (p =
    # 5 and 7) and the pairing kernels one-row tiles of 12 forms; budget 1
    # takes one form and one row at a time everywhere
    monkeypatch.setattr(vectorized, "_CHUNK_ENTRIES", budget)
    rng = np.random.default_rng(budget + p)
    forms = rng.integers(0, p, size=(9, 5), dtype=np.int64)
    forms = forms[np.any(forms, axis=1)]
    x122, x22, x1212 = scheme_counts_batch(p, forms)
    xf = count_xf_batch(p, forms)
    assert np.array_equal(x1212_batch(p, forms), x1212)
    for k, c in enumerate(forms.tolist()):
        f = QuarticForm(*c, p=p)
        expected = (count_X122(f), count_X22(f), count_X1212(f))
        assert (x122[k], x22[k], x1212[k]) == expected
        assert xf[k] == count_Xf(f)


def test_zero_pairings_exact_range():
    # dot products reach 5 (p-1)^2, cast to int32: 20719 is the largest
    # prime that fits, 20731 the least that does not
    with pytest.raises(ValueError, match="int32"):
        vectorized._zero_pairings(20731, np.eye(5, dtype=np.int64), np.ones((2, 5)))
    with pytest.raises(ValueError, match="int32"):
        vectorized._zero_pairings(20731, None, None)  # raised before the rows are read
    p = 20719
    w = [12, 3, 2, 3, 12]
    top = [-pow(v, -1, p) % p for v in w]  # weighted to p - 1 in every slot
    rows = np.array([top, [0] * 5, [1, 0, 0, 0, 0]], dtype=np.int64)
    forms = np.array([[p - 1] * 5, [0, 1, 0, 0, 0]], dtype=np.int64)
    expected = [
        sum(sum(a * b * c for a, b, c in zip(w, h, f)) % p == 0 for h in rows.tolist())
        for f in forms.tolist()
    ]
    assert vectorized._zero_pairings(p, rows, forms).tolist() == expected == [1, 2]


def test_fibre_product_exact_range():
    # indices reach step * m, m = p (5 (p-1)^2 // p + 1), in float32: 1831
    # is the largest prime whose m fits 2^24, 1847 the least that does not
    with pytest.raises(RuntimeError, match="float32"):
        vectorized._fibre_product(1847, None, None)  # raised before the rows are read
    p = 1831
    w = [12, 3, 2, 3, 12]
    top = [-pow(v, -1, p) % p for v in w]  # weighted to p - 1 in every slot
    odd = [-2 * pow(w[0], -1, p) % p] + top[1:]  # weighted to p - 2, then p - 1
    # the last row is unreduced far past float32's range: it is reduced exactly
    big = [p * 2**50 + top[0], -(2**62) + 1, 2**62 + 7, -p, 3 * 2**40]
    rows = np.array([top, odd, [0] * 5, [1, 0, 0, 0, 0], big], dtype=np.int64)
    # the first form takes the top dot product 5 (p-1)^2; in a chunk shared
    # with it, the second would sit at offset m, and the odd row's index
    # m + (p-2)(5p-6) is odd and past 2^24, where float32 would round it
    forms = np.array([[p - 1] * 5, [p - 2] * 5], dtype=np.int64)
    fibres = vectorized._fibre_product(p, rows, forms)
    expected = np.zeros((2, p), dtype=np.int64)
    for k, f in enumerate(forms.tolist()):
        for h in rows.tolist():
            expected[k, sum(a * b * c for a, b, c in zip(w, h, f)) % p] += 1
    assert np.array_equal(fibres, expected)


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


# the bound class of a Case code: ZERO, then TRIPLE..NONSPLIT_SQUARE, then the rest
_BOUND_CLASSES = (BoundClass.ORIGIN, BoundClass.FAMILY_X, BoundClass.GENERIC)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_case_codes_match_splitting_types(p):
    # every form at p = 5, 7; at p = 11, 13 random rows and the whole
    # singular set, which holds the square locus that random rows miss
    if p <= 7:
        forms = all_forms_array(p)
    else:
        rand = np.random.default_rng(p).integers(0, p, size=(2000, 5), dtype=np.int64)
        forms = np.concatenate([rand, singular_coeff_array(p)])
    cases = np.empty(len(forms), dtype=np.int8)
    closed_n_batch(p, forms, cases=cases)
    for k in range(len(forms)):
        c = tuple(int(v) for v in forms[k])
        t = splitting_type_mod(c, p)
        case = Case(cases[k])
        assert t in _CASE_TYPES.get(case, {s for s in SplittingType if not s.degenerate})
        cls = _BOUND_CLASSES[(case > Case.ZERO) + (case > Case.NONSPLIT_SQUARE)]
        assert bound_class(p, c) is cls, (p, c, case)


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
