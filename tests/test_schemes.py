import random
from itertools import product

import pytest

from quartics.ffarith import chi12, legendre, proj_reps, quadratic_nonresidue
from quartics.forms import QuarticForm, act, invariants_mod, pairing12, splitting_type, SplittingType
from quartics.schemes import (
    SemidegCase,
    brute_count_singular_forms,
    brute_count_squarefree_forms,
    brute_count_X,
    closed_scheme_counts,
    count_singular_forms,
    count_squarefree_forms,
    count_X,
    count_X122,
    count_X1212,
    count_X22,
    count_Xf,
    eprime_count,
    psi_fiber_counts,
    semideg_classify,
    singular_proj_reps,
)

TABLE = {
    SplittingType.D14: (1, 1, 1),
    SplittingType.D131: (1, 0, 0),
    SplittingType.D1212: (2, 1, 2),
    SplittingType.D22: (0, 1, 0),
    SplittingType.D1211: (1, 0, 0),
    SplittingType.D122: (1, 0, 0),
}


def rand_gl2(rng, p):
    while True:
        g = tuple(rng.randrange(p) for _ in range(4))
        if (g[0] * g[3] - g[1] * g[2]) % p:
            return g


def test_counting_formulas():
    assert count_singular_forms(5) == 725
    assert count_singular_forms(7) == 2695
    assert count_X(5) == 181
    assert count_X(7) == 449
    assert count_squarefree_forms(4, 5) == 2400
    assert count_squarefree_forms(3, 5) == 480
    assert count_squarefree_forms(4, 7) == 14112
    with pytest.raises(ValueError):
        count_squarefree_forms(2, 5)


@pytest.mark.parametrize("p", [5, 7])
def test_brute_counting_companions(p):
    assert brute_count_singular_forms(p) == count_singular_forms(p)
    assert brute_count_X(p) == count_X(p)
    for n in (3, 4, 5):
        assert brute_count_squarefree_forms(n, p) == count_squarefree_forms(n, p)


def test_squarefree_complement():
    assert 5**5 - count_squarefree_forms(4, 5) == count_singular_forms(5)


def test_fiber_examples():
    assert psi_fiber_counts(QuarticForm(0, 0, 1, 0, 0, p=5)) == (2, 1, 2)
    beta = quadratic_nonresidue(5)
    sq = QuarticForm(1, 0, -2 * beta, 0, beta * beta, p=5)
    assert psi_fiber_counts(sq) == (0, 1, 0)
    assert psi_fiber_counts(QuarticForm(1, 0, 0, 1, 0, p=5)) == (0, 0, 0)
    with pytest.raises(ValueError):
        psi_fiber_counts(QuarticForm(0, 0, 0, 0, 0, p=5))


@pytest.mark.parametrize("p", [5, 7])
def test_fiber_table_exhaustive(p):
    # one pass over P(V): fibers match the per-type table and the
    # indicator identity 1_{Disc=0} = m1 + m2 - m3
    for c in proj_reps(p, 5):
        h = QuarticForm(*c, p=p)
        m = psi_fiber_counts(h)
        t = splitting_type(h)
        assert m == TABLE.get(t, (0, 0, 0)), (c, t)
        assert (m[0] + m[1] - m[2]) == (1 if t.degenerate else 0)


def test_fiber_sum_identity():
    # summing fibers over the hyperplane section reproduces the scheme counts
    rng = random.Random(3)
    for p in (5, 7):
        for _ in range(4):
            c = tuple(rng.randrange(p) for _ in range(5))
            if not any(c):
                continue
            f = QuarticForm(*c, p=p)
            sums = [0, 0, 0]
            for h in proj_reps(p, 5):
                if pairing12(h, c) % p == 0:
                    m = psi_fiber_counts(QuarticForm(*h, p=p))
                    for k in range(3):
                        sums[k] += m[k]
            assert tuple(sums) == (count_X122(f), count_X22(f), count_X1212(f))


def test_count_xf_examples():
    assert count_Xf(QuarticForm(1, 0, 0, 0, 0, p=5)) == 56
    with pytest.raises(ValueError):
        count_Xf(QuarticForm(0, 0, 0, 0, 0, p=5))


@pytest.mark.parametrize("p", [5, 7])
def test_count_xf_fourier_identity(p):
    # p^5 Phi_hat = 1 + p #X^f - #X on random nonzero forms
    from quartics.fourier import closed_n

    rng = random.Random(p)
    for _ in range(15):
        c = tuple(rng.randrange(p) for _ in range(5))
        if not any(c):
            continue
        f = QuarticForm(*c, p=p)
        assert closed_n(p, c) == 1 + p * count_Xf(f) - count_X(p)


def test_scheme_count_examples():
    x3y5 = QuarticForm(0, 1, 0, 0, 0, p=5)
    assert (count_X122(x3y5), count_X22(x3y5), count_X1212(x3y5)) == (61, 11, 16)
    assert closed_scheme_counts(x3y5) == (61, 11, 16)
    x4 = QuarticForm(1, 0, 0, 0, 0, p=5)
    assert count_X122(x4) == 61 == closed_scheme_counts(x4)[0]
    f1211 = QuarticForm(1, 0, 1, 0, 0, p=5)  # x^2 (x^2 + y^2), type (1^2 11)
    assert splitting_type(f1211) is SplittingType.D1211
    assert count_X1212(f1211) == 6 - chi12(5) == 7 == closed_scheme_counts(f1211)[2]
    assert count_X22(f1211) == 6 == closed_scheme_counts(f1211)[1]
    f4 = QuarticForm(1, 0, 0, 0, 1, p=5)
    assert count_X122(f4) == 36 == closed_scheme_counts(f4)[0]
    gen = QuarticForm(1, 0, 0, 1, 0, p=5)
    assert count_X1212(gen) == 6 == closed_scheme_counts(gen)[2]
    assert eprime_count(5, 0, -27 % 5) == 6


def test_scheme_counts_reject_zero():
    z = QuarticForm(0, 0, 0, 0, 0, p=5)
    for fn in (count_X122, count_X22, count_X1212, closed_scheme_counts):
        with pytest.raises(ValueError):
            fn(z)


@pytest.mark.parametrize("p", [5, 7])
def test_closed_equals_brute_random(p):
    rng = random.Random(p + 1)
    for _ in range(40):
        c = tuple(rng.randrange(p) for _ in range(5))
        if not any(c):
            continue
        f = QuarticForm(*c, p=p)
        assert closed_scheme_counts(f) == (count_X122(f), count_X22(f), count_X1212(f))


def test_isomorphism_invariance():
    rng = random.Random(29)
    for p in (5, 7, 11):
        for _ in range(6):
            c = tuple(rng.randrange(p) for _ in range(5))
            if not any(c):
                continue
            f = QuarticForm(*c, p=p)
            g = rand_gl2(rng, p)
            fg = act(g, f)
            assert (count_X122(f), count_X22(f), count_X1212(f)) == (
                count_X122(fg),
                count_X22(fg),
                count_X1212(fg),
            )


def test_semideg_classification():
    # x^4 + y^4 mod 5: rational summand lines, He a square
    f = QuarticForm(1, 0, 0, 0, 1, p=5)
    assert semideg_classify(f) is SemidegCase.I
    assert count_X1212(f) == 2 * 5 == closed_scheme_counts(f)[2]
    with pytest.raises(ValueError):
        semideg_classify(QuarticForm(1, 0, 0, 1, 0, p=5))  # J != 0


@pytest.mark.parametrize("p", [5, 7, 11])
def test_semideg_cases_exhaustive(p):
    # every semidegenerate form classifies, the count matches the case, and
    # cases i/iv are exactly the forms with (-3I/p) = 1
    counts = {
        SemidegCase.I: 2 * p,
        SemidegCase.II: 2 * p + 2,
        SemidegCase.III: 2,
        SemidegCase.IV: 0,
    }
    seen = set()
    rng = random.Random(p)
    pool = (
        list(product(range(p), repeat=5))
        if p == 5
        else [tuple(rng.randrange(p) for _ in range(5)) for _ in range(4000)]
    )
    for c in pool:
        if not any(c):
            continue
        i, j, d = invariants_mod(c, p)
        if j != 0 or d == 0:
            continue
        f = QuarticForm(*c, p=p)
        case = semideg_classify(f)
        seen.add(case)
        assert count_X1212(f) == counts[case]
        assert (legendre(-3 * i, p) == 1) == (case in (SemidegCase.I, SemidegCase.IV))
    assert seen  # the stratum is nonempty


def test_singular_proj_reps_are_canonical():
    for p in (5, 7):
        reps = singular_proj_reps(p)
        assert len(reps) == count_X(p)
        for h in reps[:50]:
            lead = next(v for v in h if v)
            assert lead == 1
