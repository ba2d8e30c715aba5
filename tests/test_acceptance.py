"""Acceptance criteria, one test per criterion, all exact (zero tolerance
unless the criterion itself is a bounded-ratio property).  Each test prints
a PASS line once its assertions hold; `pytest -v` shows one line per
criterion either way.
"""

import random
import numpy as np

from quartics.elliptic import curve_height, e_prime_of, model_reduce, point_count
from quartics.experiments import (
    F0,
    box_sum,
    census,
    census_s_rows,
    family_counts_by_radius,
    family_x_forms_in_box,
)
from quartics.forms import QuarticForm, invariants, invariants_mod
from quartics.fourier import BoundClass, closed_n
from quartics.intfactor import factorize
from quartics.schemes import (
    brute_count_singular_forms,
    brute_count_squarefree_forms,
    brute_count_X,
    closed_scheme_counts,
    count_singular_forms,
    count_squarefree_forms,
    count_X,
    count_X1212,
    psi_fiber_counts,
)
from quartics.forms import SplittingType, splitting_type
from quartics.vectorized import (
    Case,
    all_forms_array,
    closed_n_batch,
    oracle_n_batch,
    scheme_counts_batch,
    trace_table,
)

FIBER_TABLE = {
    SplittingType.D14: (1, 1, 1),
    SplittingType.D131: (1, 0, 0),
    SplittingType.D1212: (2, 1, 2),
    SplittingType.D22: (0, 1, 0),
    SplittingType.D1211: (1, 0, 0),
    SplittingType.D122: (1, 0, 0),
}


def _closed_batch_scalar(p, forms):
    return np.array([closed_n(p, tuple(int(v) for v in row)) for row in forms])


def test_c01_theorem_exhaustive_small_primes():
    """Every form over F_5 and F_7: exact oracle (full fiber check) equals
    the closed formula."""
    for p in (5, 7):
        forms = all_forms_array(p)
        oracle = oracle_n_batch(p, forms)
        closed = _closed_batch_scalar(p, forms)
        assert np.array_equal(oracle, closed), f"mismatch at p={p}"
    print("ACCEPTANCE 01 theorem exhaustive p in {5,7}: PASS")


def test_c02_theorem_sampled_larger_primes():
    """200 seeded forms per p in {11,13,17,19,23}: oracle equals closed."""
    for p in (11, 13, 17, 19, 23):
        rng = np.random.default_rng([1, p])
        forms = rng.integers(0, p, size=(200, 5), dtype=np.int64)
        oracle = oracle_n_batch(p, forms)
        closed = _closed_batch_scalar(p, forms)
        assert np.array_equal(oracle, closed), f"mismatch at p={p}"
    print("ACCEPTANCE 02 theorem sampled p in {11..23}, 200 forms each: PASS")


def test_c03_assembly_identity():
    """p^5 Phi_hat_p(f) = p(#X_{1^2 2} + #X_{2^2} - #X_{1^2 1^2} - (p+1)^2)
    for every nonzero f, p in {5, 7, 11}, all counts brute-forced."""
    for p in (5, 7, 11):
        forms = all_forms_array(p)
        nz = np.any(forms, axis=1)
        forms = forms[nz]
        oracle = oracle_n_batch(p, forms)
        x122, x22, x1212 = scheme_counts_batch(p, forms)
        assembled = p * (x122 + x22 - x1212 - (p + 1) ** 2)
        assert np.array_equal(oracle, assembled), f"assembly fails at p={p}"
    print("ACCEPTANCE 03 geometric assembly p in {5,7,11}: PASS")


def test_c04_scheme_propositions():
    """Closed scheme counts equal brute counts for every nonzero f,
    p in {5,7,11,13}; the fiber table matches exhaustively for p in {5,7}."""
    for p in (5, 7, 11, 13):
        forms = all_forms_array(p)
        forms = forms[np.any(forms, axis=1)]
        bx122, bx22, bx1212 = scheme_counts_batch(p, forms)
        for k in range(len(forms)):
            f = QuarticForm.from_coeffs(forms[k], p=p)
            assert closed_scheme_counts(f) == (
                int(bx122[k]),
                int(bx22[k]),
                int(bx1212[k]),
            ), (p, tuple(forms[k]))
    from quartics.ffarith import proj_reps

    for p in (5, 7):
        for c in proj_reps(p, 5):
            h = QuarticForm(*c, p=p)
            assert psi_fiber_counts(h) == FIBER_TABLE.get(
                splitting_type(h), (0, 0, 0)
            ), (p, c)
    print("ACCEPTANCE 04 scheme propositions and fiber table: PASS")


def test_c05_counting_lemmas():
    """Singular-form, X, and squarefree-form counts match brute enumeration
    for p in {5,7,11,13} and n in {3,4,5}."""
    for p in (5, 7, 11, 13):
        forms = all_forms_array(p)
        i = 12 * forms[:, 0] * forms[:, 4] - 3 * forms[:, 1] * forms[:, 3] + forms[:, 2] ** 2
        j = (
            72 * forms[:, 0] * forms[:, 2] * forms[:, 4]
            + 9 * forms[:, 1] * forms[:, 2] * forms[:, 3]
            - 27 * (forms[:, 0] * forms[:, 3] ** 2 + forms[:, 1] ** 2 * forms[:, 4])
            - 2 * forms[:, 2] ** 3
        )
        singular = int(((4 * i**3 - j * j) % p == 0).sum())
        assert singular == count_singular_forms(p)
        assert brute_count_X(p) == count_X(p)
        for n in (3, 4, 5):
            assert brute_count_squarefree_forms(n, p) == count_squarefree_forms(n, p)
    assert brute_count_singular_forms(5) == 725
    print("ACCEPTANCE 05 counting lemmas p in {5,7,11,13}, n in {3,4,5}: PASS")


def test_c06_jacobian_identity():
    """#X_{1^2 1^2}^f = #E'_f(F_p): exhaustive over J*Disc != 0 for
    p in {5,7}, sampled (50+ forms) for p up to 31."""
    for p in (5, 7):
        forms = all_forms_array(p)
        cols = [forms[:, k] for k in range(5)]
        i = (12 * cols[0] * cols[4] - 3 * cols[1] * cols[3] + cols[2] ** 2) % p
        j = (
            72 * cols[0] * cols[2] * cols[4]
            + 9 * cols[1] * cols[2] * cols[3]
            - 27 * (cols[0] * cols[3] ** 2 + cols[1] ** 2 * cols[4])
            - 2 * cols[2] ** 3
        ) % p
        good = (j != 0) & ((4 * i**3 - j * j) % p != 0)
        _, _, x1212 = scheme_counts_batch(p, forms[good])
        expected = p + 1 - trace_table(p)[i[good], j[good]]
        assert np.array_equal(x1212, expected), f"p={p}"
    for p in (11, 13, 17, 19, 23, 29, 31):
        rng = random.Random(p)
        done = 0
        while done < 50:
            c = tuple(rng.randrange(p) for _ in range(5))
            i, j, d = invariants_mod(c, p)
            if j == 0 or d == 0:
                continue
            f = QuarticForm(*c, p=p)
            assert count_X1212(f) == point_count(e_prime_of(f)), (p, c)
            done += 1
    print("ACCEPTANCE 06 Jacobian identity (exhaustive p in {5,7}, sampled to 31): PASS")


def test_c07_anchor_form_ledger():
    """The congruence anchor: I = -768, J = -27648, Disc = -91*2^20,
    reduced model (1, 0, -91), Delta squarefree with two prime factors and
    coprime to 6, and H(f0)/H(E_f0) = 27648."""
    i, j, disc = invariants(F0)
    assert (i, j) == (-768, -27648)
    assert disc == -91 * 2**20
    a, b, delta = model_reduce(F0)
    assert (a, b, delta) == (1, 0, -91)
    assert delta % 2 and delta % 3
    fac = factorize(delta)
    assert fac.complete and fac.squarefree and fac.omega == 2
    from quartics.forms import height

    hf = height(F0)
    he = curve_height(-i // 48, -j // 1728)
    assert hf == 452984832 and he == 16384
    assert hf == 27648 * he
    print("ACCEPTANCE 07 anchor form ledger: PASS")


def test_c08_bound_classes():
    """|n| <= p^4+p^3-p^2 at the origin, <= p^3 on the singular family
    (n-scale of the p^-2 decay), <= 2p^(3/2)+p elsewhere, for every form
    and p in {5,7,11}; Hasse bound asserted throughout every trace.  The
    oracle gives n; each form's class is read from its closed_n_batch Case
    code (ZERO the origin, TRIPLE..NONSPLIT_SQUARE the family, the rest
    generic), which test_vectorized checks against bound_class."""
    classes = (BoundClass.ORIGIN, BoundClass.FAMILY_X, BoundClass.GENERIC)
    for p in (5, 7, 11):
        forms = all_forms_array(p)
        ns = oracle_n_batch(p, forms)
        cases = np.empty(len(forms), dtype=np.int8)
        closed_n_batch(p, forms, cases=cases)
        cls = (cases > Case.ZERO).astype(np.int64) + (cases > Case.NONSPLIT_SQUARE)
        for k, n in set(zip(cls.tolist(), ns.tolist())):
            assert classes[k].n_bound_holds(n, p), (
                p, classes[k], n, forms[(cls == k) & (ns == n)][0].tolist()
            )
        tt = trace_table(p)  # construction Hasse-checks every entry
        assert tt.shape == (p, p)
    print("ACCEPTANCE 08 transform bound classes p in {5,7,11}: PASS")


def test_c09_integral_family_counts():
    """The exhaustive scan and the parametrized enumeration agree for
    r <= 6, and count(r)/r^2 stays in a factor-2 band over r in {10,20,40}."""
    for r in range(1, 7):
        a = family_counts_by_radius(r)[r]
        b = len(family_x_forms_in_box(r))
        assert a == b, f"r={r}: {a} != {b}"
    ratios = [len(family_x_forms_in_box(r)) / r**2 for r in (10, 20, 40)]
    assert max(ratios) <= 2 * min(ratios), ratios
    print("ACCEPTANCE 09 integral family counts (A=B to r=6; band to r=40): PASS")


def test_c10_box_estimate_grid():
    """S(Q,r) / (r^2/Q + r^4/Q^2 + r^5/Q^(5/2)) is bounded by a fixed
    constant over Q in {20,40,80}, r in {3,5,8} (observed max 350.2; the
    pinned ceiling is 512), and S decreases along the dyadic Q grid."""
    ratios = {}
    for r in (3, 5, 8):
        vals = []
        for Q in (20, 40, 80):
            res = box_sum(Q, r)
            ratios[(Q, r)] = res.ratio
            vals.append(res.exact)
            assert res.in_x_exact <= res.exact
            assert res.in_x_exact >= 0
        assert vals[0] > vals[1] > vals[2], f"not decreasing in Q at r={r}"
    assert max(ratios.values()) <= 512.0, ratios
    print("ACCEPTANCE 10 box-estimate grid bounded (max ratio %.1f <= 512): PASS"
          % max(ratios.values()))


def test_c11_census_counts():
    """Census over coefficient boxes B in {5,10,15}: strictly positive,
    monotone-nondecreasing counts of irreducible, R-soluble forms with
    squarefree Disc and Omega <= 4; the S-congruence witness (the anchor
    form itself) appears once a box reaches it."""
    counts = []
    for bound in (5, 10, 15):
        agg = census(bound)
        assert agg["passing_all"] > 0
        counts.append(agg["passing_all"])
        assert agg["s_rows"] == 0  # the anchor box starts at 38
    assert counts[0] <= counts[1] <= counts[2]
    rows = census_s_rows(38)
    assert len(rows) == 1
    witness = rows[0]
    assert witness.coeffs == F0.coeffs and witness.in_s
    assert witness.omega == 2 and witness.squarefree and witness.r_soluble
    print(
        "ACCEPTANCE 11 census counts %s monotone and S-witness found: PASS" % counts
    )
