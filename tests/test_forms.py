import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartics.ffarith import inv_mod, quadratic_nonresidue
from quartics.forms import (
    QuarticForm,
    SplittingType,
    act,
    catalecticant,
    catalecticant_corank,
    disc27,
    factor_over_Q,
    form_product,
    format_form,
    hessian_cov,
    height,
    in_family_X,
    invariants,
    invariants_mod,
    invariants_raw,
    is_R_soluble,
    pairing,
    pairing12,
    parse_form,
    quartic_square_root_mod,
    splitting_type,
    splitting_type_mod,
    twisted_act,
)

F0 = QuarticForm(-1, -38, -12, -8, 0)

coeff = st.integers(-30, 30)
forms_z = st.tuples(coeff, coeff, coeff, coeff, coeff)


def rand_gl2(rng, p):
    while True:
        g = tuple(rng.randrange(p) for _ in range(4))
        if (g[0] * g[3] - g[1] * g[2]) % p:
            return g


# ---------------------------------------------------------------------------
# evaluation, serialization


def test_evaluate_examples():
    assert F0.evaluate(2, -1) == 256
    assert QuarticForm(1, 0, 0, 0, 0).evaluate(1, 0) == 1
    assert QuarticForm(1, 0, 0, 0, 1).evaluate(1, 1) == 2


def test_serialization_roundtrip():
    assert parse_form("1,-2, 3,4,5") == (1, -2, 3, 4, 5)
    assert format_form((1, -2, 3, 4, 5)) == "1,-2,3,4,5"
    with pytest.raises(ValueError):
        parse_form("1,2,3")


# ---------------------------------------------------------------------------
# action


def test_act_identity_and_swap():
    f = QuarticForm(1, 2, 3, 4, 5)
    assert act((1, 0, 0, 1), f) == f
    assert act((0, 1, 1, 0), QuarticForm(1, 0, 0, 0, 0)) == QuarticForm(0, 0, 0, 0, 1)


def test_act_diagonal_scaling():
    # diag(l, 1) multiplies a_i by l^(4-i)
    p = 11
    f = QuarticForm(1, 2, 3, 4, 5, p=p)
    lam = 3
    g = act((lam, 0, 0, 1), f)
    assert g.coeffs == tuple(c * lam ** (4 - i) % p for i, c in enumerate(f.coeffs))


def test_act_rejects_singular():
    with pytest.raises(ValueError):
        act((1, 1, 1, 1), QuarticForm(1, 0, 0, 0, 0, p=5))
    with pytest.raises(ValueError):
        act((2, 0, 0, 1), QuarticForm(1, 0, 0, 0, 0))  # det 2 not a unit in Z


def test_twisted_act_scalars_trivial():
    p = 13
    f = QuarticForm(3, 1, 4, 1, 5, p=p)
    for t in range(1, p):
        assert twisted_act((t, 0, 0, t), f) == f


def test_twisted_act_preserves_invariants():
    rng = random.Random(7)
    for p in (5, 7, 11):
        for _ in range(25):
            f = QuarticForm(*(rng.randrange(p) for _ in range(5)), p=p)
            g = rand_gl2(rng, p)
            assert invariants(twisted_act(g, f)) == invariants(f)


def test_act_composition():
    rng = random.Random(3)
    p = 7
    for _ in range(40):
        f = QuarticForm(*(rng.randrange(p) for _ in range(5)), p=p)
        g1, g2 = rand_gl2(rng, p), rand_gl2(rng, p)
        # f(v G1 G2) substitutes G2 first: act(g1 g2, f) = act(g1, act(g2, f))
        prod = (
            (g1[0] * g2[0] + g1[1] * g2[2]),
            (g1[0] * g2[1] + g1[1] * g2[3]),
            (g1[2] * g2[0] + g1[3] * g2[2]),
            (g1[2] * g2[1] + g1[3] * g2[3]),
        )
        assert act(prod, f) == act(g1, act(g2, f))


# ---------------------------------------------------------------------------
# invariants


def test_invariants_paper_anchors():
    assert invariants(F0) == (-768, -27648, -91 * 2**20)
    assert invariants(QuarticForm(3, 0, 0, 0, 7))[0] == 12 * 3 * 7  # ax^4+by^4
    assert invariants(QuarticForm(1, 0, 0, 1, 0)) == (0, -27, -27)


def test_invariant_covariance_modp():
    rng = random.Random(11)
    for p in (5, 7, 11):
        for _ in range(30):
            f = QuarticForm(*(rng.randrange(p) for _ in range(5)), p=p)
            g = rand_gl2(rng, p)
            alpha = rng.randrange(1, p)
            d = (g[0] * g[3] - g[1] * g[2]) % p
            scaled = QuarticForm(*(alpha * c for c in act(g, f).coeffs), p=p)
            i0, j0, d0 = invariants(f)
            i1, j1, d1 = invariants(scaled)
            assert i1 == alpha**2 * pow(d, 4, p) * i0 % p
            assert j1 == alpha**3 * pow(d, 6, p) * j0 % p
            assert d1 == alpha**6 * pow(d, 12, p) * d0 % p


@settings(deadline=None, max_examples=40)
@given(forms_z, st.sampled_from([1, -1]), st.integers(-3, 3))
def test_invariant_covariance_z(c, det_sign, b):
    # unimodular g = [[1, b], [0, s]]
    f = QuarticForm(*c)
    g = (1, b, 0, det_sign)
    i0, j0, d0 = invariants(f)
    i1, j1, d1 = invariants(act(g, f))
    assert (i1, j1, d1) == (i0, det_sign**6 * j0, d0)


@settings(deadline=None, max_examples=60)
@given(coeff, coeff, coeff, coeff)
def test_square_locus_invariants(c, u, v, w):
    # f = c q^2 with d = disc(q): I = (c d)^2, J = -2 (c d)^3, over Z
    q = (u, v, w)
    cd = c * (v * v - 4 * u * w)
    f = [c * a for a in form_product(q, q)]
    assert invariants_raw(f) == (cd**2, -2 * cd**3)


def test_disc_times_27_identity():
    rng = random.Random(5)
    for _ in range(50):
        f = QuarticForm(*(rng.randrange(-50, 51) for _ in range(5)))
        i, j, d = invariants(f)
        assert 27 * d == 4 * i**3 - j * j


def _explicit_disc(a, b, c, d, e):
    """Disc of a x^4 + b x^3 y + c x^2 y^2 + d x y^3 + e y^4 by the 16-term
    formula, apart from the invariants; ints or int64 arrays."""
    return (
        256 * a**3 * e**3 - 192 * a**2 * b * d * e**2 - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e + 18 * a * b * c * d**3
        + 16 * a * c**4 * e - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e - 4 * b**3 * d**3 - 4 * b**2 * c**3 * e
        + b**2 * c**2 * d**2
    )


def test_disc27_matches_invariants():
    # Python ints past int64: translates of the S anchor, I ~ 1e12, J ~ 1e18
    rng = random.Random(27)
    for _ in range(40):
        c = [c0 + 110592 * rng.randrange(-3, 4) for c0 in F0.coeffs]
        i, j, d = invariants(QuarticForm(*c))
        assert disc27(i, j) == 27 * d == 27 * _explicit_disc(*c)
        assert abs(disc27(i, j)) > 2**63
    # int64 rows of the box |a_i| <= 3
    axis = np.arange(-3, 4, dtype=np.int64)
    cols = tuple(g.ravel() for g in np.meshgrid(*[axis] * 5, indexing="ij"))
    i, j = invariants_raw(cols)
    d27 = disc27(i, j)
    assert d27.dtype == np.int64 and d27.shape == i.shape
    assert np.array_equal(d27, 27 * _explicit_disc(*cols))
    for k in range(0, len(i), 997):
        f = QuarticForm(*(int(v[k]) for v in cols))
        assert int(d27[k]) == 27 * invariants(f)[2]
    # the p x p grids of (I, J) mod p, read at every form's cell
    for p in (5, 7, 11):
        table = disc27(*np.indices((p, p), dtype=np.int64)) % p
        rows = tuple(g.ravel() for g in np.indices((p,) * 5, dtype=np.int64))
        i, j = (v % p for v in invariants_raw(rows))
        assert np.array_equal(table[i, j], 27 * _explicit_disc(*rows) % p)
        for k in range(0, p**5, 211):
            f = QuarticForm(*(int(v[k]) for v in rows), p=p)
            assert table[i[k], j[k]] == 27 * invariants(f)[2] % p


# the spellings of 4 I^3 - J^2 that disc27 replaced: 4 times a cube, then
# minus or equal to a square
_DISC_SPELLING = re.compile(
    r"\b4 \* (pow\([^()]*, 3(, \w+)?\)|[\w.]+(\[[^\]]*\])? ?\*\* ?3)"
    r" ?(-|==) ?((?P<j>\w+) ?\* ?(?P=j)\b|\w+ ?\*\* ?2\b)"
)


def test_disc27_is_the_one_spelling_of_the_discriminant():
    for old in (
        "(4 * i**3 - j * j) % p",
        "4 * i**3 == j * j",
        "(4 * pow(i % p, 3, p) - j * j) * inv_mod(27, p) % p",
        "(4 * pow(i, 3, p) - j * j) % p == 0",
        "((4 * v[:, None] ** 3 - v * v) % p == 0)",
        "4 * i**3 - j**2",
    ):
        assert _DISC_SPELLING.search(old), old
    for other in (
        "x**3 - 3 * i * x * x",
        "4 * b**3 - 27 * c * c",
        "4 * np.abs(i) ** 3, j * j",
        "4 * imax**3 + jmax**2",
        "p**4 + p**3 - p**2",
    ):
        assert not _DISC_SPELLING.search(other), other
    src = Path(__file__).resolve().parents[1] / "src" / "quartics"
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _DISC_SPELLING.search(line)
    ]
    assert hits == []
    assert [p.name for p in src.glob("*.py") if "def disc27(" in p.read_text()] == ["forms.py"]


# ---------------------------------------------------------------------------
# pairing


def test_pairing_examples():
    x4 = QuarticForm(1, 0, 0, 0, 0)
    assert pairing(x4, x4) == 12  # 12-scaled over Z
    x3y = QuarticForm(0, 1, 0, 0, 0)
    assert pairing(x3y, x3y) == 3  # 12 * (1/4)
    p5 = QuarticForm(1, 0, 0, 0, 0, p=5)
    assert pairing(p5, p5) == 1


def test_pairing_fourth_power_evaluation():
    # [f, (ax+by)^4] = f(a,b)
    rng = random.Random(9)
    p = 11
    for _ in range(30):
        f = QuarticForm(*(rng.randrange(p) for _ in range(5)), p=p)
        a, b = rng.randrange(p), rng.randrange(p)
        quartic = QuarticForm(
            a**4, 4 * a**3 * b, 6 * a * a * b * b, 4 * a * b**3, b**4, p=p
        )
        assert pairing(f, quartic) == f.evaluate(a, b)


def test_pairing_adjoint_exhaustive_p5():
    # bilinear, so basis pairs against every invertible g settle it
    p = 5
    basis = [QuarticForm(*(1 if k == i else 0 for k in range(5)), p=p) for i in range(5)]
    gl2 = [
        (a, b, c, d)
        for a, b, c, d in product(range(p), repeat=4)
        if (a * d - b * c) % p
    ]
    for g in gl2:
        gt = (g[0], g[2], g[1], g[3])
        for e1 in basis:
            for e2 in basis:
                assert pairing(act(g, e1), e2) == pairing(e1, act(gt, e2))


def test_pairing_symmetric_and_scaled():
    f = QuarticForm(1, 2, 3, 4, 5)
    h = QuarticForm(-3, 1, 0, 2, 2)
    assert pairing(f, h) == pairing(h, f)
    assert pairing12(f.coeffs, h.coeffs) == pairing(f, h)


# ---------------------------------------------------------------------------
# Hessian covariant, catalecticant


def test_hessian_examples():
    a, b = 3, -5
    he = hessian_cov(QuarticForm(a, 0, 0, 0, b))
    assert he.coeffs == (0, 0, -144 * a * b, 0, 0)


def test_hessian_conjugate_shape():
    # f = 2a(x^2+by^2)^2 + 4bb'(x^2+by^2)(2xy) + 2ba(2xy)^2 with b a nonresidue:
    # He = -16 b (a^2 - b b'^2) * 36 (x^2 - b y^2)^2
    p = 13
    beta = quadratic_nonresidue(p)
    for a, b in ((1, 2), (3, 5), (2, 0)):
        f = QuarticForm(
            2 * a, 8 * beta * b, 12 * beta * a, 8 * beta**2 * b, 2 * beta**2 * a, p=p
        )
        he = hessian_cov(f)
        k = -16 * beta * (a * a - beta * b * b) * 36
        expect = tuple(
            k * c % p for c in (1, 0, -2 * beta, 0, beta * beta)
        )
        assert he.coeffs == expect


def test_hessian_disc_identity():
    rng = random.Random(17)
    for _ in range(40):
        f = QuarticForm(*(rng.randrange(-20, 21) for _ in range(5)))
        i, j, d = invariants(f)
        he = hessian_cov(f)
        assert invariants(he)[2] == 2**12 * 3**6 * j * j * d


def test_catalecticant_values():
    m = catalecticant(QuarticForm(1, 0, 0, 0, 1, p=7))
    assert m == ((1, 0, 0), (0, 0, 0), (0, 0, 1))
    m = catalecticant(QuarticForm(1, 0, 0, 0, 0, p=7))
    assert m == ((1, 0, 0), (0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("p", [5, 7])
def test_catalecticant_det_exhaustive(p):
    i4, i6 = inv_mod(4, p), inv_mod(6, p)
    for c in product(range(p), repeat=5):
        m = catalecticant(QuarticForm(*c, p=p))
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) % p
        assert 432 * det % p == invariants_mod(c, p)[1]


def test_corank_examples():
    assert catalecticant_corank(QuarticForm(1, 0, 0, 0, 1, p=5)) == 1
    assert catalecticant_corank(QuarticForm(1, 0, 0, 0, 0, p=5)) == 2
    assert catalecticant_corank(QuarticForm(1, 2, 3, 4, 5, p=7)) in (0, 1, 2)
    rng = random.Random(2)
    for _ in range(20):
        p = 11
        c = tuple(rng.randrange(p) for _ in range(5))
        if invariants_mod(c, p)[1] != 0:
            assert catalecticant_corank(QuarticForm(*c, p=p)) == 0
    with pytest.raises(ValueError):
        catalecticant_corank(QuarticForm(0, 0, 0, 0, 0, p=5))


@pytest.mark.parametrize("p", [5, 7])
def test_corank_two_iff_fourth_power(p):
    # adjugate vanishes exactly on the (1^4) locus
    for c in product(range(p), repeat=5):
        if not any(c):
            continue
        f = QuarticForm(*c, p=p)
        is_big = catalecticant_corank(f) >= 2
        assert is_big == (splitting_type(f) is SplittingType.D14)


# ---------------------------------------------------------------------------
# splitting types


def test_splitting_examples():
    assert splitting_type_mod((0, 1, 0, 0, 0), 5) is SplittingType.D131
    beta = quadratic_nonresidue(7)
    sq = (1, 0, -2 * beta, 0, beta * beta)
    assert splitting_type_mod(sq, 7) is SplittingType.D22
    assert splitting_type_mod((1, 0, 0, 1, 0), 5) is SplittingType.T211
    assert splitting_type_mod((0, 0, 0, 0, 0), 11) is SplittingType.ZERO
    assert splitting_type_mod((0, 0, 1, 0, 0), 5) is SplittingType.D1212
    assert splitting_type_mod((1, 0, 0, 0, 0), 5) is SplittingType.D14


@pytest.mark.parametrize("p", [5, 7])
def test_splitting_degenerate_iff_disc_zero(p):
    for c in product(range(p), repeat=5):
        t = splitting_type_mod(c, p)
        if any(c):
            disc = invariants_mod(c, p)[2]
            assert t.degenerate == (disc == 0)
        else:
            assert t is SplittingType.ZERO and t.degenerate


def test_splitting_constant_on_orbits():
    rng = random.Random(23)
    for p in (5, 7, 11):
        for _ in range(25):
            c = tuple(rng.randrange(p) for _ in range(5))
            f = QuarticForm(*c, p=p)
            g = rand_gl2(rng, p)
            assert splitting_type(act(g, f)) is splitting_type(f)


def test_splitting_degree_partition():
    # tags partition the degree correctly on random forms over several p
    weights = {
        SplittingType.T1111: [1, 1, 1, 1],
        SplittingType.T211: [2, 1, 1],
        SplittingType.T31: [3, 1],
        SplittingType.T22: [2, 2],
        SplittingType.T4: [4],
        SplittingType.D1211: [2, 1, 1],
        SplittingType.D122: [2, 2],
        SplittingType.D1212: [2, 2],
        SplittingType.D22: [4],
        SplittingType.D131: [4],
        SplittingType.D14: [4],
    }
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([5, 7, 11, 13])
        c = tuple(rng.randrange(p) for _ in range(5))
        if any(c):
            assert sum(weights[splitting_type_mod(c, p)]) == 4


def test_quartic_square_root():
    p = 11
    rng = random.Random(4)
    for _ in range(60):
        w = tuple(rng.randrange(p) for _ in range(3))
        sq = (
            w[0] * w[0] % p,
            2 * w[0] * w[1] % p,
            (w[1] * w[1] + 2 * w[0] * w[2]) % p,
            2 * w[1] * w[2] % p,
            w[2] * w[2] % p,
        )
        r = quartic_square_root_mod(sq, p)
        assert r is not None
        rr = (
            r[0] * r[0] % p,
            2 * r[0] * r[1] % p,
            (r[1] * r[1] + 2 * r[0] * r[2]) % p,
            2 * r[1] * r[2] % p,
            r[2] * r[2] % p,
        )
        assert rr == sq
    assert quartic_square_root_mod((quadratic_nonresidue(p), 0, 0, 0, 0), p) is None


# ---------------------------------------------------------------------------
# factorization over Q


def test_factor_examples():
    content, factors = factor_over_Q(QuarticForm(1, 0, 0, 0, -1))  # x^4 - y^4
    assert content == 1
    assert factors == [((1, -1), 1), ((1, 1), 1), ((1, 0, 1), 1)]
    content, factors = factor_over_Q(QuarticForm(4, 0, 0, 0, 4))
    assert content == 4 and factors == [((1, 0, 0, 0, 1), 1)]
    content, factors = factor_over_Q(QuarticForm(1, 1, 1, 0, 0))  # x^2(x^2+xy+y^2)
    assert content == 1
    assert factors == [((1, 0), 2), ((1, 1, 1), 1)]


def test_factor_f0():
    content, factors = factor_over_Q(F0)
    assert content == -1
    assert factors == [((1, 0), 1), ((1, 38, 12, 8), 1)]


def test_factor_rejects():
    with pytest.raises(ValueError):
        factor_over_Q(QuarticForm(0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        factor_over_Q(QuarticForm(1, 0, 0, 0, 0, p=5))


def _mul_forms(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.integers(-3, 3),
)
def test_factor_roundtrip(l1, l2, q, c):
    # random products reassemble exactly
    coeffs = _mul_forms(_mul_forms(l1, l2), q)
    coeffs = [c * v for v in coeffs]
    if len(coeffs) != 5 or not any(coeffs) or c == 0:
        return
    f = QuarticForm(*coeffs)
    content, factors = factor_over_Q(f)
    prod = [content]
    for fac, m in factors:
        for _ in range(m):
            prod = _mul_forms(prod, list(fac))
    assert tuple(prod) == f.coeffs
    for fac, _ in factors:
        lead = next(v for v in fac if v)
        assert lead > 0


def test_factor_irreducible_quartics():
    for c in [(1, 0, 0, 0, 1), (1, 0, 1, 0, 2), (2, 1, 1, 1, 3)]:
        _, factors = factor_over_Q(QuarticForm(*c))
        assert factors == [(c, 1)], c


def test_factor_quadratic_pairs():
    # (x^2+xy+3y^2)(2x^2-xy+y^2)
    q1, q2 = [1, 1, 3], [2, -1, 1]
    f = QuarticForm(*_mul_forms(q1, q2))
    _, factors = factor_over_Q(f)
    assert factors == [((1, 1, 3), 1), ((2, -1, 1), 1)]
    f = QuarticForm(*_mul_forms(q1, q1))
    _, factors = factor_over_Q(f)
    assert factors == [((1, 1, 3), 2)]


def test_factor_product_check_survives_optimization(monkeypatch):
    # a wrong quadratic split must raise, also under python -O
    from quartics import forms

    monkeypatch.setattr(forms, "_quadratic_splits", lambda P: ([1, 0, 1], [1, 0, 1]))
    with pytest.raises(RuntimeError):
        factor_over_Q(QuarticForm(1, 0, 0, 0, 1))


# ---------------------------------------------------------------------------
# family membership, solubility, heights


def test_in_family_examples():
    assert in_family_X(QuarticForm(0, 1, 0, 0, 0))  # x^3 y
    assert in_family_X(QuarticForm(0, 0, 1, 0, 0))  # x^2 y^2
    assert not in_family_X(QuarticForm(1, 0, 1, 0, 0))  # x^2(x^2 + y^2)
    assert in_family_X(QuarticForm(0, 0, 0, 0, 0))
    assert in_family_X(QuarticForm(0, 1, 0, 0, 0).reduce(5))
    assert not in_family_X(QuarticForm(1, 0, 1, 0, 0).reduce(5))


def test_in_family_reduction_compatible():
    rng = random.Random(41)
    shapes = []
    for _ in range(30):
        a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
        c, d = rng.randrange(-3, 4), rng.randrange(-3, 4)
        if (a, b) == (0, 0) or (c, d) == (0, 0):
            continue
        cube = _mul_forms(_mul_forms([a, b], [a, b]), [a, b])
        shapes.append(_mul_forms(cube, [c, d]))
    for coeffs in shapes:
        f = QuarticForm(*coeffs)
        assert in_family_X(f)
        for p in (5, 7, 11):
            assert in_family_X(f.reduce(p))  # family is closed under reduction


def test_r_soluble():
    assert is_R_soluble(QuarticForm(1, 0, 0, 0, 1))
    assert not is_R_soluble(QuarticForm(-1, 0, -1, 0, -1))
    assert is_R_soluble(QuarticForm(0, 0, 1, 0, 0))
    assert is_R_soluble(QuarticForm(-1, 0, 5, 0, -1))  # -x^4+5x^2-1 is positive somewhere
    assert not is_R_soluble(QuarticForm(-2, 0, 0, 0, -3))
    assert is_R_soluble(QuarticForm(-1, 0, 2, 0, -1))  # -(x^2-1)^2 attains 0


def test_r_soluble_unimodular_invariance():
    rng = random.Random(43)
    for _ in range(40):
        f = QuarticForm(*(rng.randrange(-6, 7) for _ in range(5)))
        b = rng.randrange(-2, 3)
        g = (1, b, 0, rng.choice([1, -1]))
        assert is_R_soluble(act(g, f)) == is_R_soluble(f)


def test_heights():
    assert height(F0) == 452984832
    assert height(QuarticForm(1, 0, 0, 0, 1)) == 1728
    assert height(QuarticForm(0, 0, 0, 0, 0)) == 0
    h = height(QuarticForm(0, 1, 0, 1, 0))  # J odd stays rational
    i, j, _ = invariants(QuarticForm(0, 1, 0, 1, 0))
    assert h == max(Fraction(abs(i) ** 3), Fraction(j * j, 4))
