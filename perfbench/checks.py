"""Output checks for the benchmark workloads.

Every check here is computed apart from the quartics package: from the
definitions (the explicit quartic discriminant, the bilinear pairing, the
singular set enumerated by brute force), from identities the transform
must satisfy (Fourier inversion, Parseval), or with sympy.  None of them
compares against a stored copy of earlier output.

Each check function takes the parsed program output and returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

import numpy as np

# 12 * [w, f] = sum of these weights times w_k f_k (the pairing of the
# package's README: [w, f] = w0 f0 + w1 f1/4 + w2 f2/6 + w3 f3/4 + w4 f4)
PAIRING12 = (12, 3, 2, 3, 12)


def primes_in(lo_exclusive: int, hi_inclusive: int) -> list[int]:
    return [
        n
        for n in range(max(2, lo_exclusive + 1), hi_inclusive + 1)
        if all(n % d for d in range(2, int(n**0.5) + 1))
    ]


def disc(a, b, c, d, e):
    """Discriminant of a x^4 + b x^3 y + c x^2 y^2 + d x y^3 + e y^4, by the
    explicit 16-term formula (works on ints and on int64 arrays)."""
    return (
        256 * a**3 * e**3 - 192 * a**2 * b * d * e**2 - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e + 18 * a * b * c * d**3
        + 16 * a * c**4 * e - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e - 4 * b**3 * d**3 - 4 * b**2 * c**3 * e
        + b**2 * c**2 * d**2
    )


def invariants_ij(a, b, c, d, e):
    """The classical invariants I, J with 4 I^3 - J^2 = 27 Disc."""
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    return i, j


def box_rows(r: int, dims: int = 5) -> np.ndarray:
    """All (2r+1)^dims integer rows with entries in [-r, r], lexicographic."""
    axis = np.arange(-r, r + 1, dtype=np.int64)
    grid = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def _field(doc: dict, key: str, errors: list[str]):
    if key not in doc:
        errors.append(f"missing key {key!r}")
    return doc.get(key)


# ---------------------------------------------------------------------------
# theorem


def check_verify_theorem(doc: dict, exhaustive_pmax: int, sampled_pmax: int,
                         samples: int, seed: int) -> list[str]:
    errors: list[str] = []
    if doc.get("ok") is not True:
        errors.append("verify-theorem: ok is not true")
    if doc.get("seed") != seed:
        errors.append(f"verify-theorem: seed {doc.get('seed')} != {seed}")
    ex = _field(doc, "exhaustive", errors) or []
    sa = _field(doc, "sampled", errors) or []
    want_ex = primes_in(3, exhaustive_pmax)
    want_sa = primes_in(exhaustive_pmax, sampled_pmax)
    if [r.get("p") for r in ex] != want_ex:
        errors.append(f"verify-theorem: exhaustive primes {[r.get('p') for r in ex]} != {want_ex}")
    if [r.get("p") for r in sa] != want_sa:
        errors.append(f"verify-theorem: sampled primes {[r.get('p') for r in sa]} != {want_sa}")
    for rows, size in ((ex, lambda p: p**5), (sa, lambda p: samples)):
        for r in rows:
            p = r.get("p")
            if not isinstance(p, int) or r.get("forms") != size(p):
                errors.append(f"verify-theorem: p={p} checked {r.get('forms')} forms, want {size(p) if isinstance(p, int) else '?'}")
            if r.get("mismatches") != 0 or r.get("examples"):
                errors.append(f"verify-theorem: p={p} reports mismatches")
    return errors


def check_jacobian(doc: dict, pmax: int, samples: int, seed: int) -> list[str]:
    errors: list[str] = []
    if doc.get("ok") is not True or doc.get("mismatches") != []:
        errors.append("jacobian-check: not ok or mismatches present")
    if (doc.get("pmax"), doc.get("samples"), doc.get("seed")) != (pmax, samples, seed):
        errors.append("jacobian-check: echoed flags differ from the invocation")
    want = [{"forms": samples, "p": p} for p in primes_in(3, pmax)]
    if doc.get("checked") != want:
        errors.append(f"jacobian-check: checked primes {doc.get('checked')} != every prime 5..{pmax}")
    return errors


def check_singular_count(doc: dict, rmax: int) -> list[str]:
    errors: list[str] = []
    if doc.get("ok") is not True or doc.get("rmax") != rmax:
        errors.append("singular-count: not ok or rmax differs")
    rows = doc.get("rows") or []
    if [row.get("r") for row in rows] != list(range(1, rmax + 1)):
        errors.append(f"singular-count: rows cover r={[row.get('r') for row in rows]}")
    for row in rows:
        r, b = row.get("r"), row.get("parametrized")
        if "exhaustive" not in row or row["exhaustive"] != b:
            errors.append(f"singular-count: r={r} exhaustive {row.get('exhaustive')} != parametrized {b}")
        if isinstance(b, int) and isinstance(r, int) and row.get("ratio_r2") != b / (r * r):
            errors.append(f"singular-count: r={r} ratio_r2 is not parametrized / r^2")
    return errors


def check_transform_sums(sums: dict) -> list[str]:
    """Fourier inversion sum_f n(f) = p^5 (the value of the indicator at 0)
    and Parseval sum_f n(f)^2 = p^5 * #singular = p^5 (p^4 + p^3 - p^2),
    both over all of F_p^5."""
    errors: list[str] = []
    for key, (s1, s2) in sums.items():
        p = int(key)
        if s1 != p**5:
            errors.append(f"transform p={p}: sum of n is {s1}, want p^5 = {p**5}")
        want = p**5 * (p**4 + p**3 - p**2)
        if s2 != want:
            errors.append(f"transform p={p}: sum of n^2 is {s2}, want {want}")
    return errors


# ---------------------------------------------------------------------------
# box_sum


def _fraction(text, errors: list[str], what: str) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        errors.append(f"box-sum: {what} {text!r} is not a fraction")
        return None


def check_box_sum(doc: dict, q: int, r: int) -> list[str]:
    """Order of the sub-sums, and bound/ratio/value recomputed from Q, r and
    the exact sum."""
    errors: list[str] = []
    if (doc.get("q"), doc.get("r")) != (q, r):
        errors.append("box-sum: echoed q, r differ from the invocation")
    exact = _fraction(doc.get("exact"), errors, "exact")
    in_x = _fraction(doc.get("in_x"), errors, "in_x")
    in_x1 = _fraction(doc.get("in_x_q5_one"), errors, "in_x_q5_one")
    if None in (exact, in_x, in_x1):
        return errors
    if not 0 <= in_x1 <= in_x <= exact:
        errors.append("box-sum: 0 <= in_x_q5_one <= in_x <= exact fails")
    bound = r * r / q + r**4 / q**2 + r**5 / q**2.5
    if not _close(doc.get("bound"), bound):
        errors.append(f"box-sum: bound {doc.get('bound')} != {bound}")
    if not _close(doc.get("value"), float(exact)):
        errors.append("box-sum: value is not float(exact)")
    if not _close(doc.get("ratio"), float(exact) / bound):
        errors.append("box-sum: ratio is not exact / bound")
    return errors


def _close(x, y: float) -> bool:
    return isinstance(x, float) and abs(x - y) <= 1e-12 * abs(y)


def brute_n(p: int, forms: np.ndarray) -> np.ndarray:
    """n = p^5 * Phi_hat_p(f) for each row, from this file's own enumeration
    of the singular set and the fibers of w -> [w, f] over it.

    The singular set is a cone, so every nonzero fiber has the same size
    N1 and the character sum is N0 + N1 * (sum of nontrivial p-th roots of
    unity) = N0 - N1.  N1 is counted and must satisfy the cone property
    (p - 1) N1 = #singular - N0."""
    space = box_rows((p - 1) // 2) % p
    sing = space[disc(*space.T) % p == 0]
    if len(sing) != p**4 + p**3 - p**2:
        raise AssertionError(f"singular set mod {p} has {len(sing)} elements")
    ws = ((sing * np.array(PAIRING12)) % p).astype(np.float64)
    forms = np.asarray(forms, dtype=np.int64) % p
    out = np.empty(len(forms), dtype=np.int64)
    step = max(1, 4_000_000 // len(sing))
    for start in range(0, len(forms), step):
        block = forms[start:start + step].T.astype(np.float64)
        vals = (ws @ block).astype(np.int64) % p
        n0 = np.count_nonzero(vals == 0, axis=0)
        n1 = np.count_nonzero(vals == 1, axis=0)
        if np.any((p - 1) * n1 != len(sing) - n0):
            raise AssertionError(f"nonzero fibers differ mod {p}")
        out[start:start + step] = n0 - n1
    return out


def brute_box_sum(q_lo: int, r: int) -> Fraction:
    """S(Q, r) = sum over squarefree q in [Q, 2Q] and nonzero f with
    |a_k| <= r of prod over primes p > 3 dividing q of |n_p(f)| / p^5."""
    box = box_rows(r)
    box = box[np.any(box != 0, axis=1)]
    absn: dict[int, np.ndarray] = {}
    total = Fraction(0)
    for q in range(q_lo, 2 * q_lo + 1):
        ps = [p for p in primes_in(1, q) if q % p == 0]
        if any(q % (p * p) == 0 for p in ps):
            continue
        vec = np.ones(len(box), dtype=object)
        den = 1
        for p in ps:
            if p > 3:
                if p not in absn:
                    absn[p] = np.abs(brute_n(p, box)).astype(object)
                vec = vec * absn[p]
                den *= p**5
        total += Fraction(int(vec.sum()), den)
    return total


def check_box_sum_brute(doc: dict, q: int, r: int) -> list[str]:
    errors = check_box_sum(doc, q, r)
    exact = _fraction(doc.get("exact"), errors, "exact")
    if exact is not None:
        want = brute_box_sum(q, r)
        if exact != want:
            errors.append(f"box-sum q={q} r={r}: exact {exact} != brute sum {want}")
    return errors


# ---------------------------------------------------------------------------
# census


_CHAIN = ("passing_all", "candidates", "sf_omega_le4", "squarefree")


def check_census(doc: dict, bound: int, zero_disc: int) -> list[str]:
    """Counting identities of the aggregate, with zero_disc from
    zero_disc_count."""
    errors: list[str] = []
    total = (2 * bound + 1) ** 5
    if doc.get("coeff_bound") != bound:
        errors.append("census: coeff_bound differs from the invocation")
    if doc.get("total_forms") != total:
        errors.append(f"census: total_forms {doc.get('total_forms')} != (2B+1)^5 = {total}")
    hist = doc.get("omega_hist") or {}
    if doc.get("zero_disc") != zero_disc:
        errors.append(f"census: zero_disc {doc.get('zero_disc')} != own count {zero_disc}")
    if zero_disc + sum(hist.values()) != total:
        errors.append("census: zero_disc + sum(omega_hist) != total_forms")
    chain = [doc.get(k) for k in _CHAIN]
    if not all(isinstance(v, int) for v in chain) or chain != sorted(chain):
        errors.append(f"census: {' <= '.join(_CHAIN)} fails: {chain}")
    cand, sol = doc.get("candidates"), doc.get("r_soluble")
    if not (isinstance(cand, int) and isinstance(sol, int) and cand <= sol <= total):
        errors.append("census: candidates <= r_soluble <= total_forms fails")
    if doc.get("s_rows") != 0 or doc.get("s_passing") != 0:
        errors.append("census: the box meets the S congruence class")
    return errors


def zero_disc_count(bound: int) -> int:
    """Number of forms with |a_k| <= bound and Disc = 0 (zero form included)."""
    rest = box_rows(bound, dims=4).T
    return sum(
        int(np.count_nonzero(disc(a0, *rest) == 0)) for a0 in range(-bound, bound + 1)
    )


def sympy_filters(coeffs) -> dict:
    """Disc, Omega, squarefreeness, irreducibility over Q and real
    solubility of one integral form, computed with sympy."""
    import sympy

    x, y = sympy.symbols("x y")
    a = [int(c) for c in coeffs]
    form = sum(c * x ** (4 - k) * y**k for k, c in enumerate(a))
    if a[0] != 0:
        d = int(sympy.discriminant(form.subs(y, 1), x))
    elif a[1] != 0:  # a root at infinity: Disc = a1^2 Disc(cubic)
        d = a[1] ** 2 * int(sympy.discriminant(form.subs(y, 1), x))
    else:  # y^2 divides the form
        d = 0
    out = {"disc": d, "omega": None, "squarefree": False}
    if d:
        exps = sympy.factorint(abs(d)).values()
        out["omega"] = sum(exps)
        out["squarefree"] = all(e == 1 for e in exps)
    factors = sympy.factor_list(form)[1] if any(a) else []
    out["irreducible"] = (
        len(factors) == 1 and factors[0][1] == 1 and sympy.Poly(factors[0][0], x, y).total_degree() == 4
    )
    out["r_soluble"] = (
        a[0] >= 0 or a[4] >= 0 or sympy.Poly(form.subs(y, 1), x).count_roots() > 0
    )
    out["passes"] = (
        d != 0 and out["squarefree"] and out["omega"] <= 4
        and out["irreducible"] and out["r_soluble"]
    )
    return out


def _height4(text: str) -> int:
    """4 * height for the CSV's exact decimal heights (fractions .25, .5, .75)."""
    whole, _, frac = text.partition(".")
    return 4 * int(whole) + {"": 0, "25": 1, "5": 2, "75": 3}[frac]


def check_census_rows(doc: dict, csv_text: str, bound: int, seed: int,
                      n_sample: int) -> list[str]:
    """Every row: well-formed, inside the box, distinct, with I, J, Disc and
    height consistent.  A seeded sample of rows is recomputed with sympy,
    and a seeded sample of box forms absent from the CSV must fail a filter
    under sympy."""
    errors: list[str] = []
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header != ["form", "a0", "a1", "a2", "a3", "a4", "I", "J", "Disc", "height",
                  "omega", "squarefree", "irreducible", "r_soluble", "in_S"]:
        return [f"census csv: unexpected header {header}"]
    rows = list(reader)
    if len(rows) != doc.get("passing_all"):
        errors.append(f"census csv: {len(rows)} rows != passing_all {doc.get('passing_all')}")
    try:
        nums = np.array(
            [[int(v) for v in row[1:9]] + [int(row[10]), _height4(row[9])] for row in rows],
            dtype=np.int64,
        ).reshape(-1, 10)
    except (ValueError, KeyError, IndexError):
        return errors + ["census csv: a row has a malformed number"]
    c, (i, j, d, om, h4) = nums[:, :5].T, nums[:, 5:].T
    ei, ej = invariants_ij(*c)
    problems = {
        "form field": np.array([row[0] != ",".join(row[1:6]) for row in rows], dtype=bool),
        "outside the box": np.abs(c).max(axis=0, initial=0) > bound,
        "I/J": (i != ei) | (j != ej),
        "Disc": (d != disc(*c)) | (27 * d != 4 * i**3 - j * j),
        "height": h4 != np.maximum(4 * np.abs(i) ** 3, j * j),
        "omega": (om < 1) | (om > 4),
        "flags": np.array([row[11:] != ["true", "true", "true", "false"] for row in rows], dtype=bool),
    }
    for what, mask in problems.items():
        if mask.any():
            errors.append(f"census csv: {what} wrong in {int(mask.sum())} rows, first {rows[int(np.argmax(mask))][0]}")
    seen = set(map(tuple, c.T.tolist()))
    if len(seen) != len(rows):
        errors.append(f"census csv: {len(rows) - len(seen)} duplicate rows")
    if errors:
        return errors

    rng = random.Random(seed)
    for row in rng.sample(rows, min(n_sample, len(rows))):
        c = tuple(int(v) for v in row[1:6])
        s = sympy_filters(c)
        if not s["passes"] or s["disc"] != int(row[8]) or s["omega"] != int(row[10]):
            errors.append(f"census csv: sympy disagrees with row {row[0]}: {s}")
    absent = 0
    while absent < n_sample:
        c = tuple(rng.randint(-bound, bound) for _ in range(5))
        if c in seen:
            continue
        absent += 1
        if sympy_filters(c)["passes"]:
            errors.append(f"census csv: form {c} passes every filter but is absent")
    return errors
