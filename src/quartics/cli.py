"""Command-line front end: verification sweeps, single-form queries, and
the lattice experiments.  JSON goes to stdout, progress to stderr; output
is byte-identical across runs with the same flags and seed.

Exit codes: 0 success, 1 verification failure (a minimal counterexample is
printed in the JSON), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments
from .elliptic import jacobian_model, point_count, two_two_from_quartic
from .ffarith import check_prime
from .forms import QuarticForm, format_form, invariants_mod, parse_form
from .fourier import closed_n, oracle_n
from .intfactor import primes_below
from .schemes import (
    closed_scheme_counts,
    count_X122,
    count_X1212,
    count_X22,
)
from .vectorized import (
    all_forms_array,
    check_oracle_size,
    closed_n_batch,
    oracle_n_batch,
    trace_table,
    x1212_batch,
)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _usage_error(command: str, msg) -> int:
    print(f"quartics {command}: {msg}", file=sys.stderr)
    return 2


def _primes_in(lo_exclusive: int, hi_inclusive: int) -> list[int]:
    return [p for p in primes_below(hi_inclusive + 1) if p > lo_exclusive]


# ---------------------------------------------------------------------------
# verify-theorem


def _verify_prime(p: int, samples: int | None, seed: int) -> dict:
    """Oracle against closed form at p: every form when samples is None,
    else that many seeded random forms."""
    _progress(f"verifying p={p} ({'exhaustive' if samples is None else 'sampled'})")
    if samples is None:
        forms = all_forms_array(p)
    else:
        rng = np.random.default_rng([seed, p])
        forms = rng.integers(0, p, size=(samples, 5), dtype=np.int64)
    oracle = oracle_n_batch(p, forms)
    closed = closed_n_batch(p, forms)
    bad = np.flatnonzero(oracle != closed)
    examples = [
        {
            "p": p,
            "form": format_form(tuple(int(v) for v in forms[k])),
            "oracle_n": int(oracle[k]),
            "closed_n": int(closed[k]),
        }
        for k in bad[:3]
    ]
    return {
        "p": p,
        "forms": len(forms),
        "mismatches": len(bad),
        "examples": examples,
    }


def cmd_verify_theorem(ns) -> int:
    ex_primes = _primes_in(3, ns.exhaustive_pmax)
    sa_primes = [p for p in _primes_in(3, ns.sampled_pmax) if p > ns.exhaustive_pmax]
    if not ex_primes and not sa_primes:
        return _usage_error(
            "verify-theorem", "no prime > 3 up to --exhaustive-pmax or --sampled-pmax"
        )
    if sa_primes and ns.samples < 1:
        return _usage_error("verify-theorem", "--samples must be at least 1")
    try:
        for p in ex_primes + sa_primes:  # all p^5 forms, or --samples of them
            check_oracle_size(p, p**5 if p in ex_primes else ns.samples)
    except ValueError as exc:
        return _usage_error("verify-theorem", exc)
    exhaustive = [_verify_prime(p, None, ns.seed) for p in ex_primes]
    sampled = [_verify_prime(p, ns.samples, ns.seed) for p in sa_primes]
    ok = all(r["mismatches"] == 0 for r in exhaustive + sampled)
    _emit(
        {
            "command": "verify-theorem",
            "exhaustive": exhaustive,
            "sampled": sampled,
            "seed": ns.seed,
            "ok": ok,
        }
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fourier / schemes


def _query_form(ns):
    """The coefficients of --form, after checking that --p is a prime > 3."""
    check_prime(ns.p, min_exclusive=3)
    return parse_form(ns.form)


def cmd_fourier(ns) -> int:
    try:
        coeffs = _query_form(ns)
        if ns.method != "closed":
            check_oracle_size(ns.p, 1)
    except ValueError as exc:
        return _usage_error("fourier", exc)
    payload = {"command": "fourier", "p": ns.p, "form": format_form(coeffs), "method": ns.method}
    ok = True
    if ns.method in ("oracle", "both"):
        payload["oracle_n"] = oracle_n(ns.p, coeffs)
    if ns.method in ("closed", "both"):
        payload["closed_n"] = closed_n(ns.p, coeffs)
    if ns.method == "both":
        ok = payload["oracle_n"] == payload["closed_n"]
        payload["match"] = ok
    n = payload.get("closed_n", payload.get("oracle_n"))
    payload["n"] = n
    payload["value"] = f"{n}/{ns.p**5}"
    _emit(payload)
    return 0 if ok else 1


def cmd_schemes(ns) -> int:
    try:
        coeffs = _query_form(ns)
    except ValueError as exc:
        return _usage_error("schemes", exc)
    f = QuarticForm.from_coeffs(coeffs, p=ns.p)
    if f.is_zero:
        return _usage_error("schemes", f"the form is zero mod {ns.p}; X^f is undefined")
    brute = (count_X122(f), count_X22(f), count_X1212(f))
    closed = closed_scheme_counts(f)
    names = ("x122", "x22", "x1212")
    counts = {
        name: {"brute": b, "closed": c}
        for name, b, c in zip(names, brute, closed)
    }
    ok = brute == closed
    _emit(
        {
            "command": "schemes",
            "p": ns.p,
            "form": format_form(coeffs),
            "counts": counts,
            "ok": ok,
        }
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# experiments


def cmd_box_sum(ns) -> int:
    try:
        res = experiments.box_sum(ns.q, ns.r)
    except ValueError as exc:
        return _usage_error("box-sum", exc)
    _emit(
        {
            "command": "box-sum",
            "q": ns.q,
            "r": ns.r,
            "exact": f"{res.exact.numerator}/{res.exact.denominator}",
            "value": res.value,
            "bound": res.bound,
            "ratio": res.ratio,
            "in_x": str(res.in_x_exact),
            # the part of in_x where every p | q keeps f in family X mod p:
            # all of it, as reduction mod p sends (ax+by)^3 (cx+dy) and
            # t q^2 to forms of the same shape or to 0
            "in_x_q5_one": str(res.in_x_exact),
        }
    )
    return 0


def cmd_singular_count(ns) -> int:
    if ns.rmax < 1:
        return _usage_error("singular-count", "--rmax must be at least 1")
    try:
        exhaustive, parametrized = experiments.singular_lattice_count(ns.rmax)
    except ValueError as exc:
        return _usage_error("singular-count", exc)
    rows = [
        {"r": r, "parametrized": b, "ratio_r2": b / (r * r), "exhaustive": exhaustive[r]}
        for r, b in enumerate(parametrized[1:], start=1)
    ]
    ok = exhaustive == parametrized
    _emit({"command": "singular-count", "rmax": ns.rmax, "rows": rows, "ok": ok})
    return 0 if ok else 1


def cmd_census(ns) -> int:
    try:
        # reject bad bounds before the path is touched, and a bad path
        # before the sweep, not after it
        experiments.check_census_bounds(ns.coeff_bound, ns.height, ns.require_s)
        if ns.out is not None:
            open(ns.out, "a").close()
    except (ValueError, OSError) as exc:
        return _usage_error("census", exc)
    try:
        agg = experiments.census(
            ns.coeff_bound,
            height_bound=ns.height,
            require_s=ns.require_s,
            out_csv=ns.out,
        )
    except ValueError as exc:
        return _usage_error("census", exc)
    agg["command"] = "census"
    _emit(agg)
    return 0


def cmd_jacobian_check(ns) -> int:
    primes = _primes_in(3, ns.pmax)
    if not primes:
        return _usage_error("jacobian-check", "no prime > 3 up to --pmax")
    if ns.samples < 1:
        return _usage_error("jacobian-check", "--samples must be at least 1")
    checked = []
    mismatches = []
    for p in primes:
        rng = np.random.default_rng([ns.seed, p])
        forms, ij = [], []
        while len(forms) < ns.samples:
            c = tuple(int(v) for v in rng.integers(0, p, size=5))
            i, j, d = invariants_mod(c, p)
            if j != 0 and d != 0:
                forms.append(c)
                ij.append((i, j))
        x1212 = x1212_batch(p, np.array(forms, dtype=np.int64))
        # #E'_f(F_p) = p + 1 - a_p(E'_f), one gather from the trace table
        e_prime = p + 1 - trace_table(p)[tuple(np.array(ij).T)]
        for c, n_curve, n_scheme in zip(forms, e_prime.tolist(), x1212.tolist()):
            f = QuarticForm.from_coeffs(c, p=p)
            n_jac = point_count(jacobian_model(two_two_from_quartic(f)))
            if not (n_curve == n_jac == n_scheme):
                mismatches.append(
                    {
                        "p": p,
                        "form": format_form(c),
                        "e_prime": n_curve,
                        "jacobian_model": n_jac,
                        "x1212": n_scheme,
                    }
                )
        checked.append({"p": p, "forms": ns.samples})
        _progress(f"jacobian-check p={p} done")
    ok = not mismatches
    _emit(
        {
            "command": "jacobian-check",
            "pmax": ns.pmax,
            "samples": ns.samples,
            "seed": ns.seed,
            "checked": checked,
            "mismatches": mismatches,
            "ok": ok,
        }
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quartics",
        description="Exact transform of the singular binary-quartic indicator, "
        "scheme point counts, and lattice experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    vt = sub.add_parser("verify-theorem", help="oracle vs closed-form sweep")
    vt.add_argument("--exhaustive-pmax", type=int, required=True)
    vt.add_argument("--sampled-pmax", type=int, default=0)
    vt.add_argument("--samples", type=int, default=200)
    vt.add_argument("--seed", type=int, default=1)
    vt.set_defaults(func=cmd_verify_theorem)

    fo = sub.add_parser("fourier", help="transform value of one form")
    fo.add_argument("--p", type=int, required=True)
    fo.add_argument("--form", type=str, required=True)
    fo.add_argument("--method", choices=("oracle", "closed", "both"), default="closed")
    fo.set_defaults(func=cmd_fourier)

    sc = sub.add_parser("schemes", help="brute and closed scheme counts")
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--form", type=str, required=True)
    sc.set_defaults(func=cmd_schemes)

    bs = sub.add_parser("box-sum", help="dyadic modulus box sum")
    bs.add_argument("--q", type=int, required=True)
    bs.add_argument("--r", type=int, required=True)
    bs.set_defaults(func=cmd_box_sum)

    sl = sub.add_parser("singular-count", help="integral family points in boxes")
    sl.add_argument("--rmax", type=int, required=True)
    sl.set_defaults(func=cmd_singular_count)

    ce = sub.add_parser("census", help="almost-prime squarefree-discriminant census")
    ce.add_argument("--coeff-bound", type=int, required=True)
    ce.add_argument("--height", type=int, default=None)
    ce.add_argument("--require-s", action="store_true")
    ce.add_argument("--out", type=str, default=None)
    ce.set_defaults(func=cmd_census)

    jc = sub.add_parser("jacobian-check", help="genus-one model consistency")
    jc.add_argument("--pmax", type=int, required=True)
    jc.add_argument("--samples", type=int, default=50)
    jc.add_argument("--seed", type=int, default=1)
    jc.set_defaults(func=cmd_jacobian_check)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    if getattr(ns, "seed", 0) < 0:  # numpy's generators refuse it mid-run
        return _usage_error(ns.command, "--seed must be nonnegative")
    return ns.func(ns)


if __name__ == "__main__":
    sys.exit(main())
