"""Run one quartics CLI command in this process, recording every call into
the timed layer functions as a span, and write the spans once at the end.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- census --coeff-bound 6

The wrappers replace the module attributes through which the package's
modules call each other (``from .forms import factor_over_Q`` binds a
second attribute in ``experiments``; both are replaced), so the package
source stays untouched.  stdout and the exit code are the CLI's own.

A span is [name index, start, end, parent span index or -1, counts or 0].
layer_metrics() turns a spans file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> functions whose calls are timed.  cli.cmd_x is recorded as cli.x.
LAYERS = {
    "cli": ["main", "cmd_verify_theorem", "cmd_jacobian_check", "cmd_singular_count",
            "cmd_box_sum", "cmd_census"],
    "experiments": ["box_sum", "family_x_forms_in_box", "singular_lattice_count", "census"],
    "fourier": ["closed_n"],
    "vectorized": ["oracle_n_batch", "singular_coeff_array", "closed_n_batch", "trace_table"],
    "schemes": ["count_X1212"],
    "elliptic": ["point_count"],
    "forms": ["splitting_type_mod", "factor_over_Q", "in_family_X", "is_R_soluble"],
    "intfactor": ["is_prime", "factorize"],
}

# memoized functions whose cache statistics are reported as hits/misses
CACHED = [("vectorized", "singular_coeff_array"), ("schemes", "eprime_count")]

# (metric, unit) in the order BENCHMARK.json lists them.  ".s" is inclusive
# seconds of the outermost calls, ".self_s" seconds not covered by child
# spans, ".calls" the call count; the rest are counts recorded at the span.
PER_LAYER = [
    ("vectorized.oracle_n_batch.s", "s"),
    ("vectorized.oracle_n_batch.rows", "count"),
    ("vectorized.oracle_n_batch.flop", "flop-computed"),
    ("vectorized.singular_coeff_array.s", "s"),
    ("vectorized.singular_coeff_array.misses", "count"),
    ("vectorized.closed_n_batch.s", "s"),
    ("vectorized.closed_n_batch.calls", "count"),
    ("vectorized.closed_n_batch.rows", "count"),
    ("vectorized.trace_table.s", "s"),
    ("fourier.closed_n.s", "s"),
    ("fourier.closed_n.calls", "count"),
    ("forms.splitting_type_mod.s", "s"),
    ("forms.splitting_type_mod.calls", "count"),
    ("forms.factor_over_Q.s", "s"),
    ("forms.factor_over_Q.calls", "count"),
    ("forms.in_family_X.s", "s"),
    ("forms.in_family_X.calls", "count"),
    ("forms.is_R_soluble.s", "s"),
    ("forms.is_R_soluble.calls", "count"),
    ("intfactor.is_prime.s", "s"),
    ("intfactor.is_prime.calls", "count"),
    ("intfactor.factorize.s", "s"),
    ("intfactor.factorize.calls", "count"),
    ("schemes.count_X1212.s", "s"),
    ("schemes.count_X1212.calls", "count"),
    ("schemes.eprime_count.hits", "count"),
    ("schemes.eprime_count.misses", "count"),
    ("elliptic.point_count.s", "s"),
    ("elliptic.point_count.calls", "count"),
    ("experiments.census.self_s", "s"),
    ("experiments.census.csv_rows", "count"),
    ("experiments.census.csv_bytes", "B"),
    ("experiments.box_sum.self_s", "s"),
    ("experiments.family_x_forms_in_box.s", "s"),
    ("experiments.singular_lattice_count.self_s", "s"),
    ("cli.verify_theorem.s", "s"),
    ("cli.jacobian_check.s", "s"),
    ("cli.singular_count.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _oracle_counts(args, kwargs, result) -> dict:
    p, rows = args[0], len(args[1])
    sing = p**4 + p**3 - p**2
    if not _arg(args, kwargs, 2, "check_fibers", True):
        sing = (sing - 1) // (p - 1)  # projective representatives only
    return {"rows": rows, "flop": 10 * sing * rows}


def _census_counts(args, kwargs, result) -> dict:
    path = _arg(args, kwargs, 4, "out_csv")
    if path is None:
        return {"csv_rows": 0, "csv_bytes": 0}
    with open(path, "rb") as fh:
        data = fh.read()
    return {"csv_rows": max(data.count(b"\n") - 1, 0), "csv_bytes": len(data)}


COUNTS = {
    "vectorized.oracle_n_batch": _oracle_counts,
    "vectorized.closed_n_batch": lambda args, kwargs, result: {"rows": len(args[1])},
    "experiments.census": _census_counts,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts = COUNTS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(k)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = counts(args, kwargs, result) if counts else 0
                spans[k] = [name_id, t0, t1, parent, extra]

        return traced

    def install(self, modules: dict) -> None:
        """Replace every binding of each timed function in the package."""
        for mod_name, fn_names in LAYERS.items():
            mod = modules[mod_name]
            for fn_name in fn_names:
                fn = getattr(mod, fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name.removeprefix('cmd_')}", fn)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <quartics CLI arguments>")
    out_path, cli_args = argv[0], argv[2:]

    import quartics.cli  # noqa: F401  (imports every package module)

    modules = {
        name.split(".")[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("quartics.")
    }
    cached = {key: getattr(modules[key[0]], key[1]) for key in CACHED}
    tracer = Tracer()
    tracer.install(modules)
    try:
        return modules["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        counts = {}
        for (mod_name, fn_name), fn in cached.items():
            info = fn.cache_info()
            counts[f"{mod_name}.{fn_name}.hits"] = info.hits
            counts[f"{mod_name}.{fn_name}.misses"] = info.misses
        with open(out_path, "w") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans, "counts": counts}, fh)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Every metric the spans of one process give, keyed as in PER_LAYER."""
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out: dict[str, float] = defaultdict(int, doc["counts"])
    calls: Counter = Counter()
    for k, (name_id, t0, t1, parent, extra) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        self_s = t1 - t0 - covered[k]
        out[f"{name}.self_s"] += self_s
        if name.startswith("cli."):
            out["cli.self_s"] += self_s
        ancestor = parent  # a call nested in one of the same name adds no time
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += t1 - t0
        for key, value in (extra or {}).items():
            out[f"{name}.{key}"] += value
    for name, n in calls.items():
        out[f"{name}.calls"] = n
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
