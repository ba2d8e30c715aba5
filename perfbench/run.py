"""Benchmark of the quartics CLI, run the way a researcher runs it from a
desk: one command per process, one workload at a time, from this single
driver process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

A run repeats whole rounds of the workload's CLI commands until --seconds
have passed, then checks the outputs of the first round with the
independent checks in checks.py.  With --trace 0 it reports the
end-to-end metrics (medians over the rounds); with --trace 1 it alternates
untraced and traced rounds (tracer.py) and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable

# workload sizes; the checks read the same constants
THEOREM = dict(exhaustive_pmax=7, sampled_pmax=19, samples=200, jac_pmax=61, jac_samples=50, rmax=6)
BOX = dict(q=80, r=6)
CENSUS_B = 8
CENSUS_CSV_B = 6
CSV_SAMPLE = 25  # rows, and absent forms, recomputed with sympy
SETUP_REPEATS = 11

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def commands(workload: str, seed: int, tmp: Path) -> list[list[str]]:
    """The CLI argument lists of one round."""
    t = THEOREM
    return {
        "theorem": [
            ["verify-theorem", "--exhaustive-pmax", str(t["exhaustive_pmax"]),
             "--sampled-pmax", str(t["sampled_pmax"]), "--samples", str(t["samples"]),
             "--seed", str(seed)],
            ["jacobian-check", "--pmax", str(t["jac_pmax"]), "--samples", str(t["jac_samples"]),
             "--seed", str(seed)],
            ["singular-count", "--rmax", str(t["rmax"])],
        ],
        "box_sum": [["box-sum", "--q", str(BOX["q"]), "--r", str(BOX["r"])]],
        "census": [["census", "--coeff-bound", str(CENSUS_B)]],
        "census_csv": [["census", "--coeff-bound", str(CENSUS_CSV_B), "--out", str(tmp / "rows.csv")]],
    }[workload]


WORKLOADS = ["theorem", "box_sum", "census", "census_csv"]


@dataclass
class Proc:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes


class Session:
    """One run of one workload: the child environment, a fresh temporary
    directory inside the checkout, and the operation counts."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.attempted = 0
        self.failed = 0
        self.correct = True
        # one BLAS thread (at most nproc): on two shared vCPUs a second
        # thread bought little speed and made the round times noisier
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            QUARTICS_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, argv: list[str]) -> Proc:
        """Run one child to its end; wall, CPU and max RSS from wait4.

        Linux copies the driver's own peak RSS into a spawned child at its
        exec, so the child's max RSS is never below the driver's.  The
        driver stays near 20 MB until the rounds are done (numpy and the
        checks are imported after them), below every CLI process."""
        with open(self.tmp / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                     env=self.env, cwd=ROOT)
            out = child.stdout.read()
            child.stdout.close()
            _, status, ru = os.wait4(child.pid, 0)
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        proc = Proc(argv, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                    child.returncode, out)
        if proc.returncode != 0:
            tail = (self.tmp / "stderr.txt").read_bytes()[-2000:].decode(errors="replace")
            log(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}")
        return proc

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")

    def cli(self, args: list[str], spans: Path | None = None) -> Proc:
        if spans is None:
            argv = [PY, "-m", "quartics.cli", *args]
        else:
            argv = [PY, str(HERE / "tracer.py"), str(spans), "--", *args]
        return self.spawn(argv)

    def check(self, name: str, fn) -> None:
        """One output check, counted as one operation."""
        try:
            errors = fn()
        except Exception:  # a crash in a check is a failed check
            errors = [traceback.format_exc()]
        for e in errors[:10]:
            log(f"check {name}: {e}")
        if errors:
            self.correct = False
        self.operation(not errors, f"check {name}")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def output_digest(proc: Proc) -> str:
    """sha256 of a command's stdout, followed by that of the CSV it wrote."""
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if "--out" in proc.argv:
        csv_bytes = Path(proc.argv[proc.argv.index("--out") + 1]).read_bytes()
        digest += " csv " + hashlib.sha256(csv_bytes).hexdigest()
    return digest


def run_round(sess: Session, first: list[str] | None, traced: bool) -> tuple[list[Proc], list[str]]:
    """Run the workload's commands once.  Each command is one operation; it
    fails on a non-zero exit or when its output differs from the first
    round's."""
    procs, digests = [], []
    (sess.tmp / "rows.csv").unlink(missing_ok=True)  # every round writes a fresh CSV
    for k, args in enumerate(commands(sess.workload, sess.seed, sess.tmp)):
        proc = sess.cli(args, sess.tmp / f"spans{k}.json" if traced else None)
        digest = output_digest(proc) if proc.returncode == 0 else "-"
        same = first is None or digest == first[k]
        sess.operation(proc.returncode == 0 and same, f"{' '.join(args)}" + ("" if same else " (output differs between rounds)"))
        procs.append(proc)
        digests.append(digest)
    return procs, digests


def round_totals(procs: list[Proc]) -> dict[str, float]:
    return {
        "wall_s": sum(p.wall_s for p in procs),
        "cpu_s": sum(p.cpu_s for p in procs),
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }


def setup_seconds(sess: Session) -> float:
    """Median time to start the interpreter and import quartics.cli, after
    one warm-up import that fills the bytecode cache."""
    argv = [PY, "-c", "import quartics.cli"]
    times = []
    for k in range(SETUP_REPEATS + 1):
        proc = sess.spawn(argv)
        sess.operation(proc.returncode == 0, "import quartics.cli")
        if k:
            times.append(proc.wall_s)
    return statistics.median(times)


def parse(proc: Proc) -> dict:
    return json.loads(proc.stdout)


def run_checks(sess: Session, procs: list[Proc]) -> None:
    """The workload's output checks on one round's outputs."""
    import checks  # numpy enters the driver only after the measured rounds

    seed, t = sess.seed, THEOREM
    docs = [parse(p) if p.returncode == 0 else {} for p in procs]
    if sess.workload == "theorem":
        vt, jc, sc = docs
        sess.check("verify-theorem", lambda: checks.check_verify_theorem(
            vt, t["exhaustive_pmax"], t["sampled_pmax"], t["samples"], seed))
        sess.check("jacobian-check", lambda: checks.check_jacobian(
            jc, t["jac_pmax"], t["jac_samples"], seed))
        sess.check("singular-count", lambda: checks.check_singular_count(sc, t["rmax"]))

        def transform_sums():
            proc = sess.spawn([PY, str(HERE / "transform_sums.py"), "5", "7"])
            return checks.check_transform_sums(parse(proc))

        sess.check("inversion and Parseval", transform_sums)
    elif sess.workload == "box_sum":
        sess.check("box-sum", lambda: checks.check_box_sum(docs[0], BOX["q"], BOX["r"]))
        # a small box whose moduli have only primes <= 13, chosen by the seed
        q, r = 5 + seed % 4, 1 + (seed // 4) % 2
        small = sess.cli(["box-sum", "--q", str(q), "--r", str(r)])
        sess.operation(small.returncode == 0, f"box-sum --q {q} --r {r}")
        sess.check(f"box-sum q={q} r={r} against the brute sum",
                   lambda: checks.check_box_sum_brute(parse(small), q, r))
    else:
        bound = CENSUS_B if sess.workload == "census" else CENSUS_CSV_B
        sess.check("census aggregates", lambda: checks.check_census(
            docs[0], bound, checks.zero_disc_count(bound)))
        if sess.workload == "census_csv":
            sess.check("census rows", lambda: checks.check_census_rows(
                docs[0], (sess.tmp / "rows.csv").read_text(), bound, seed, CSV_SAMPLE))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        sess = Session(workload, seed, Path(tmp))
        metrics: dict[str, tuple[float, str]] = {}
        if not trace:
            setup = setup_seconds(sess)
        else:
            sess.spawn([PY, "-c", "import quartics.cli"])  # warm the bytecode cache
        start = time.perf_counter()
        first_procs, first = None, None
        plain, traced_walls, layers = [], [], []
        while True:
            procs, digests = run_round(sess, first, traced=False)
            if first is None:
                first_procs, first = procs, digests
                for p, d in zip(procs, digests):
                    log(f"sha256 {d}  {' '.join(p.argv[3:]).replace(tmp, '<tmp>')}")
            plain.append(round_totals(procs))
            if trace:
                procs, _ = run_round(sess, first, traced=True)
                traced_walls.append(round_totals(procs)["wall_s"])
                layers.append(traced_layers(sess, len(procs)))
            # stop when less than half a round is left, so that a run
            # measures about --seconds whatever the length of a round
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(plain) >= seconds:
                break
        if trace:
            for name, unit in tracer.PER_LAYER[:-1]:
                metrics[name] = (statistics.median(m.get(name, 0) for m in layers), unit)
            overhead = statistics.median(traced_walls) - statistics.median(r["wall_s"] for r in plain)
            metrics["trace.overhead_s"] = (overhead, "s")
        else:
            for name, unit in END_TO_END[:-1]:
                metrics[name] = (statistics.median(r[name] for r in plain), unit)
            metrics["setup_s"] = (setup, "s")
        run_checks(sess, first_procs)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in plain)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  rounds {len(plain)}"
          f"  (medians over rounds; untraced round walls {walls} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:>16.6f} {unit}")
    print(f"  operations attempted {sess.attempted}  failed {sess.failed}")
    return {
        "correct": sess.correct,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_layers(sess: Session, n: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its processes."""
    total: dict[str, float] = {}
    for k in range(n):
        path = sess.tmp / f"spans{k}.json"
        if not path.exists():
            continue
        with open(path) as fh:
            for key, value in tracer.layer_metrics(json.load(fh)).items():
                total[key] = total.get(key, 0) + value
        path.unlink()
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if not (ROOT / "src" / "quartics" / "cli.py").is_file():
        log(f"no quartics source under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    if ns.seed < 0:
        ap.error("--seed must be non-negative")
    if ns.workload != "all":
        result = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    else:
        # one fresh driver per workload, so that no workload's peak_rss_mb
        # sees the memory an earlier workload's checks left in the driver
        results = {}
        for w in WORKLOADS:
            argv = [PY, __file__, "--workload", w, "--seed", str(ns.seed),
                    "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
            lines = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
            print("\n".join(lines[:-1]))
            results[w] = json.loads(lines[-1])
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
