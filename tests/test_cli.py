import hashlib
import json
import os
import subprocess
import sys

import pytest

from quartics import cli, experiments, vectorized


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_fourier_zero_form(capsys):
    code, out, _ = run_cli(["fourier", "--p", "5", "--form", "0,0,0,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 725
    assert payload["value"] == "725/3125"


def test_fourier_both_methods(capsys):
    code, out, _ = run_cli(
        ["fourier", "--p", "5", "--form", "1,0,0,1,0", "--method", "both"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_n"] == payload["closed_n"] == 0
    assert payload["match"] is True


def test_fourier_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_n", lambda p, c: 12345)
    code, out, _ = run_cli(
        ["fourier", "--p", "5", "--form", "1,0,0,1,0", "--method", "both"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["match"] is False
    assert payload["form"] == "1,0,0,1,0"  # counterexample round-trips via --form


def test_schemes_command(capsys):
    code, out, _ = run_cli(["schemes", "--p", "5", "--form", "0,1,0,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["x122"] == {"brute": 61, "closed": 61}
    assert payload["counts"]["x22"] == {"brute": 11, "closed": 11}
    assert payload["counts"]["x1212"] == {"brute": 16, "closed": 16}


def test_verify_theorem_small(capsys):
    code, out, _ = run_cli(
        [
            "verify-theorem",
            "--exhaustive-pmax",
            "5",
            "--sampled-pmax",
            "11",
            "--samples",
            "25",
            "--seed",
            "1",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["exhaustive"][0]["forms"] == 3125
    assert [r["p"] for r in payload["sampled"]] == [7, 11]


def test_verify_theorem_deterministic(capsys):
    argv = [
        "verify-theorem",
        "--exhaustive-pmax",
        "5",
        "--sampled-pmax",
        "7",
        "--samples",
        "10",
        "--seed",
        "3",
    ]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_verify_theorem_counts_every_mismatch(capsys, monkeypatch):
    # a closed side that disagrees on five rows of p = 5: all five are
    # counted, the first three in index order are the examples
    closed_n_batch = cli.closed_n_batch
    wrong = [3, 10, 11, 40, 3000]

    def skewed(p, forms):
        n = closed_n_batch(p, forms).copy()
        if p == 5:
            n[wrong] += 1
        return n

    monkeypatch.setattr(cli, "closed_n_batch", skewed)
    code, out, _ = run_cli(["verify-theorem", "--exhaustive-pmax", "7"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    five, seven = payload["exhaustive"]
    assert (five["p"], five["forms"], five["mismatches"]) == (5, 3125, 5)
    assert (seven["mismatches"], seven["examples"]) == (0, [])
    forms = vectorized.all_forms_array(5)[wrong[:3]]
    oracle = vectorized.oracle_n_batch(5, forms)
    assert five["examples"] == [
        {"p": 5, "form": ",".join(map(str, f)), "oracle_n": int(n), "closed_n": int(n) + 1}
        for f, n in zip(forms.tolist(), oracle)
    ]


def test_box_sum_command(capsys):
    code, out, _ = run_cli(["box-sum", "--q", "10", "--r", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    num, den = map(int, payload["exact"].split("/"))
    assert abs(num / den - payload["value"]) < 1e-9
    assert payload["ratio"] == payload["value"] / payload["bound"]


def test_box_sum_int64_headroom_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_INT64_MAX", 1)  # below every bound
    code, out, err = run_cli(["box-sum", "--q", "10", "--r", "2"], capsys)
    assert code == 2 and out == ""
    assert "may exceed int64" in err


def test_singular_count_command(capsys):
    code, out, _ = run_cli(["singular-count", "--rmax", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0] == {
        "r": 1,
        "parametrized": 19,
        "exhaustive": 19,
        "ratio_r2": 19.0,
    }


def test_census_command(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        ["census", "--coeff-bound", "1", "--out", str(out_path)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_forms"] == 243
    assert out_path.exists()
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == payload["passing_all"] + 1


def test_census_require_s(capsys):
    code, out, _ = run_cli(["census", "--coeff-bound", "38", "--require-s"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["s_rows"] == 1 and payload["total_forms"] == 1


def test_jacobian_check_command(capsys):
    code, out, _ = run_cli(
        ["jacobian-check", "--pmax", "7", "--samples", "4", "--seed", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["mismatches"] == []


def test_usage_error_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "quartics.cli", "no-such-command"],
        capture_output=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "quartics.cli", "fourier", "--p", "5"],
        capture_output=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(  # an unknown flag
        [sys.executable, "-m", "quartics.cli", "verify-theorem", "--exhaustive-pmax", "5",
         "--threads", "2"],
        capture_output=True,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    for argv in (  # a negative seed, which numpy's generator would refuse mid-run
        ["jacobian-check", "--pmax", "7", "--samples", "2", "--seed", "-3"],
        ["verify-theorem", "--exhaustive-pmax", "0", "--sampled-pmax", "5", "--samples", "3",
         "--seed", "-1"],
        ["verify-theorem", "--exhaustive-pmax", "5", "--sampled-pmax", "0", "--seed", "-1"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "quartics.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            f"quartics {argv[0]}: --seed must be nonnegative"
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--coeff-bound", "-1"],  # an empty box
        ["census", "--coeff-bound", "30"],  # beyond the engine guard
        ["census", "--coeff-bound", "1", "--height", "0"],  # admits no form
        ["box-sum", "--q", "3", "--r", "5"],  # Q <= r
        ["census", "--coeff-bound", "2", "--height", "1"],  # forces Disc = 0
        ["box-sum", "--q", "80", "--r", "19"],  # past 2 GiB with its 9 shared primes
        ["singular-count", "--rmax", "36"],  # its largest slab past 2 GiB
    ],
)
def test_bad_experiment_bounds_exit_two(argv, capsys, monkeypatch):
    # refused before any sweep of a box starts
    def unreachable(*args, **kwargs):
        raise AssertionError("sweep reached")

    for name in ("_orbit_slabs", "family_x_forms_in_box", "census"):
        monkeypatch.setattr(experiments, name, unreachable)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_experiment_size_bounds_at_their_edges(monkeypatch):
    # the largest boxes that pass reach the sweep; one step up is refused
    class Reached(Exception):
        pass

    def sweep(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(experiments, "_orbit_slabs", sweep)
    for run, ok, big in (
        (lambda r: experiments.box_sum(80, r), 18, 19),
        (experiments.singular_lattice_count, 35, 36),
    ):
        with pytest.raises(Reached):
            run(ok)
        with pytest.raises(ValueError, match="past 2 GiB"):
            run(big)


def test_verify_theorem_without_primes_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "quartics.cli", "verify-theorem", "--exhaustive-pmax", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobian-check", "--pmax", "3"],  # no prime > 3
        ["jacobian-check", "--pmax", "7", "--samples", "0"],
        ["singular-count", "--rmax", "0"],
        ["verify-theorem", "--exhaustive-pmax", "5", "--sampled-pmax", "11", "--samples", "0"],
        ["verify-theorem", "--exhaustive-pmax", "5", "--sampled-pmax", "11", "--samples", "-1"],
    ],
)
def test_vacuous_sweeps_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fourier", "--p", "9", "--form", "1,0,0,1,0"],  # 9 is not prime
        ["schemes", "--p", "9", "--form", "1,0,0,1,0"],
        ["fourier", "--p", "5", "--form", "1,2,3"],  # three coefficients
        ["schemes", "--p", "5", "--form", "1,2,3"],
        ["schemes", "--p", "5", "--form", "0,0,0,0,0"],  # the zero form
        ["schemes", "--p", "5", "--form", "5,0,10,0,-5"],  # zero mod 5
    ],
)
def test_bad_query_input_exits_two(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_quartics_threads_env_is_not_read():
    env = dict(os.environ, QUARTICS_THREADS="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "quartics.cli", "census", "--coeff-bound", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_forms"] == 243


def test_singular_count_scans_each_box_once(capsys, monkeypatch):
    # the batch family classifier sees each Disc = 0 orbit of 3B under
    # x <-> y, y -> -y and f -> -f once, and the rows of 1B and 2B not again
    from quartics.forms import invariants_raw
    from quartics.vectorized import box_coeff_array

    classify = experiments._family_member
    rows = []
    monkeypatch.setattr(
        experiments,
        "_family_member",
        lambda cols, i, j: rows.append(len(i)) or classify(cols, i, j),
    )
    code, out, _ = run_cli(["singular-count", "--rmax", "3"], capsys)
    assert code == 0
    payload = json.loads(out)["rows"]
    assert [row["exhaustive"] for row in payload] == [row["parametrized"] for row in payload]
    reps = 0
    for f in box_coeff_array(3).tolist():
        a0, a1, a2, a3, a4 = f
        i, j = invariants_raw(f)
        if 4 * i**3 == j * j:
            orbit = [f, [a4, a3, a2, a1, a0], [a0, -a1, a2, -a3, a4], [a4, -a3, a2, -a1, a0]]
            reps += f == min(orbit + [[-a for a in g] for g in orbit])
    assert sum(rows) == reps


@pytest.mark.parametrize(
    "argv",
    [
        ["fourier", "--p", "10007", "--form", "1,2,3,4,5", "--method", "oracle"],
        ["fourier", "--p", "101", "--form", "1,2,3,4,5", "--method", "both"],
        ["verify-theorem", "--exhaustive-pmax", "5", "--sampled-pmax", "101"],
        ["verify-theorem", "--exhaustive-pmax", "23"],  # the pairing table
        # sampled forms that the rule sends to the p = 23 table
        ["verify-theorem", "--exhaustive-pmax", "0", "--sampled-pmax", "23",
         "--samples", "268668"],
    ],
)
def test_oversized_oracle_query_exits_two(argv, capsys, monkeypatch):
    # refused from p and the form count: neither the singular set nor the
    # sweep starts
    def unreachable(*args):
        raise AssertionError("allocation reached")

    monkeypatch.setattr(vectorized, "singular_coeff_array", unreachable)
    monkeypatch.setattr(cli, "_verify_prime", unreachable)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "past 2 GiB" in err


# sha256 of the stdout of five bench commands: a change to the engines
# behind them must keep these bytes
PINNED_ARGV = {
    "box-sum": ["box-sum", "--q", "80", "--r", "6"],
    "census": ["census", "--coeff-bound", "8"],
    "jacobian-check": ["jacobian-check", "--pmax", "61", "--samples", "50", "--seed", "1"],
    "singular-count": ["singular-count", "--rmax", "6"],
    "verify-theorem": [
        "verify-theorem", "--exhaustive-pmax", "7", "--sampled-pmax", "19",
        "--samples", "200", "--seed", "1",
    ],
}
PINNED_STDOUT = {
    "box-sum": "afe3de4a2dd09a2d52d28a8c898299bdf27ee003796d71eaa5d8f1f532a44395",
    "census": "5fabaa9c2c015c9dd246b3fc3fe28bb30521cb4e69ef8e651f8e563a6aaf360c",
    "jacobian-check": "064c00ede2b964096a38f58148bc11ddd79d75c3cf36bc18734b66e0a146e921",
    "singular-count": "0601c1abfd926a3c7c1d0880f2dc766faaedf84f2741ae941bb20f4f9346b5da",
    "verify-theorem": "ad87baee84eab64a246b1355ce329a979fe617d33e912f4514bdb864fff0e588",
}


@pytest.mark.parametrize("command", sorted(PINNED_ARGV))
def test_bench_stdout_is_pinned(command, capsys):
    code, out, _ = run_cli(PINNED_ARGV[command], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def test_census_csv_bench_is_pinned(capsys, tmp_path):
    # the census --out bench command: its stdout and the CSV it writes
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(["census", "--coeff-bound", "6", "--out", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8433ea714e199b0718ba7d1a8dca4199944cb9a992eaad1278bc6a66419de55b"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "67cf1cc2574288a4b77926715d66e7ad73a9a8893f79c72484c5e06023630e4a"
    )


def test_singular_count_enumerates_the_family_once(capsys, monkeypatch):
    # one enumeration of the largest box, counted by max |a_i|, serves
    # every r; the output stays the pinned one
    enumerate_family = experiments.family_x_forms_in_box
    calls = []
    monkeypatch.setattr(
        experiments,
        "family_x_forms_in_box",
        lambda r: calls.append(r) or enumerate_family(r),
    )
    code, out, _ = run_cli(PINNED_ARGV["singular-count"], capsys)
    assert code == 0
    assert calls == [6]
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT["singular-count"]


def test_census_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "rows.csv"
    code, out, err = run_cli(["census", "--coeff-bound", "1", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert not path.parent.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier rows\n")
    code, _, _ = run_cli(["census", "--coeff-bound", "-1", "--out", str(kept)], capsys)
    assert code == 2
    assert kept.read_text() == "earlier rows\n"


@pytest.mark.parametrize(
    "bounds",
    [["--coeff-bound", "-1"], ["--coeff-bound", "30"], ["--coeff-bound", "3", "--height", "1"]],
)
def test_rejected_census_writes_no_file(capsys, tmp_path, bounds):
    # the bounds are checked before the --out path is touched
    fresh, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("earlier rows\n")
    for path in (fresh, kept):
        code, out, err = run_cli(["census", *bounds, "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
    assert not fresh.exists()
    assert kept.read_text() == "earlier rows\n"


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quartics.cli", "fourier", "--p", "5", "--form", "0,0,0,0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 725
