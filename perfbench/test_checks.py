"""The benchmark's checks accept the program's real outputs and reject
deliberately wrong ones.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def cli(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QUARTICS_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "quartics.cli", *args], env=env,
                         capture_output=True, check=True).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def census2(tmp_path_factory):
    """Aggregates and CSV text of the census at coefficient bound 2."""
    path = tmp_path_factory.mktemp("census") / "rows.csv"
    doc = cli("census", "--coeff-bound", "2", "--out", str(path))
    with open(path, newline="") as fh:
        return doc, fh.read()


def test_census_aggregates(census2):
    doc, _ = census2
    zero = checks.zero_disc_count(2)
    assert checks.check_census(doc, 2, zero) == []
    assert checks.check_census(doc, 2, zero + 1)
    for key, delta in (("zero_disc", 1), ("passing_all", 10**6), ("total_forms", -1)):
        bad = dict(doc, **{key: doc[key] + delta})
        assert checks.check_census(bad, 2, zero), key


def _with_field(text: str, name: str, flip) -> str:
    """The CSV text with one field of its first row changed."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(name)
    rows[1][col] = flip(rows[1][col])
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def test_census_rows_accepts_and_rejects(census2):
    doc, text = census2
    assert doc["passing_all"] > 0
    assert checks.check_census_rows(doc, text, 2, seed=1, n_sample=5) == []
    assert _with_field(text, "a0", lambda v: v) == text
    flips = {
        "a2": lambda v: str(int(v) + 1),
        "Disc": lambda v: str(int(v) + 1),
        "omega": lambda v: "5",
        "height": lambda v: v + "1",
        "irreducible": lambda v: "false",
        "in_S": lambda v: "true",
    }
    for name, flip in flips.items():
        bad = _with_field(text, name, flip)
        assert checks.check_census_rows(doc, bad, 2, seed=1, n_sample=5), name
    lines = text.splitlines(keepends=True)
    assert checks.check_census_rows(doc, text + lines[1], 2, 1, 5)  # duplicate row
    assert checks.check_census_rows(doc, "".join(lines[:-1]), 2, 1, 5)  # missing row


def test_census_rows_reject_a_row_failing_a_filter(census2):
    """x^4 - y^4 with consistent I, J, Disc and height fields: only the
    sympy recomputation can see that it fails the filters."""
    doc, text = census2
    c = (1, 0, 0, 0, -1)
    i, j = checks.invariants_ij(*c)
    row = f'"1,0,0,0,-1",1,0,0,0,-1,{i},{j},{checks.disc(*c)},{abs(i) ** 3},1,true,true,true,false\r\n'
    forged = text.splitlines(keepends=True)[0] + row
    assert checks.check_census_rows(dict(doc, passing_all=1), forged, 2, 1, 0) == []
    errors = checks.check_census_rows(dict(doc, passing_all=1), forged, 2, 1, 1)
    assert any("sympy disagrees with row 1,0,0,0,-1" in e for e in errors)


def test_box_sum_brute_and_off_by_one():
    doc = cli("box-sum", "--q", "5", "--r", "1")
    assert checks.check_box_sum_brute(doc, 5, 1) == []
    num, den = doc["exact"].split("/")
    bad = dict(doc, exact=f"{int(num) + 1}/{den}")
    assert checks.check_box_sum_brute(bad, 5, 1)
    assert checks.check_box_sum(dict(doc, in_x=bad["exact"]), 5, 1)  # in_x > exact
    assert checks.check_box_sum(dict(doc, ratio=doc["ratio"] * (1 + 1e-9)), 5, 1)


def test_theorem_checks():
    vt = cli("verify-theorem", "--exhaustive-pmax", "5", "--sampled-pmax", "11",
             "--samples", "20", "--seed", "3")
    assert checks.check_verify_theorem(vt, 5, 11, 20, 3) == []
    bad = copy.deepcopy(vt)
    bad["exhaustive"][0]["forms"] -= 1
    assert checks.check_verify_theorem(bad, 5, 11, 20, 3)
    assert checks.check_verify_theorem(vt, 5, 11, 20, 4)

    jc = cli("jacobian-check", "--pmax", "13", "--samples", "5", "--seed", "3")
    assert checks.check_jacobian(jc, 13, 5, 3) == []
    bad = copy.deepcopy(jc)
    del bad["checked"][-1]
    assert checks.check_jacobian(bad, 13, 5, 3)

    sc = cli("singular-count", "--rmax", "2")
    assert checks.check_singular_count(sc, 2) == []
    bad = copy.deepcopy(sc)
    bad["rows"][1]["exhaustive"] += 1
    assert checks.check_singular_count(bad, 2)

    good = {"5": [5**5, 5**5 * (625 + 125 - 25)]}
    assert checks.check_transform_sums(good) == []
    assert checks.check_transform_sums({"5": [5**5, good["5"][1] + 1]})


def test_layer_metrics_self_and_nesting():
    doc = {
        "names": ["cli.main", "intfactor.factorize", "intfactor.is_prime"],
        "spans": [
            [2, 1.0, 1.5, 1, 0],  # is_prime inside the outer factorize
            [1, 0.5, 2.0, 3, 0],  # a factorize nested in another factorize
            [1, 2.5, 3.0, 3, 0],
            [1, 0.0, 3.5, 4, 0],
            [0, 0.0, 4.0, -1, 0],
        ],
        "counts": {},
    }
    m = tracer.layer_metrics(doc)
    assert m["intfactor.factorize.s"] == 3.5
    assert m["intfactor.factorize.calls"] == 3
    assert m["cli.main.self_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(0.5)
    assert m["intfactor.is_prime.s"] == 0.5
