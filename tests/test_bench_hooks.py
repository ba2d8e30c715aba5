"""The benchmark's tracer and scripts reach into the package by name; every
name they use must still exist.  perfbench/ is read here, never imported."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(path: Path, name: str):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path.name}")


def test_traced_layers_exist():
    tracer = PERFBENCH / "tracer.py"
    for module, names in _literal(tracer, "LAYERS").items():
        mod = importlib.import_module(f"quartics.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"quartics.{module}.{name}"
    for module, name in _literal(tracer, "CACHED"):
        fn = getattr(importlib.import_module(f"quartics.{module}"), name)
        assert callable(getattr(fn, "cache_info", None)), f"quartics.{module}.{name}"


def test_benchmark_imports_exist():
    # transform_sums.py imports all_forms_array and closed_n_batch
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quartics"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), f"{path.name}: {node.module}.{alias.name}"


def test_cli_import_loads_every_traced_module():
    # tracer.py imports quartics.cli alone and finds the modules it wraps
    # in sys.modules
    tracer = PERFBENCH / "tracer.py"
    named = set(_literal(tracer, "LAYERS")) | {m for m, _ in _literal(tracer, "CACHED")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quartics.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert {f"quartics.{m}" for m in named} <= set(proc.stdout.split())
