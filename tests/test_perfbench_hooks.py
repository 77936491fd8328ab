"""perfbench wraps mlrf functions by name; every name it traces must exist,
and every workload must run correctly at the tiny shape."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def traced_entries() -> dict:
    """The ``TRACED`` literal of perfbench/worker.py, read without importing it."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {WORKER}")


TRACED = traced_entries()


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_hook_resolves(span):
    module, path = TRACED[span]
    owner = importlib.import_module(f"mlrf.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{span}: mlrf.{module}.{path} is missing"
        owner = getattr(owner, part)
    assert callable(owner)


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_benchmark_run_is_correct(workload):
    """One untraced run per workload at the tiny shape, about a second each:
    perfbench's checks read attributes of the program (say
    ``Checkpoint.opt_t`` or ``AdamState.m``), so a rename fails here."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--shape", "tiny", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0, proc.stdout[-3000:]
