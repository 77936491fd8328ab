"""Fast self-test of the benchmark at tiny shapes (d=8); about half a minute.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload's code path, untraced and traced, and checks that each
metric of BENCHMARK.json appears with its unit, that the exact counts repeat
from run to run, and that the benchmark refuses to report without a program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("autodiff.tape_nodes", "checkpoint.bytes",
                "decoding.greedy_step_calls", "decoding.beam_step_calls")
SEED = 1  # tiny reference outputs are stored for this seed


def run_bench(workload, trace, cwd=ROOT, seed=SEED):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--shape", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


def assert_metrics(line, kind):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == want
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_bench(workload, trace=0)
    line = last_json(proc)
    assert_metrics(line, "end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "reference (" in proc.stdout  # the reference comparison ran


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    first, second = (last_json(run_bench(workload, trace=1)) for _ in range(2))
    assert_metrics(first, "per_layer")
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["checkpoint.bytes"]["value"] > 0
    if workload.startswith("train"):
        assert first["metrics"]["autodiff.tape_nodes"]["value"] > 0
    else:
        kind = "greedy" if workload == "translate_greedy" else "beam"
        assert first["metrics"][f"decoding.{kind}_step_calls"]["value"] > 0
    assert 0 < first["metrics"]["trace.coverage_pct"]["value"] <= 100


def test_seed_without_reference_says_which_checks_ran():
    proc = run_bench("translate_greedy", trace=0, seed=987654)
    last_json(proc)
    assert "no stored reference for seed 987654; checks that ran:" in proc.stdout


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in proc.stdout.splitlines())


def test_spec_stays_within_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
