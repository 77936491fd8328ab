#!/usr/bin/env python3
"""mlrf benchmark: de_en-shaped training and translation, one workload per run.

    python3 perfbench/run.py --workload train_b32 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload runs in its own child process (worker.py) as a closed loop of
one client, with BLAS threads capped at the number of usable cores.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it give the stamp (commit, machine, versions, seed), the
correctness checks that ran, every metric with its unit and, when traced, the
per-layer self-time summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from worker import PROGRAM_MISSING, SHAPES  # noqa: E402  (worker imports numpy lazily)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170

# other names for some end-to-end metrics on some workloads
ALIASES = {
    ("train_b32", "tok_s"): "train_tok_s",
    ("train_b8", "tok_s"): "train_tok_s",
    ("train_b32", "pass_s"): "epoch_s",
    ("train_b8", "pass_s"): "epoch_s",
    ("translate_greedy", "op_ms_p50"): "greedy_ms_p50",
    ("translate_beam8", "op_ms_p50"): "beam_ms_p50",
}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=sorted(SHAPES), default="de_en",
                    help="tiny runs every code path at d=8, for the self-test")
    ap.add_argument("--record", action="store_true",
                    help="store this run's losses and output ids as the seed's reference")
    return ap.parse_args(argv)


def stamp(seed: int) -> dict:
    """Commit and tree state of the checkout; the worker adds the machine."""
    out = {"seed": seed, "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=20, check=True)
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                    "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=20, check=True)
            out["git_sha"] = sha.stdout.strip()
            out["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    out["src_sha256"] = digest.hexdigest()[:16]
    return out


def child_env() -> tuple[dict, int]:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = env.get(var, "")
        if value.isdigit() and 0 < int(value) < threads:
            threads = int(value)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, threads


def run_child(args, workload: str) -> tuple[dict | None, str]:
    """Run one workload in a child process; returns (result, failure note)."""
    work = OUT_DIR / f"work-{os.getpid()}-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    env, _ = child_env()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--shape", args.shape, "--work", str(work), "--result", str(result_path),
        "--trace-out", str(OUT_DIR / f"trace-{workload}-seed{args.seed}.json"),
    ]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)], env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code == PROGRAM_MISSING:
            return None, "program missing"
        if code != 0 or not result_path.exists():
            how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
            return None, f"worker {how} without a result"
        return json.loads(result_path.read_text()), ""
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {CHILD_TIMEOUT_S} s and was killed"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def report(spec: dict, args, workload: str, result: dict | None, note: str, info: dict) -> dict:
    """Print the human-readable lines for one workload; return its JSON line."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"# workload {workload} seed {args.seed} shape {args.shape} trace {args.trace}")
    if result is None:
        print(f"# FAILED: {note}; the workload counts as one failed op")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print("# stamp " + json.dumps({**info, **result["environment"]}, sort_keys=True))
    if not result["has_reference"]:
        print(f"# no stored reference for seed {args.seed}; checks that ran:")
    else:
        print("# checks that ran:")
    for check in result["checks"]:
        print(f"#   {check}")
    for err in result["errors"]:
        print(f"# ERROR {err}")
    metrics = result["metrics"]
    correct = result["failed"] == 0
    if metrics and set(metrics) != set(units):
        print(f"# ERROR metrics {sorted(metrics)} != BENCHMARK.json {sorted(units)}")
        correct = False
    attempted = max(result["attempted"], 1)
    print(f"  fail_ratio {result['failed'] / attempted!r} ratio")
    for name in (m["name"] for m in spec[kind]):
        if name in metrics:
            alias = ALIASES.get((workload, name)) if not args.trace else None
            also = f"  (= {alias})" if alias else ""
            print(f"  {name} {metrics[name]!r} {units[name]}{also}")
    if result["untraced"]:
        print(f"# not traced, the program has no such function: {', '.join(result['untraced'])}")
    if result["trace_summary"]:
        print("# traced self time per op (span: calls/op, ms/op, self ms/op, self share of op)")
        for row in result["trace_summary"]:
            print(f"#   {row['span']:<24} {row['calls_per_op']:8.2f} {row['ms_per_op']:10.3f}"
                  f" {row['self_ms_per_op']:10.3f} {row['self_share_pct']:6.2f}%")
    return {
        "correct": correct and bool(metrics),
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }


def record(args, workload: str, result: dict) -> None:
    path = HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    if result["failed"]:
        print(f"# not recording {workload}: the run had failures", file=sys.stderr)
        return
    refs.setdefault(args.shape, {}).setdefault(str(args.seed), {})[workload] = result["observed"]
    path.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
    print(f"# recorded reference for {args.shape} seed {args.seed} {workload}")


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit so the child is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads(SPEC_PATH.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workloads)
    if not (ROOT / "src" / "mlrf" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'mlrf'}; nothing to measure",
              file=sys.stderr)
        return 2
    info = stamp(args.seed)
    info["blas_threads_requested"] = child_env()[1]
    lines = []
    for workload in workloads if args.workload == "all" else [args.workload]:
        result, note = run_child(args, workload)
        if note == "program missing":
            print("perfbench: the program cannot be imported; nothing to measure",
                  file=sys.stderr)
            return 2
        line = report(spec, args, workload, result, note, info)
        if args.record and result is not None:
            record(args, workload, result)
        lines.append((workload, line))
    if args.workload != "all":
        line = lines[0][1]
    else:
        line = {
            "correct": all(l["correct"] for _, l in lines),
            "attempted": sum(l["attempted"] for _, l in lines),
            "failed": sum(l["failed"] for _, l in lines),
            "metrics": {f"{w}.{n}": m for w, l in lines for n, m in l["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
