"""One benchmark workload, run in its own process by run.py.

The worker enters mlrf only through its public entry points: ``train_step``,
``evaluate_teacher_forced``, ``save_checkpoint``, ``load_checkpoint`` with
``build_model``, and ``translate_ids``.  It calls them through their modules,
so the traced run can wrap them without touching program files.  It writes
one JSON result to ``--result`` and, when traced, the spans to
``--trace-out``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer

HERE = Path(__file__).resolve().parent
PROGRAM_MISSING = 3  # exit code: mlrf cannot be found at all

# de_en pins the shapes of configs/de_en_shaped.cfg so that an edit to that
# config cannot silently change the benchmark; tiny is the self-test shape.
SHAPES = {
    "de_en": {
        "model": dict(n_layers=3, d_model=256, d_ff=1024, n_heads=4,
                      src_vocab=8389, tgt_vocab=6428, max_len=128, dropout=0.1),
        "fusion": dict(side="decoder", enc_kind="baseline", dec_kind="self_attention",
                       n_hop=4, d_a=1024, d_f=512),
        "alphabet": 1000,
    },
    "tiny": {
        "model": dict(n_layers=2, d_model=8, d_ff=16, n_heads=2,
                      src_vocab=40, tgt_vocab=40, max_len=40, dropout=0.1),
        "fusion": dict(side="decoder", enc_kind="baseline", dec_kind="self_attention",
                       n_hop=3, d_a=16, d_f=12),
        "alphabet": 20,
    },
}
MIN_LEN, MAX_LEN = 15, 30  # synthetic copy sentences
TRAIN_SENTENCES = 64  # one benchmark epoch: 2 steps at batch 32, 8 at batch 8
VALID_SENTENCES = 32
VALID_BATCH = 32  # run_training validates at the phase-2 batch size
DECODE_MAX_LEN = 30
SETUP_REPS = 3
LOSS_RTOL = 1e-7

WORKLOADS = {
    "train_b32": {"kind": "train", "batch": 32},
    "train_b8": {"kind": "train", "batch": 8},
    # the sentence counts keep one pass near 3-6 s at de_en shape
    "translate_greedy": {"kind": "translate", "width": 1, "alpha": 0.0, "sentences": 8},
    "translate_beam8": {"kind": "translate", "width": 8, "alpha": 1.6, "sentences": 2},
}

# span name -> (module of mlrf, attribute path); a missing one is reported and skipped
TRACED = {
    "training.step": ("training", "train_step"),
    "training.adam": ("training", "adam_step"),
    "training.eval": ("training", "evaluate_teacher_forced"),
    "autodiff.backward": ("autodiff", "backward"),
    "autodiff.cross_entropy": ("autodiff", "cross_entropy"),
    "model.encode": ("model", "Transformer.encode"),
    "model.decode": ("model", "Transformer.decode_teacher_forced"),
    "model.output": ("model", "Transformer.output_logits"),
    "fusion.encoder": ("model", "Transformer.encoder_output"),
    "fusion.decoder": ("model", "Transformer.decoder_output"),
    "checkpoint.save": ("checkpoint", "save_checkpoint"),
    "checkpoint.load": ("checkpoint", "load_checkpoint"),
    "model.build": ("checkpoint", "build_model"),
    "data.make_batches": ("data", "make_batches"),
    "decoding.translate": ("decoding", "translate_ids"),
    "decoding.scorer_init": ("decoding", "SentenceScorer.__init__"),
    "decoding.step": ("decoding", "SentenceScorer.__call__"),
    "decoding.greedy": ("decoding", "greedy_decode"),
    "decoding.beam": ("decoding", "beam_search"),
}
# per-layer metric -> span name, each reported as mean ms per op
PER_OP_MS = {
    "model.encode_ms": "model.encode",
    "model.decode_ms": "model.decode",
    "model.output_ms": "model.output",
    "autodiff.cross_entropy_ms": "autodiff.cross_entropy",
    "fusion.encoder_ms": "fusion.encoder",
    "fusion.decoder_ms": "fusion.decoder",
    "autodiff.backward_ms": "autodiff.backward",
    "training.adam_ms": "training.adam",
    "decoding.scorer_init_ms": "decoding.scorer_init",
    "decoding.step_ms": "decoding.step",
}
# per-layer metric -> span name, reported as mean ms per call
PER_CALL_MS = {"training.eval_ms": "training.eval", "checkpoint.save_ms": "checkpoint.save"}
PER_SETUP_MS = {
    "checkpoint.load_ms": "checkpoint.load",
    "model.build_ms": "model.build",
    "data.make_batches_ms": "data.make_batches",
}


class Ledger:
    """Ops attempted and failed, the checks that ran, and why ops failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []
        self.errors: list[str] = []

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(why)

    def crashed(self, what: str) -> None:
        """The op just attempted raised; it counts as failed."""
        self.fail(f"{what} raised: {traceback.format_exc(limit=3).strip()}")
        traceback.print_exc()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=sorted(SHAPES), default="de_en")
    ap.add_argument("--work", required=True, help="scratch directory for checkpoints")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    return ap.parse_args(argv)


def load_program():
    import numpy as np

    from mlrf import autodiff, checkpoint, data, decoding, fusion, model, training

    return SimpleNamespace(
        np=np, autodiff=autodiff, checkpoint=checkpoint, data=data, decoding=decoding,
        fusion=fusion, model=model, training=training,
    )


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def release_freed_memory() -> None:
    """Return heap memory that is already freed to the OS (glibc only).

    Without this, whether glibc kept the previous set-up's freed model in its
    heap depended on the heap layout, which the lengths of paths and
    environment strings change, and peak RSS moved by 90 MB with it.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim(0)


def reference_for(shape: str, seed: int, workload: str) -> dict | None:
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(shape, {}).get(str(seed), {}).get(workload)


def synthetic(p, shape: dict, seed: int, count: int):
    """``count`` copy pairs of lengths MIN_LEN..MAX_LEN, in the order
    (15, 30), (16, 29), ...: each pair holds 45 tokens, so every batch of an
    even size holds the same number of tokens whatever the seed, and the seed
    only changes the symbols."""
    lengths = range(MIN_LEN, MAX_LEN + 1)
    per_len = -(-count // len(lengths))
    by_len = {
        n: p.data.generate_synthetic(p.data.SyntheticTaskSpec(
            "copy", shape["alphabet"], n, n, per_len, seed * 100 + n)).pairs
        for n in lengths
    }
    half = len(lengths) // 2
    order = [n for _ in range(per_len) for k in range(half)
             for n in (MIN_LEN + k, MAX_LEN - k)]
    vocab = p.data.Vocabulary(f"s{i}" for i in range(shape["alphabet"]))
    return vocab, [by_len[n].pop() for n in order[:count]]


def tape_nodes(loss) -> int:
    """Op nodes reachable from ``loss`` on the autodiff tape."""
    seen, todo, count = set(), [loss], 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if getattr(node, "_vjp", None) is not None:
            count += 1
        todo.extend(getattr(node, "_parents", ()))
    return count


class Bench:
    """One workload run: set-up repetitions, an untraced timed loop and,
    with ``--trace 1``, a traced one."""

    def __init__(self, p, args):
        self.p = p
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.shape = SHAPES[args.shape]
        self.model_cfg = p.model.ModelConfig(**self.shape["model"])
        self.fusion_cfg = p.fusion.FusionConfig(**self.shape["fusion"])
        self.ref = reference_for(args.shape, args.seed, args.workload)
        self.ledger = Ledger()
        self.tracer = Tracer() if args.trace else None
        self.counters: dict[str, float] = {}
        self.work = Path(args.work)
        self.state: dict | None = None
        self.summary: list[dict] = []
        self.warm_losses: list[float] = []  # one per set-up
        self.untraced: list[str] = []  # TRACED entries the program lacks

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def install_tracing(self) -> None:
        for name, (module, path) in TRACED.items():
            *owners, attr = path.split(".")
            owner = getattr(self.p, module)
            for part in owners:
                owner = getattr(owner, part, None)
            if not hasattr(owner, attr):
                if name not in self.untraced:
                    self.untraced.append(name)
                continue
            before = self._count_tape if name == "autodiff.backward" else None
            self.tracer.wrap(owner, attr, name, before)

    def _count_tape(self, loss, *_args, **_kwargs) -> None:
        """Walk the first traced step's loss graph; later steps are the same."""
        if "autodiff.tape_nodes" not in self.counters:
            self.counters["autodiff.tape_nodes"] = tape_nodes(loss)

    def run(self, import_s: float) -> dict:
        """Set up SETUP_REPS times, run the timed loop(s), check the outputs."""
        kind = self.wl["kind"]
        if self.tracer:
            self.install_tracing()
        setup_times = []
        for _ in range(SETUP_REPS):
            self.state = None
            gc.collect()
            release_freed_memory()
            t0 = time.perf_counter()
            with self.span("bench.setup"):
                self.state = self.setup_train() if kind == "train" else self.setup_translate()
            setup_times.append(time.perf_counter() - t0)
        loop = self.train_loop if kind == "train" else self.translate_loop
        check = self.check_train if kind == "train" else self.check_translate
        if not self.tracer:
            timed = loop(self.state, self.args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            check(self.state)
            if timed is None:
                return {}
            return {
                "setup_s": import_s + statistics.median(setup_times),
                "op_ms_p50": 1e3 * statistics.median(timed["op_s"]),
                "tok_s": timed["tokens"] / sum(timed["op_s"]),
                "pass_s": statistics.median(timed["pass_s"]),
                "peak_rss_mb": peak_rss_mb,
            }
        # traced run: an untraced half, then a traced half for the overhead
        self.tracer.unwrap_all()
        plain = loop(self.state, self.args.seconds / 2)
        traced = None
        if plain is not None:
            self.install_tracing()
            with self.span("bench.timed"):
                traced = loop(self.state, self.args.seconds / 2)
            self.tracer.unwrap_all()
        check(self.state)
        if traced is None:
            return {}
        return self.layer_metrics(plain, traced)

    # -- training workloads

    def setup_train(self) -> dict:
        p, args, batch = self.p, self.args, self.wl["batch"]
        with self.span("model.build"):
            model = p.model.Transformer(self.model_cfg, self.fusion_cfg, seed=args.seed)
            opt = p.training.AdamState(model.params)
        vocab, pairs = synthetic(p, self.shape, args.seed, TRAIN_SENTENCES + VALID_SENTENCES)
        train = p.data.ParallelCorpus(pairs[:TRAIN_SENTENCES])
        valid = p.data.ParallelCorpus(pairs[TRAIN_SENTENCES:])
        # in corpus order, not length-sorted: every batch then holds the same
        # number of tokens, so step times do not depend on the seed
        batches = p.data.make_batches(train, vocab, vocab, batch)
        valid_batches = p.data.make_batches(valid, vocab, vocab, VALID_BATCH)
        cfg = p.training.TrainConfig(batch_phase1=batch, batch_phase2=VALID_BATCH, seed=args.seed)
        model.reseed_dropout([args.seed, 7, 0])
        self.ledger.attempted += 1
        self.warm_losses.append(p.training.train_step(model, batches[0], opt, cfg).loss)
        return {
            "model": model, "opt": opt, "cfg": cfg, "batches": batches,
            "tokens": [int(b.tgt_mask.sum()) for b in batches],
            "valid_batches": valid_batches,
            "losses": [], "valid_losses": [], "epoch": 0,
            "path": self.work / "train.ckpt",
        }

    def train_loop(self, st: dict, seconds: float) -> dict | None:
        p = self.p
        op_s, pass_s, tokens = [], [], 0
        deadline = time.perf_counter() + seconds
        try:
            while True:
                e0 = time.perf_counter()
                st["epoch"] += 1
                st["model"].reseed_dropout([self.args.seed, 7, st["epoch"]])
                for batch, ntok in zip(st["batches"], st["tokens"]):
                    self.ledger.attempted += 1
                    t0 = time.perf_counter()
                    m = p.training.train_step(st["model"], batch, st["opt"], st["cfg"])
                    op_s.append(time.perf_counter() - t0)
                    st["losses"].append(m.loss)
                    tokens += ntok
                self.ledger.attempted += 1
                valid = p.training.evaluate_teacher_forced(st["model"], st["valid_batches"])
                st["valid_losses"].append(valid["loss"])
                self.ledger.attempted += 1
                p.checkpoint.save_checkpoint(
                    st["path"], st["model"], st["opt"], st["cfg"],
                    {"seed": self.args.seed, "epochs_done": st["epoch"]},
                )
                pass_s.append(time.perf_counter() - e0)
                if time.perf_counter() >= deadline:
                    break
        except Exception:  # a crash of the program is a failed op
            self.ledger.crashed("train epoch")
            return None
        return {"op_s": op_s, "pass_s": pass_s, "tokens": tokens}

    # -- translation workloads

    def setup_translate(self) -> dict:
        p, args = self.p, self.args
        path = self.work / "model.ckpt"
        ckpt = p.checkpoint.load_checkpoint(path)
        model = p.checkpoint.build_model(ckpt)
        del ckpt
        vocab, pairs = synthetic(p, self.shape, args.seed, self.wl["sentences"])
        sources = [vocab.encode(src) + [p.data.EOS_ID] for src, _ in pairs]
        beam = p.decoding.BeamConfig(self.wl["width"], self.wl["alpha"], DECODE_MAX_LEN)
        warm = p.decoding.BeamConfig(self.wl["width"], self.wl["alpha"], 2)
        self.ledger.attempted += 1
        p.decoding.translate_ids(model, sources[0], warm)
        return {"model": model, "sources": sources, "beam": beam, "outputs": [], "path": path}

    def write_translate_checkpoint(self) -> None:
        """Untimed: the seeded model plus fresh Adam state, as training saves it."""
        p = self.p
        model = p.model.Transformer(self.model_cfg, self.fusion_cfg, seed=self.args.seed)
        p.checkpoint.save_checkpoint(
            self.work / "model.ckpt", model, p.training.AdamState(model.params),
            p.training.TrainConfig(seed=self.args.seed), {"seed": self.args.seed},
        )

    def translate_loop(self, st: dict, seconds: float) -> dict | None:
        p = self.p
        op_s, pass_s, tokens = [], [], 0
        deadline = time.perf_counter() + seconds
        try:
            while True:
                p0 = time.perf_counter()
                for src in st["sources"]:
                    self.ledger.attempted += 1
                    t0 = time.perf_counter()
                    out = p.decoding.translate_ids(st["model"], src, st["beam"])
                    op_s.append(time.perf_counter() - t0)
                    st["outputs"].append([int(t) for t in out])
                    # generated tokens, counting the EOS that ended a short output
                    tokens += len(out) + (len(out) < DECODE_MAX_LEN)
                pass_s.append(time.perf_counter() - p0)
                if time.perf_counter() >= deadline:
                    break
        except Exception:  # a crash of the program is a failed op
            self.ledger.crashed("translate_ids")
            return None
        return {"op_s": op_s, "pass_s": pass_s, "tokens": tokens}

    # -- correctness, outside the timed region

    def check_train(self, st: dict | None) -> None:
        np, led = self.p.np, self.ledger
        if st is None:
            return
        losses = self.warm_losses[-1:] + st["losses"]
        bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
        if bad:
            led.fail(f"non-finite loss at steps {bad[:5]}", len(bad))
        led.checks.append(f"loss finite ({len(losses)} steps)")
        if len(set(self.warm_losses)) != 1:
            led.fail(f"set-up is not deterministic: warm-up losses {self.warm_losses}")
        led.checks.append(f"warm-up loss identical across {len(self.warm_losses)} set-ups")
        if self.ref is not None:
            self._compare_losses("loss", losses, self.ref["loss"])
            self._compare_losses("valid_loss", st["valid_losses"], self.ref["valid_loss"])
        if not st["valid_losses"]:
            return
        if not all(math.isfinite(x) for x in st["valid_losses"]):
            led.fail("non-finite validation loss")
        led.checks.append(f"validation loss finite ({len(st['valid_losses'])} passes)")
        # the last save must restore bit-identical parameters and Adam state
        try:
            ckpt = self.p.checkpoint.load_checkpoint(st["path"])
        except Exception:  # an unreadable checkpoint fails the save op
            led.crashed("load_checkpoint of the saved checkpoint")
            return
        model, opt = st["model"], st["opt"]
        same = ckpt.opt_t == opt.t and ckpt.opt_m is not None
        for name, t in model.params.items():
            same = same and np.array_equal(ckpt.tensors.get(name), t.data)
            same = same and np.array_equal(ckpt.opt_m.get(name), opt.m[name])
            same = same and np.array_equal(ckpt.opt_v.get(name), opt.v[name])
        same = same and set(ckpt.tensors) == set(model.params.names())
        if not same:
            led.fail("saved checkpoint does not restore bit-identical parameters")
        led.checks.append("checkpoint restores bit-identical parameters and Adam state")
        self.counters["checkpoint.bytes"] = os.path.getsize(st["path"])

    def _compare_losses(self, what: str, seen: list, want: list) -> None:
        n = min(len(seen), len(want))
        bad = [i for i in range(n)
               if not math.isclose(seen[i], want[i], rel_tol=LOSS_RTOL, abs_tol=0.0)]
        if bad:
            self.ledger.fail(f"{what} differs from reference at {bad[:5]}: "
                             f"{seen[bad[0]]!r} != {want[bad[0]]!r}", len(bad))
        self.ledger.checks.append(f"{what} matches reference ({n} of {len(seen)})")

    def check_translate(self, st: dict | None) -> None:
        led = self.ledger
        if st is None:
            return
        vocab = self.model_cfg.tgt_vocab
        bad = [i for i, out in enumerate(st["outputs"])
               if not all(0 <= t < vocab for t in out)]
        if bad:
            led.fail(f"output ids out of range in sentences {bad[:5]}", len(bad))
        led.checks.append(f"output ids in range ({len(st['outputs'])} sentences)")
        if self.ref is not None:
            want = self.ref["ids"]
            wrong = [i for i, out in enumerate(st["outputs"]) if out != want[i % len(want)]]
            if wrong:
                led.fail(f"output ids differ from reference in decodes {wrong[:5]}", len(wrong))
            led.checks.append(f"output ids match reference ({len(st['outputs'])} decodes)")
        self.counters["checkpoint.bytes"] = os.path.getsize(st["path"])

    def observed(self, st: dict | None) -> dict:
        """What the reference stores for this workload and seed."""
        if st is None:
            return {}
        if self.wl["kind"] == "train":
            return {"loss": self.warm_losses[-1:] + st["losses"], "valid_loss": st["valid_losses"]}
        return {"ids": st["outputs"][: len(st["sources"])]}

    # -- per-layer numbers from the traced loop

    def layer_metrics(self, plain: dict, traced: dict) -> dict:
        tr, st = self.tracer, self.state
        kids = tr.children()
        names = tr.names
        op_name = "training.step" if self.wl["kind"] == "train" else "decoding.translate"
        timed = [i for i, n in enumerate(names) if n == "bench.timed"]
        in_timed = [j for i in timed for j in tr.descendants(i, kids)]
        ops = sorted(j for j in in_timed if names[j] == op_name)
        setups = [i for i, n in enumerate(names) if n == "bench.setup"]

        def total_ns(roots, name):
            return sum(tr.duration(j) for i in roots for j in tr.descendants(i, kids)
                       if names[j] == name)

        n_ops = len(ops)
        out = {m: total_ns(ops, s) / n_ops / 1e6 for m, s in PER_OP_MS.items()}
        for m, s in PER_CALL_MS.items():
            calls = [j for j in in_timed if names[j] == s]
            out[m] = sum(tr.duration(j) for j in calls) / len(calls) / 1e6 if calls else 0.0
        for m, s in PER_SETUP_MS.items():
            out[m] = total_ns(setups, s) / len(setups) / 1e6
        op_total = sum(tr.duration(i) for i in ops)
        op_self = sum(tr.self_time(i, kids) for i in ops)
        out["training.step_ms"] = op_total / n_ops / 1e6 if op_name == "training.step" else 0.0
        out["training.step_self_ms"] = (
            op_self / n_ops / 1e6 if op_name == "training.step" else 0.0
        )
        searches = [j for i in ops for j in kids[i]
                    if names[j] in ("decoding.greedy", "decoding.beam")]
        out["decoding.search_self_ms"] = sum(tr.self_time(j, kids) for j in searches) / n_ops / 1e6
        # exact counts: scorer calls per sentence over the first traced pass
        first_pass = ops[: len(st["sources"])] if "sources" in st else []
        for kind in ("greedy", "beam"):
            calls = sum(
                1 for i in first_pass for j in kids[i] if names[j] == f"decoding.{kind}"
                for k in kids[j] if names[k] == "decoding.step"
            )
            out[f"decoding.{kind}_step_calls"] = calls / len(first_pass) if first_pass else 0
        out["autodiff.tape_nodes"] = self.counters.get("autodiff.tape_nodes", 0)
        out["checkpoint.bytes"] = self.counters.get("checkpoint.bytes", 0)
        out["trace.coverage_pct"] = 100.0 * (1.0 - op_self / op_total)
        out["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced["op_s"]) / statistics.median(plain["op_s"]) - 1.0
        )
        self.summary = self.span_summary(ops, kids)
        return out

    def span_summary(self, ops: list[int], kids) -> list[dict]:
        """Per-layer total and self time per op, and share of op wall time."""
        tr = self.tracer
        op_total = sum(tr.duration(i) for i in ops)
        rows: dict[str, list[int]] = {}
        for i in ops:
            for j in [i] + tr.descendants(i, kids):
                row = rows.setdefault(tr.names[j], [0, 0, 0])
                row[0] += 1
                row[1] += tr.duration(j)
                row[2] += tr.self_time(j, kids)
        return [
            {"span": name, "calls_per_op": c / len(ops), "ms_per_op": t / len(ops) / 1e6,
             "self_ms_per_op": s / len(ops) / 1e6, "self_share_pct": 100.0 * s / op_total}
            for name, (c, t, s) in sorted(rows.items(), key=lambda kv: -kv[1][2])
        ]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        p = load_program()
    except ModuleNotFoundError as exc:
        if exc.name != "mlrf":
            raise
        print(f"perfbench: the program is missing: {exc}", file=sys.stderr)
        return PROGRAM_MISSING
    import_s = time.monotonic() - args.launched

    bench = Bench(p, args)
    metrics: dict = {}
    try:
        if bench.wl["kind"] == "translate":
            bench.write_translate_checkpoint()
        metrics = bench.run(import_s)
    except Exception:  # a crash outside the timed ops fails the workload's set-up
        bench.ledger.attempted += 1
        bench.ledger.crashed("set-up")
    led = bench.ledger
    result = {
        "workload": args.workload, "seed": args.seed, "shape": args.shape,
        "trace": args.trace, "attempted": led.attempted, "failed": led.failed,
        "checks": led.checks, "errors": led.errors, "has_reference": bench.ref is not None,
        "metrics": metrics, "environment": environment(p.np),
        "observed": bench.observed(bench.state),
        "trace_summary": bench.summary, "untraced": bench.untraced,
    }
    Path(args.result).write_text(json.dumps(result))
    if args.trace and args.trace_out:
        Path(args.trace_out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": result["environment"],
            "spans": bench.tracer.to_rows(), "summary": bench.summary,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
