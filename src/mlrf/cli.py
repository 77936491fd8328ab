"""Command-line surface: train, translate, evaluate, export-attention, param-count.

Every run is reproducible from (config file, seed): batch shuffling and
dropout are reseeded per epoch from the run seed, so two invocations yield
identical metrics, checkpoints, and output files.  ``decode_lines`` is the
one path from a source line to output ids for translate, evaluate and
export-attention.  A bad input file or ``--out`` is one ``error:`` line and
exit 2 before the checkpoint is read; a source line that is not UTF-8 or too
long for the model is skipped with a warning, and the command exits 1.
Verbosity comes from the ``MLRF_LOG_LEVEL`` environment variable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .checkpoint import (
    RunMeta, build_model, link_checkpoint, load_checkpoint, restore_training, save_checkpoint,
)
from .config import ConfigError, RunConfig, build_corpora, load_config
from .data import (
    BOS_ID, EOS_ID, RESERVED, ParallelCorpus, Vocabulary, make_batches, synthetic_vocabulary,
)
from .decoding import BeamConfig, translate_ids
from .metrics import corpus_bleu
from .model import Transformer, one_sentence, param_specs, parameter_breakdown
from .training import (
    AdamState,
    StepMetrics,
    evaluate_teacher_forced,
    restart_adam,
    train_epoch,
)

log = logging.getLogger("mlrf")

METRICS_HEADER = "step\tphase\tlr\tloss\ttrain_acc\tvalid_acc"
PHASES = ("warmup_schedule", "restarted")  # in training order


@dataclass
class RunReport:
    """Per-step metric rows of this run, the rows of the earlier run it
    resumes (as ``metrics.tsv`` lines), and the optimizer step it ended at."""

    records: list[tuple] = field(default_factory=list)
    earlier: list[str] = field(default_factory=list)
    steps: int = 0

    def add(self, m: StepMetrics, valid_acc: float | None) -> None:
        self.records.append(
            (m.step, m.phase, m.lr, m.loss, m.accuracy, valid_acc)
        )

    def write(self, path: Path) -> None:
        """Write every row to ``path``, by a rename, so a crash leaves the
        previous file whole."""
        lines = [METRICS_HEADER, *self.earlier]
        for step, phase, lr, loss, acc, vacc in self.records:
            v = "" if vacc is None else f"{vacc:.6f}"
            lines.append(f"{step}\t{phase}\t{lr:.8e}\t{loss:.8f}\t{acc:.6f}\t{v}")
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        os.replace(tmp, path)


def _rows_through(path: Path, phase: str, step: int) -> list[str]:
    """The rows of the ``metrics.tsv`` at ``path`` logged at or before
    ``step`` of ``phase``; none when there is no such file."""
    if not path.exists():
        return []
    last = (PHASES.index(phase), step)
    try:
        rows = [r.split("\t") for r in path.read_text(encoding="utf-8").splitlines()[1:]]
        return ["\t".join(r) for r in rows if (PHASES.index(r[1]), int(r[0])) <= last]
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path} is not a metrics file to resume from: {exc}") from exc


# ---------------------------------------------------------------------------
# train


def run_training(run_cfg: RunConfig, out_dir, resume: str | None = None) -> RunReport:
    """Phase 1 (warmup schedule) then phase 2 (restarted Adam), per config."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # say, a file of that name; before any corpus is built
        raise ConfigError(f"cannot make directory {out_dir}: {exc.strerror or exc}") from exc
    seed = run_cfg.seed
    tcfg = run_cfg.train

    train_corpus, valid_corpus, src_vocab, tgt_vocab = build_corpora(run_cfg.data, seed)
    if len(train_corpus) == 0:
        raise ConfigError("training corpus is empty")
    model_cfg = run_cfg.model_config(len(src_vocab), len(tgt_vocab))

    if resume is not None:
        ckpt, (model, state) = _read_checkpoint(resume, restore_training)
        if ckpt.model_config != model_cfg or ckpt.fusion_config != run_cfg.fusion:
            raise ConfigError(f"resume checkpoint {resume} was built from a different config")
        meta = ckpt.meta  # its epoch counter and validation scores carry on
        del ckpt  # the optimizer holds its mapped moments; drop the rest
        log.info("resumed from %s at epoch %d, step %d", resume, meta.epochs_done, state.t)
    else:
        model = Transformer(model_cfg, run_cfg.fusion, seed=seed)
        state = AdamState(model.params)
        meta = RunMeta()
    meta.seed = seed
    # the content tokens: Vocabulary prepends RESERVED when it reads them
    meta.src_vocab_tokens = src_vocab.decode(range(len(RESERVED), len(src_vocab)), False)
    meta.tgt_vocab_tokens = tgt_vocab.decode(range(len(RESERVED), len(tgt_vocab)), False)

    valid_batches = None
    if valid_corpus is not None and len(valid_corpus) > 0:
        valid_batches = make_batches(
            valid_corpus, src_vocab, tgt_vocab, tcfg.batch_phase2, sort_by_length=True
        )

    metrics_path = out_dir / "metrics.tsv"
    report = RunReport()
    if resume is not None:
        report.earlier = _rows_through(metrics_path, state.phase, state.t)

    def on_step(m: StepMetrics) -> None:
        # validation runs after the epoch: a row carries the last completed score
        if m.step % tcfg.log_every == 0:
            report.add(m, meta.last_valid_acc)

    total_epochs = tcfg.epochs_phase1 + tcfg.epochs_phase2
    for epoch in range(meta.epochs_done, total_epochs):
        if epoch < tcfg.epochs_phase1:
            phase, batch_size = "warmup_schedule", tcfg.batch_phase1
        else:
            phase, batch_size = "restarted", tcfg.batch_phase2
            if not state.restarted():
                restart_adam(state)
                log.info(
                    "optimizer restarted: fixed lr %.2e, batch %d", tcfg.restart_lr, batch_size
                )
        # epoch-scoped, seed-derived streams keep runs replayable after
        # a resume at any epoch boundary
        model.reseed_dropout([seed, 7, epoch])
        batches = make_batches(
            train_corpus, src_vocab, tgt_vocab, batch_size,
            shuffle_seed=[seed, 11, epoch], sort_by_length=True,
        )
        stats = train_epoch(model, batches, state, tcfg, on_step=on_step)
        # before the checkpoints: a resume from the last one keeps these rows
        report.write(metrics_path)
        meta.epochs_done = epoch + 1
        best = meta.best_valid_loss
        if valid_batches is not None:
            valid = evaluate_teacher_forced(model, valid_batches)
            meta.last_valid_acc = valid["accuracy"]
            meta.best_valid_loss = min(best, valid["loss"])
        save_checkpoint(out_dir / "last.ckpt", model, state, tcfg, meta)
        if meta.best_valid_loss < best:  # the same bytes: link them, not write them again
            try:
                link_checkpoint(out_dir / "last.ckpt", out_dir / "best.ckpt")
            except OSError:
                save_checkpoint(out_dir / "best.ckpt", model, state, tcfg, meta)
        log.info(
            "epoch %d/%d [%s] loss %.4f acc %.4f%s",
            epoch + 1, total_epochs, phase, stats["loss"], stats["accuracy"],
            f" valid_acc {meta.last_valid_acc:.4f}" if meta.last_valid_acc is not None else "",
        )
    if valid_batches is None:
        meta.epochs_done = total_epochs or meta.epochs_done  # as loaded when no epochs are set
        save_checkpoint(out_dir / "best.ckpt", model, state, tcfg, meta)

    report.steps = state.t
    report.write(metrics_path)
    return report


def cmd_train(args) -> int:
    run_cfg = load_config(args.config)
    if args.seed is not None:
        run_cfg.seed = args.seed
        run_cfg.train.seed = args.seed
    report = run_training(run_cfg, args.out, resume=args.resume)
    print(f"training finished (final-phase step {report.steps}); outputs in {args.out}")
    return 0


def _read_checkpoint(path, restore=build_model):
    """The checkpoint at ``path`` and ``restore`` of it: by default its
    float32 model for inference, or ``restore_training``'s float64 model and
    optimizer; a file that cannot be read or does not hold them is a
    ConfigError that names it."""
    try:
        ckpt = load_checkpoint(path)
        return ckpt, restore(ckpt)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        detail = str(exc)
        if str(path) not in detail:
            detail = f"corrupt checkpoint {path}: {detail}"
        raise ConfigError(detail) from exc


# ---------------------------------------------------------------------------
# translate / evaluate / export-attention


def _load_model_and_vocabs(path):
    """The float32 model and the vocabularies at ``path``.  The checkpoint's
    Adam moments are mapped but never read, so they are never paged in; the
    mapping goes with the rest of the checkpoint before any decoding."""
    ckpt, model = _read_checkpoint(path)
    src, tgt = ckpt.meta.src_vocab_tokens, ckpt.meta.tgt_vocab_tokens
    if src is None or tgt is None:
        raise ConfigError(f"checkpoint {path} holds no vocabularies")
    vocabs = Vocabulary(src), Vocabulary(tgt)
    sizes = model.config.src_vocab, model.config.tgt_vocab
    for side, vocab, size in zip(("src", "tgt"), vocabs, sizes):
        if len(vocab) != size:
            raise ConfigError(
                f"corrupt checkpoint {path}: {side}_vocab_tokens make a vocabulary of "
                f"{len(vocab)}, but the model's {side}_vocab is {size}"
            )
    return (model, *vocabs)


def _beam_config(args) -> BeamConfig:
    """The beam flags over ``BeamConfig``'s defaults; a bad value is a
    ConfigError, raised before any checkpoint is read."""
    flags = {"width": args.beam, "length_alpha": args.alpha, "max_len": args.max_len}
    try:
        return BeamConfig(**{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"invalid beam flags: {exc}") from exc


def _read_lines(path) -> list[str]:
    """The lines of the text file at ``path``; a file that cannot be read is
    a ConfigError that names it.  Bytes that are not UTF-8 become lone
    surrogates, so that ``_skips`` costs them their line, not the file."""
    try:
        return Path(path).read_bytes().decode("utf-8", "surrogateescape").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _check_out(path) -> None:
    """A ConfigError, before any decoding, unless ``path`` is None or names a
    file in a directory that exists."""
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ConfigError(f"cannot write {path}: not a file in an existing directory")


def _skips(model, line: str, what: str, line_no: int, action: str = "skipped") -> bool:
    """True, with a warning on stderr, when ``line`` holds bytes that are not
    UTF-8 or more tokens than the model takes: it appends EOS to a source
    and prepends BOS to a target."""
    limit = model.config.max_tokens
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        problem = "is not UTF-8"
    else:
        n = len(line.split())
        if n <= limit:
            return False
        problem = f"has {n} tokens, more than the model's limit of {limit}"
    print(f"warning: {what} line {line_no} {problem}; {action}", file=sys.stderr)
    return True


def decode_lines(model, src_vocab, lines, beam: BeamConfig | None):
    """Per source line, its tokens, its ids with EOS appended and its decoded
    output ids, or None for an empty or skipped line; and the numbers of the
    skipped lines.  With ``beam`` None nothing is decoded: the output ids
    are None."""
    decoded, skipped = [], []
    for line_no, line in enumerate(lines, 1):
        tokens = line.split()
        if _skips(model, line, "source", line_no):
            skipped.append(line_no)
            decoded.append(None)
        elif not tokens:
            decoded.append(None)
        else:
            ids = src_vocab.encode(tokens) + [EOS_ID]
            out_ids = None if beam is None else translate_ids(model, ids, beam)
            decoded.append((tokens, ids, out_ids))
    return decoded, skipped


def translate_lines(
    model, src_vocab, tgt_vocab, lines, beam: BeamConfig
) -> tuple[list[str], list[int]]:
    """One output line per input line, and the numbers of the lines skipped:
    an empty or skipped line gets an empty output line."""
    decoded, skipped = decode_lines(model, src_vocab, lines, beam)
    out = ["" if d is None else " ".join(tgt_vocab.decode(d[2])) for d in decoded]
    return out, skipped


def cmd_translate(args) -> int:
    beam = _beam_config(args)
    lines = _read_lines(args.input)
    _check_out(args.out)
    model, src_vocab, tgt_vocab = _load_model_and_vocabs(args.checkpoint)
    hyps, skipped = translate_lines(model, src_vocab, tgt_vocab, lines, beam)
    text = "".join(h + "\n" for h in hyps)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 1 if skipped else 0


def cmd_evaluate(args) -> int:
    beam = _beam_config(args)
    src_lines, ref_lines = _read_lines(args.src), _read_lines(args.ref)
    if len(src_lines) != len(ref_lines):
        raise ConfigError(
            f"{args.src} has {len(src_lines)} lines but {args.ref} has {len(ref_lines)}"
        )
    _check_out(args.out)
    model, src_vocab, tgt_vocab = _load_model_and_vocabs(args.checkpoint)
    hyps, skipped = translate_lines(model, src_vocab, tgt_vocab, src_lines, beam)
    bleu = corpus_bleu([h.split() for h in hyps], [r.split() for r in ref_lines])

    pairs = []
    for line_no, (s, r) in enumerate(zip(src_lines, ref_lines), 1):
        src, ref = s.split(), r.split()
        if _skips(model, r, "reference", line_no, "left out of token accuracy"):
            skipped.append(line_no)
        elif src and ref and line_no not in skipped:
            pairs.append((src, ref))
    batches = make_batches(ParallelCorpus(pairs), src_vocab, tgt_vocab, 32, sort_by_length=True)
    forced = evaluate_teacher_forced(model, batches)
    print(f"BLEU = {bleu:.2f}")
    print(f"token_accuracy = {forced['accuracy']:.4f}")
    if args.out:
        Path(args.out).write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
    return 1 if skipped else 0


def export_attention(model, src_vocab, tgt_vocab, lines, side: str, beam: BeamConfig):
    """Rows (sentence_id, position, token, hop, layer, weight) for one side,
    and the number of lines skipped."""
    decoded, skipped = decode_lines(
        model, src_vocab, lines, beam if side == "decoder" else None
    )
    rows = []
    for sent_id, entry in enumerate(decoded):
        if entry is None:
            continue
        tokens, src_ids, out_ids = entry
        src, src_mask = one_sentence(src_ids)
        with ad.no_grad():
            if side == "encoder":
                _, trace = model.encoder_output(model.encode(src, src_mask), src_mask)
            else:
                # force the decoded sequence to read its trace; position j
                # is labeled with the token predicted there
                tgt_in, tgt_mask = one_sentence([BOS_ID] + out_ids)
                trace = model.forward(src, src_mask, tgt_in, tgt_mask).decoder_trace
                tokens = tgt_vocab.decode(out_ids, strip_reserved=False)
        if trace is None:
            raise ValueError(f"{side} side has no self-attention fusion")
        labels = tokens + ["<eos>"]  # one per trace position
        rows += [
            (sent_id, pos, labels[pos], hop + 1, trace.first_layer + layer, w)
            for (pos, hop, layer), w in np.ndenumerate(trace.weights)
        ]
    return rows, len(skipped)


def write_trace_file(rows, path) -> None:
    lines = ["sentence_id\tposition\ttoken\thop\tlayer\tweight"]
    for sent, pos, token, hop, layer, w in rows:
        # 17 significant digits: a float64 weight survives the text round-trip
        # exactly, and so does the float32 weight of a float32 model
        lines.append(f"{sent}\t{pos}\t{token}\t{hop}\t{layer}\t{w:.17g}")
    Path(path).write_text("".join(l + "\n" for l in lines), encoding="utf-8")


def cmd_export_attention(args) -> int:
    beam = _beam_config(args)
    lines = _read_lines(args.input)
    out = args.out or "attention.tsv"
    _check_out(out)
    model, src_vocab, tgt_vocab = _load_model_and_vocabs(args.checkpoint)
    fusion = model.fusion
    sa_sides = [s for s in ("decoder", "encoder") if fusion.kind_for(s) == "self_attention"]
    if not sa_sides:
        raise ConfigError(
            "checkpoint has no self-attention fusion "
            f"(side={fusion.side}, enc={fusion.enc_kind}, dec={fusion.dec_kind})"
        )
    side = args.side or sa_sides[0]
    if side not in sa_sides:
        raise ConfigError(f"{side} side does not use self-attention fusion")
    rows, skipped = export_attention(model, src_vocab, tgt_vocab, lines, side, beam)
    write_trace_file(rows, out)
    print(f"wrote {len(rows)} weights to {out}")
    return 1 if skipped else 0


# ---------------------------------------------------------------------------
# param-count


def cmd_param_count(args) -> int:
    run_cfg = load_config(args.config)
    if run_cfg.data.task is not None:  # its vocabulary, checked against any pin, with no corpus
        n = len(synthetic_vocabulary(run_cfg.data.alphabet))
        model_cfg = run_cfg.model_config(n, n)
    else:
        try:
            model_cfg = run_cfg.model_config()
        except ConfigError:  # sizes not pinned: read the data files
            _, _, src_vocab, tgt_vocab = build_corpora(run_cfg.data, run_cfg.seed)
            model_cfg = run_cfg.model_config(len(src_vocab), len(tgt_vocab))
    groups = parameter_breakdown(param_specs(model_cfg, run_cfg.fusion))
    print(f"total\t{sum(groups.values())}")
    for group, n in groups.items():
        print(f"{group}\t{n}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlrf",
        description="Transformer NMT with multi-layer representation fusion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    beam = BeamConfig()

    def add_beam_flags(p):
        p.add_argument("--beam", type=int, default=None, help=f"beam width (default {beam.width})")
        p.add_argument(
            "--alpha", type=float, default=None,
            help=f"length normalization weight (default {beam.length_alpha})",
        )
        p.add_argument(
            "--max-len", type=int, default=None,
            help=f"maximum output length (default {beam.max_len}, "
            "capped at the model's max_len - 1)",
        )

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="run_out", help="output directory")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode a file of source sentences")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("input")
    p.add_argument("--out", default=None)
    add_beam_flags(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="BLEU and token accuracy against a reference")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("src")
    p.add_argument("ref")
    p.add_argument("--out", default=None, help="also write the hypotheses here")
    add_beam_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-attention", help="dump fusion hop/layer weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--side", choices=("encoder", "decoder"), default=None)
    add_beam_flags(p)
    p.set_defaults(func=cmd_export_attention)

    p = sub.add_parser("param-count", help="trainable parameter count for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_param_count)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MLRF_LOG_LEVEL", "INFO").upper()
    if not hasattr(logging, level):
        level = "INFO"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
