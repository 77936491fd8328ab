"""Run configuration files: a versioned INI schema covering every knob.

Sections: ``[run]`` (version, seed), ``[model]``, ``[fusion]``, ``[train]``
and ``[data]``.  Unknown or ill-typed keys are reported together in one
validation error.  ``[data]`` is either a synthetic task
(task/alphabet/lengths/counts) or parallel text files; vocabulary sizes in
``[model]`` are optional and otherwise derived from the data.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .data import (
    ParallelCorpus,
    SyntheticTaskSpec,
    Vocabulary,
    build_vocab,
    generate_synthetic,
    load_parallel_text,
    synthetic_vocabulary,
)
from .fusion import FusionConfig
from .model import ModelConfig
from .training import TrainConfig

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration; message lists every offending key."""


@dataclass
class DataConfig:
    task: str | None = None  # copy | reverse, or None for file data
    alphabet: int = 20
    min_len: int = 3
    max_len: int = 10
    train_count: int = 1000
    valid_count: int = 200
    train_src: str | None = None
    train_tgt: str | None = None
    valid_src: str | None = None
    valid_tgt: str | None = None
    max_sentence_len: int = 50
    max_vocab: int = 30000


@dataclass
class RunConfig:
    seed: int
    model: dict  # ModelConfig fields except vocab sizes (0 = derive)
    fusion: FusionConfig
    train: TrainConfig
    data: DataConfig

    def model_config(self, src_vocab: int | None = None, tgt_vocab: int | None = None) -> ModelConfig:
        kw = dict(self.model)
        if src_vocab is not None:
            kw["src_vocab"] = src_vocab
        if tgt_vocab is not None:
            kw["tgt_vocab"] = tgt_vocab
        if kw.get("src_vocab", 0) <= 0 or kw.get("tgt_vocab", 0) <= 0:
            raise ConfigError(
                "vocabulary sizes unavailable: set model.src_vocab/tgt_vocab "
                "or provide a [data] section they can be derived from"
            )
        return ModelConfig(**kw)


_SCHEMA = {
    "run": {"version": int, "seed": int},
    "model": {
        "layers": int,
        "d_model": int,
        "d_ff": int,
        "heads": int,
        "max_len": int,
        "dropout": float,
        "src_vocab": int,
        "tgt_vocab": int,
    },
    "fusion": {
        "side": str,
        "enc_kind": str,
        "dec_kind": str,
        "n_hop": int,
        "d_a": int,
        "d_f": int,
        "include_embedding": bool,
        "share_w1": bool,
        "share_layer_embedding": bool,
    },
    "train": {
        "epochs_phase1": int,
        "epochs_phase2": int,
        "batch_phase1": int,
        "batch_phase2": int,
        "warmup_steps": int,
        "restart_lr": float,
        "beta1": float,
        "beta2": float,
        "adam_eps": float,
        "clip_norm": float,
        "log_every": int,
    },
    "data": {
        "task": str,
        "alphabet": int,
        "min_len": int,
        "max_len": int,
        "train_count": int,
        "valid_count": int,
        "train_src": str,
        "train_tgt": str,
        "valid_src": str,
        "valid_tgt": str,
        "max_sentence_len": int,
        "max_vocab": int,
    },
}

_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_section(parser, section: str, errors: list[str]) -> dict:
    out = {}
    if not parser.has_section(section):
        return out
    schema = _SCHEMA[section]
    for key, raw in parser.items(section):
        if key not in schema:
            errors.append(f"[{section}] unknown key {key!r}")
            continue
        typ = schema[key]
        try:
            if typ is bool:
                out[key] = _BOOL[raw.strip().lower()]
            else:
                out[key] = typ(raw)
        except (KeyError, ValueError):
            errors.append(f"[{section}] {key} = {raw!r} is not a valid {typ.__name__}")
    return out


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"invalid config: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
    run = _parse_section(parser, "run", errors)
    model = _parse_section(parser, "model", errors)
    fusion = _parse_section(parser, "fusion", errors)
    train = _parse_section(parser, "train", errors)
    data = _parse_section(parser, "data", errors)

    version = run.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        errors.append(f"[run] unsupported config version {version}")
    for key in ("layers", "d_model", "d_ff", "heads", "max_len"):
        if key not in model:
            errors.append(f"[model] missing required key {key!r}")
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    model_kw = {
        "n_layers": model["layers"],
        "d_model": model["d_model"],
        "d_ff": model["d_ff"],
        "n_heads": model["heads"],
        "max_len": model["max_len"],
        "dropout": model.get("dropout", 0.0),
        "src_vocab": model.get("src_vocab", 0),
        "tgt_vocab": model.get("tgt_vocab", 0),
    }
    try:
        fusion_cfg = FusionConfig(**fusion)
        train_cfg = TrainConfig(seed=run.get("seed", 1), **train)
        data_cfg = DataConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    errors = _length_errors(model_kw["max_len"], data_cfg)
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return RunConfig(
        seed=run.get("seed", 1),
        model=model_kw,
        fusion=fusion_cfg,
        train=train_cfg,
        data=data_cfg,
    )


def _length_errors(model_max: int, data: DataConfig) -> list[str]:
    """Lengths the model cannot hold: a data sentence plus its EOS (source)
    or BOS (target) slot."""
    errors = []
    if data.task is not None:
        key, longest = "max_len", data.max_len
    elif data.train_src or data.train_tgt:
        key, longest = "max_sentence_len", data.max_sentence_len
    else:
        key, longest = None, 0  # no data configured
    if key is not None and model_max < longest + 1:
        errors.append(
            f"[model] max_len = {model_max} is below [data] {key} = {longest} "
            f"plus one BOS/EOS slot"
        )
    return errors


def build_corpora(
    cfg: DataConfig, seed: int
) -> tuple[ParallelCorpus, ParallelCorpus | None, Vocabulary, Vocabulary]:
    """Materialize train/valid corpora and vocabularies for a run."""
    if cfg.task is not None:
        base = SyntheticTaskSpec(
            task=cfg.task,
            alphabet=cfg.alphabet,
            min_len=cfg.min_len,
            max_len=cfg.max_len,
            count=cfg.train_count,
            seed=seed,
        )
        train = generate_synthetic(base)
        valid = None
        if cfg.valid_count > 0:
            valid = generate_synthetic(
                SyntheticTaskSpec(
                    task=cfg.task,
                    alphabet=cfg.alphabet,
                    min_len=cfg.min_len,
                    max_len=cfg.max_len,
                    count=cfg.valid_count,
                    seed=seed + 1,
                )
            )
        vocab = synthetic_vocabulary(cfg.alphabet)
        return train, valid, vocab, vocab

    if not (cfg.train_src and cfg.train_tgt):
        raise ConfigError("[data] needs either task=... or train_src/train_tgt files")
    train = load_parallel_text(cfg.train_src, cfg.train_tgt, cfg.max_sentence_len)
    valid = None
    if cfg.valid_src and cfg.valid_tgt:
        valid = load_parallel_text(cfg.valid_src, cfg.valid_tgt, cfg.max_sentence_len)
    src_vocab = build_vocab(train.sources(), cfg.max_vocab)
    tgt_vocab = build_vocab(train.targets(), cfg.max_vocab)
    return train, valid, src_vocab, tgt_vocab
