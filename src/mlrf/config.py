"""Run configuration files: a versioned INI file covering every knob.

Sections ``[run]`` (version, seed), ``[model]``, ``[fusion]``, ``[train]``
and ``[data]``.  A section's keys are the fields of its dataclass, typed by
their annotations (``fusion.field_types``, which ``check_types`` also reads
when a dataclass is built); a field with no default is a required key.
Exceptions: ``[model]`` calls ``n_layers``/``n_heads`` ``layers``/``heads``
and may leave out the vocabulary sizes, which are then derived from the
data; ``[train]``'s seed is ``[run]``'s.  Every config object is built, and
so checked, at load, and every unknown key or bad value is reported in one
error that names its section.  ``[data]`` is either a synthetic task
(task/alphabet/lengths/counts) or parallel text files.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, Field, asdict, dataclass, fields
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
from .fusion import FusionConfig, check_types, field_types
from .model import ModelConfig
from .training import TrainConfig

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration; message lists every offending key."""


@dataclass
class DataConfig:
    """A synthetic task or a pair of parallel text files (plus an optional
    validation pair); with neither there is nothing to train on, but vocab
    sizes pinned in ``[model]`` still describe the model."""

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

    def __post_init__(self):
        check_types(self)
        for src, tgt in (("train_src", "train_tgt"), ("valid_src", "valid_tgt")):
            if bool(getattr(self, src)) != bool(getattr(self, tgt)):
                raise ValueError(f"{src} and {tgt} must be set together")
        if self.task is not None:
            if self.train_src or self.valid_src:
                raise ValueError("set either task or file paths, not both")
            if self.train_count < 1 or self.valid_count < 0:
                raise ValueError("need train_count >= 1 and valid_count >= 0")
            self.synthetic(self.train_count, 0)  # checks task, alphabet, lengths
        if self.max_sentence_len < 1 or self.max_vocab < 1:
            raise ValueError("max_sentence_len and max_vocab must be >= 1")

    def synthetic(self, count: int, seed: int) -> SyntheticTaskSpec:
        """This section's synthetic task: ``count`` pairs drawn from ``seed``."""
        return SyntheticTaskSpec(
            self.task, self.alphabet, self.min_len, self.max_len, count, seed
        )


@dataclass
class RunConfig:
    seed: int
    model: dict  # ModelConfig fields; vocab sizes 0 = derive from the data
    fusion: FusionConfig
    train: TrainConfig
    data: DataConfig

    def model_config(self, src_vocab: int | None = None, tgt_vocab: int | None = None) -> ModelConfig:
        """The model's config, with the vocabulary sizes derived from the data
        where given; a size pinned in ``[model]`` must equal the derived one,
        or ids would fall outside the embedding table or the vocabulary."""
        kw = dict(self.model)
        for key, derived in (("src_vocab", src_vocab), ("tgt_vocab", tgt_vocab)):
            if derived is None:
                continue
            if kw.get(key, 0) not in (0, derived):
                raise ConfigError(
                    f"[model] {key} = {kw[key]} does not match the {derived} tokens "
                    f"of the vocabulary derived from [data]"
                )
            kw[key] = derived
        if kw.get("src_vocab", 0) <= 0 or kw.get("tgt_vocab", 0) <= 0:
            raise ConfigError(
                "vocabulary sizes unavailable: set model.src_vocab/tgt_vocab "
                "or provide a [data] section they can be derived from"
            )
        return ModelConfig(**kw)


@dataclass
class _RunSection:
    """``[run]``: the file format version and the run seed."""

    version: int = CONFIG_VERSION
    seed: int = 1

    def __post_init__(self):
        check_types(self)
        if self.version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {self.version}")


_SECTIONS = {
    "run": _RunSection,
    "model": ModelConfig,
    "fusion": FusionConfig,
    "train": TrainConfig,
    "data": DataConfig,
}
_MODEL_KEYS = {"n_layers": "layers", "n_heads": "heads"}  # fields under a shorter key
_PRESET = {"model": {"src_vocab": 0, "tgt_vocab": 0}}  # optional: 0 = derive from [data]
_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def section_keys(section: str) -> dict[str, tuple[Field, type]]:
    """``[section]``'s keys, each with its dataclass field and scalar type."""
    cls = _SECTIONS[section]
    keys = {}
    for f in fields(cls):
        if section == "train" and f.name == "seed":
            continue  # the run seed, from [run]
        key = _MODEL_KEYS.get(f.name, f.name) if section == "model" else f.name
        keys[key] = (f, field_types(cls)[f.name][0])
    return keys


def _parse_section(parser, section: str, errors: list[str]) -> dict:
    """Field name -> value for each key set in ``[section]``, over the
    preset vocab sizes; an unknown, ill-typed or missing required key is
    added to ``errors``."""
    keys = section_keys(section)
    out = dict(_PRESET.get(section, {}))
    raw_items = parser.items(section) if parser.has_section(section) else []
    for key, raw in raw_items:
        if key not in keys:
            errors.append(f"[{section}] unknown key {key!r}")
            continue
        f, typ = keys[key]
        try:
            out[f.name] = _BOOL[raw.strip().lower()] if typ is bool else typ(raw)
        except (KeyError, ValueError):
            errors.append(f"[{section}] {key} = {raw!r} is not a valid {typ.__name__}")
    for key, (f, _) in keys.items():
        if f.name not in out and f.default is MISSING and f.default_factory is MISSING:
            errors.append(f"[{section}] missing required key {key!r}")
    return out


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # say, a directory or bytes that are not UTF-8
        detail = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {path}: {detail}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"invalid config: {exc}") from exc

    errors = [f"unknown section [{s}]" for s in parser.sections() if s not in _SECTIONS]
    built = {}
    for section, cls in _SECTIONS.items():
        n_errors = len(errors)
        kw = _parse_section(parser, section, errors)
        if len(errors) > n_errors:
            continue
        try:
            built[section] = cls(**kw)
        except ValueError as exc:
            errors.append(f"[{section}] {exc}")
    if "model" in built and "data" in built:
        errors += _length_errors(built["model"], built["data"])
    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))
    seed = built["run"].seed
    built["train"].seed = seed
    return RunConfig(
        seed=seed,
        model=asdict(built["model"]),
        fusion=built["fusion"],
        train=built["train"],
        data=built["data"],
    )


def _length_errors(model: ModelConfig, data: DataConfig) -> list[str]:
    """Lengths the model cannot hold: a data sentence longer than its
    ``max_tokens``."""
    errors = []
    if data.task is not None:
        key, longest = "max_len", data.max_len
    elif data.train_src:
        key, longest = "max_sentence_len", data.max_sentence_len
    else:
        key, longest = None, 0  # no data configured
    if key is not None and longest > model.max_tokens:
        errors.append(
            f"[model] max_len = {model.max_len} is below [data] {key} = {longest} "
            f"plus one BOS/EOS slot"
        )
    return errors


def build_corpora(
    cfg: DataConfig, seed: int
) -> tuple[ParallelCorpus, ParallelCorpus | None, Vocabulary, Vocabulary]:
    """Materialize train/valid corpora and vocabularies for a run."""
    if cfg.task is not None:
        train = generate_synthetic(cfg.synthetic(cfg.train_count, seed))
        valid = None
        if cfg.valid_count > 0:
            valid = generate_synthetic(cfg.synthetic(cfg.valid_count, seed + 1))
        vocab = synthetic_vocabulary(cfg.alphabet)
        return train, valid, vocab, vocab

    if not cfg.train_src:
        raise ConfigError("[data] needs either task=... or train_src/train_tgt files")

    def load(src, tgt) -> ParallelCorpus:
        try:
            return load_parallel_text(src, tgt, cfg.max_sentence_len)
        except OSError as exc:
            raise ConfigError(f"cannot read [data] file {exc.filename}: {exc.strerror}") from exc
        except ValueError as exc:  # unequal line counts, or bytes that are not UTF-8
            raise ConfigError(f"cannot read [data] files {src} / {tgt}: {exc}") from exc

    train = load(cfg.train_src, cfg.train_tgt)
    valid = load(cfg.valid_src, cfg.valid_tgt) if cfg.valid_src else None
    src_vocab = build_vocab(train.sources(), cfg.max_vocab)
    tgt_vocab = build_vocab(train.targets(), cfg.max_vocab)
    return train, valid, src_vocab, tgt_vocab
