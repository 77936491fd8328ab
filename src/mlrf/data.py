"""Vocabulary, corpus ingestion, synthetic tasks, and padded batching.

Text is whitespace-tokenized, one sentence per line.  Four ids are reserved:
0=PAD, 1=BOS, 2=EOS, 3=UNK; content tokens start at id 4.  Target batches are
teacher-forcing pairs: ``tgt_in`` is BOS-shifted, ``tgt_out`` ends with EOS.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


class Vocabulary:
    """Bidirectional token/id map over the reserved ids."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._tokens: list[str] = list(RESERVED)
        self._ids: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        if token in self._ids:
            return self._ids[token]
        self._ids[token] = len(self._tokens)
        self._tokens.append(token)
        return self._ids[token]

    def __len__(self) -> int:
        return len(self._tokens)

    def id(self, token: str) -> int:
        """The id of ``token`` read from text: UNK_ID when it is unknown, and
        also when it spells a reserved marker, so a literal ``<pad>`` or
        ``<eos>`` in a sentence is never taken for padding or an end."""
        return UNK_ID if token in RESERVED else self._ids.get(token, UNK_ID)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    def decode(self, ids: Sequence[int], strip_reserved: bool = True) -> list[str]:
        toks = [self._tokens[i] for i in ids]
        if strip_reserved:
            toks = [t for t in toks if t not in RESERVED]
        return toks


def build_vocab(lines: Iterable[Sequence[str]], max_size: int | None = None) -> Vocabulary:
    """Frequency-ranked vocabulary, ties broken lexicographically.

    ``max_size`` caps the number of content tokens (reserved ids are always
    present on top of it).  The reserved strings are not counted: text that
    spells them encodes as UNK_ID.
    """
    counts = Counter()
    for tokens in lines:
        counts.update(tokens)
    for token in RESERVED:
        counts.pop(token, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_size is not None:
        ranked = ranked[:max_size]
    return Vocabulary(tok for tok, _ in ranked)


# ---------------------------------------------------------------------------
# corpora


@dataclass
class ParallelCorpus:
    pairs: list[tuple[list[str], list[str]]]

    def __len__(self) -> int:
        return len(self.pairs)

    def sources(self):
        return (src for src, _ in self.pairs)

    def targets(self):
        return (tgt for _, tgt in self.pairs)


def load_parallel_text(src_path, tgt_path, max_len: int = 50) -> ParallelCorpus:
    """Read aligned sentence files, dropping pairs longer than ``max_len``."""
    src_lines = Path(src_path).read_text(encoding="utf-8").splitlines()
    tgt_lines = Path(tgt_path).read_text(encoding="utf-8").splitlines()
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs = []
    for src, tgt in zip(src_lines, tgt_lines):
        s, t = src.split(), tgt.split()
        if s and t and len(s) <= max_len and len(t) <= max_len:
            pairs.append((s, t))
    if not pairs:
        log.warning("no usable sentence pairs in %s / %s", src_path, tgt_path)
    return ParallelCorpus(pairs)


@dataclass(frozen=True)
class SyntheticTaskSpec:
    task: str  # copy | reverse
    alphabet: int = 20
    min_len: int = 3
    max_len: int = 10
    count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("copy", "reverse"):
            raise ValueError(f"unknown synthetic task {self.task!r}")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if self.alphabet < 1 or self.count < 1:
            raise ValueError("alphabet and count must be positive")


def synthetic_vocabulary(alphabet: int) -> Vocabulary:
    """The full symbol set of a synthetic task, whichever symbols are sampled."""
    return Vocabulary(f"s{i}" for i in range(alphabet))


def generate_synthetic(spec: SyntheticTaskSpec) -> ParallelCorpus:
    """Random symbol sequences; target is the source (copy) or its reverse."""
    rng = np.random.default_rng(spec.seed)
    symbols = [f"s{i}" for i in range(spec.alphabet)]
    pairs = []
    for _ in range(spec.count):
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = [symbols[int(i)] for i in rng.integers(0, spec.alphabet, size=n)]
        tgt = src[::-1] if spec.task == "reverse" else list(src)
        pairs.append((src, tgt))
    return ParallelCorpus(pairs)


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """PAD-padded id matrices plus boolean masks (True on real tokens)."""

    src: np.ndarray  # [B x max_src_len], source tokens + EOS
    tgt_in: np.ndarray  # [B x max_tgt_len], BOS + target tokens
    tgt_out: np.ndarray  # [B x max_tgt_len], target tokens + EOS
    src_mask: np.ndarray
    tgt_mask: np.ndarray

    def __len__(self) -> int:
        return self.src.shape[0]


def encode_pair(src_tokens, tgt_tokens, src_vocab, tgt_vocab):
    """Id sequences for one pair: source gets EOS, target gets BOS/EOS."""
    src = src_vocab.encode(src_tokens) + [EOS_ID]
    tgt = tgt_vocab.encode(tgt_tokens)
    return src, [BOS_ID] + tgt, tgt + [EOS_ID]


def _pad(rows: list[list[int]]) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def make_batches(
    corpus: ParallelCorpus,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    batch_size: int,
    shuffle_seed=None,  # anything np.random.default_rng accepts
    sort_by_length: bool = False,
) -> list[Batch]:
    """Split a corpus into padded batches of ``batch_size`` sentences.

    ``sort_by_length`` buckets similar lengths together (less padding);
    shuffling, when requested, happens before bucketing and batch order is
    itself shuffled so short sentences do not always lead an epoch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    pairs = list(corpus.pairs)
    rng = np.random.default_rng(shuffle_seed) if shuffle_seed is not None else None
    if rng is not None:
        rng.shuffle(pairs)
    if sort_by_length:
        pairs.sort(key=lambda p: (len(p[0]), len(p[1])))
    chunks = [pairs[i : i + batch_size] for i in range(0, len(pairs), batch_size)]
    if sort_by_length and rng is not None:
        rng.shuffle(chunks)
    batches = []
    for chunk in chunks:
        encoded = [encode_pair(s, t, src_vocab, tgt_vocab) for s, t in chunk]
        src = _pad([e[0] for e in encoded])
        tgt_in = _pad([e[1] for e in encoded])
        tgt_out = _pad([e[2] for e in encoded])
        batches.append(
            Batch(src, tgt_in, tgt_out, src != PAD_ID, tgt_out != PAD_ID)
        )
    return batches
