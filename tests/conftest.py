"""Shared fixtures and small factories for the test suite."""

import ctypes
import gc
import os
from pathlib import Path

import numpy as np
import pytest

from mlrf.data import Vocabulary
from mlrf.fusion import FusionConfig
from mlrf.model import ModelConfig, Transformer

TOY = dict(
    n_layers=2, d_model=8, d_ff=16, n_heads=2,
    src_vocab=11, tgt_vocab=11, max_len=8,
)


def toy_config(**overrides) -> ModelConfig:
    return ModelConfig(**{**TOY, **overrides})


def toy_fusion(side="none", kind="baseline", **overrides) -> FusionConfig:
    kw = dict(n_hop=3, d_a=16, d_f=12)
    kw.update(overrides)
    if side in ("encoder", "both"):
        kw["enc_kind"] = kind
    if side in ("decoder", "both"):
        kw["dec_kind"] = kind
    return FusionConfig(side=side, **kw)


def toy_model(side="none", kind="baseline", seed=3, **overrides) -> Transformer:
    return Transformer(toy_config(), toy_fusion(side, kind, **overrides), seed=seed)


def random_sentences(rng, count, max_len=5, vocab=11):
    """Packed (ids, lengths) with content ids in [4, vocab)."""
    lengths = [int(rng.integers(1, max_len + 1)) for _ in range(count)]
    ids = rng.integers(4, vocab, size=sum(lengths)).astype(np.int64)
    return ids, lengths


def padded(ids, lengths):
    """Packed (ids, lengths) as a padded batch: [B x max(lengths)] ids and mask."""
    mask = np.arange(max(lengths)) < np.asarray(lengths)[:, None]
    out = np.zeros(mask.shape, dtype=np.int64)
    out[mask] = ids
    return out, mask


def count_scalars(params) -> int:
    """Scalars in a ``ParamStore``."""
    return sum(t.size for _, t in params.items())


def save_vocab(vocab: Vocabulary, path) -> None:
    """One content token per line; line number equals id - 4."""
    tokens = vocab.decode(range(4, len(vocab)), strip_reserved=False)
    Path(path).write_text("".join(t + "\n" for t in tokens), encoding="utf-8")


def load_vocab(path) -> Vocabulary:
    return Vocabulary(Path(path).read_text(encoding="utf-8").splitlines())


def per_prefix(fn):
    """A decoding step function ``step(tokens, parents)`` over a prefix-keyed
    oracle ``fn(prefix) -> [V]``: it rebuilds each row's BOS-prefixed prefix
    from its parent row of the previous call and calls ``fn`` on it."""
    rows: list[tuple[int, ...]] = []

    def step(tokens, parents):
        heads = [()] * len(tokens) if parents is None else [rows[p] for p in parents]
        rows[:] = [head + (int(tok),) for head, tok in zip(heads, tokens)]
        return np.stack([fn(prefix) for prefix in rows])

    return step


def resident_bytes() -> int:
    """This process's resident memory from ``/proc/self/statm`` (Linux),
    taken after a collection and, under glibc, ``malloc_trim(0)``: freed heap
    memory goes back to the OS first, so reusing it shows as growth."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


needs_statm = pytest.mark.skipif(
    not Path("/proc/self/statm").exists(), reason="resident memory is read from /proc/self/statm"
)


def read_trace_file(path):
    """Parse an attention trace file (``cli.write_trace_file``) into typed rows."""
    rows = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        sent, pos, token, hop, layer, w = line.split("\t")
        rows.append((int(sent), int(pos), token, int(hop), int(layer), float(w)))
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
