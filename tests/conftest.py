"""Shared fixtures and small factories for the test suite."""

import ctypes
import gc
import json
import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from mlrf import autodiff as ad
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


def rewrite_header(path, edit) -> None:
    """Rewrite the JSON header of the checkpoint at ``path`` in place:
    ``edit(header)`` changes the parsed header, which is then written back
    into the same padded length, so the data keeps its offset."""
    magic, width, rest = Path(path).read_bytes().split(b"\n", 2)
    n = int(width)
    header = json.loads(rest[:n])
    edit(header)
    body = json.dumps(header).encode("utf-8").ljust(n)
    assert len(body) == n
    Path(path).write_bytes(b"\n".join([magic, width, body + rest[n:]]))


def read_trace_file(path):
    """Parse an attention trace file (``cli.write_trace_file``) into typed rows."""
    rows = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        sent, pos, token, hop, layer, w = line.split("\t")
        rows.append((int(sent), int(pos), token, int(hop), int(layer), float(w)))
    return rows

# ---------------------------------------------------------------------------
# Ops the model no longer calls: the unfused chains that the fused ops of
# ``mlrf.autodiff`` replaced, kept as references for their tests.


def as_tensor(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else ad.Tensor(x)


def reshape(x: ad.Tensor, shape: Sequence[int]) -> ad.Tensor:
    old = x.shape
    return ad._make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def scale(x: ad.Tensor, c: float) -> ad.Tensor:
    c = float(c)
    return ad._make(x.data * c, (x,), lambda g: (g * c,))


def sum_(x: ad.Tensor, axis: int | None = None) -> ad.Tensor:
    data = x.data.sum(axis=axis)
    shape = x.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return ad._make(data, (x,), vjp)


def slice_(x: ad.Tensor, key) -> ad.Tensor:
    """Ints, slices, a boolean mask or integer arrays over the leading axes.

    The result never aliases ``x``: a view is copied, while a mask or an
    integer array already gives a new array.  Backward scatters into a zero
    buffer, summing the rows that an integer array repeats."""
    data = x.data[key]
    if np.may_share_memory(data, x.data):
        data = data.copy()
    shape = x.shape
    keys = key if isinstance(key, tuple) else (key,)
    repeats = any(np.ndim(k) > 0 and np.asarray(k).dtype.kind != "b" for k in keys)

    def vjp(g):
        buf = np.zeros(shape)
        if repeats:
            np.add.at(buf, key, g)
        else:
            buf[key] += g
        return (buf,)

    return ad._make(data, (x,), vjp)


def tanh(x: ad.Tensor) -> ad.Tensor:
    """Elementwise tanh; backward reads only the output (``1 - y**2``)."""
    y = np.tanh(x.data)

    def vjp(g):
        d = y * y
        np.subtract(1.0, d, out=d)
        d *= g
        return (d,)

    return ad._make(y, (x,), vjp)


def relu(x: ad.Tensor) -> ad.Tensor:
    """Elementwise relu; backward reads only the output: its mask is ``y > 0``
    (a NaN passes on, with a zero gradient)."""
    y = np.maximum(x.data, 0.0)
    return ad._make(y, (x,), lambda g: (g * (y > 0),))


def linear(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor | None = None) -> ad.Tensor:
    """Dense layer ``x @ w + b`` over the last axis of ``x``, as one node;
    ``b`` None adds no bias.

    One GEMM runs over the flattened rows of ``x``, and the bias is added in
    place into its output, so the tape holds that one array.
    """
    if (
        w.data.ndim != 2
        or x.shape[-1:] != w.shape[:1]
        or (b is not None and b.shape != w.shape[1:])
    ):
        bias = "" if b is None else f" + {b.shape}"
        raise ValueError(f"linear shape mismatch: {x.shape} x {w.shape}{bias}")
    rows = x.data.reshape(-1, x.shape[-1])
    y = ad._affine(rows, w, b)

    def vjp(g):
        dx, *rest = ad._affine_vjp(g.reshape(-1, g.shape[-1]), rows, w, b)
        return (dx.reshape(x.shape), *rest)

    parents = (x, w) if b is None else (x, w, b)
    return ad._make(y.reshape(x.shape[:-1] + w.shape[1:]), parents, vjp)


def fusion_tail(x, w1, b1, w2, b2, gain, bias) -> ad.Tensor:
    """``layer_norm(relu(x @ w1 + b1) @ w2 + b2)`` as the ``linear`` + relu,
    ``linear`` and ``layer_norm`` chain that the residual-free
    ``ffn_residual_layer_norm`` node replaced in the fusion layer."""
    return ad.layer_norm(linear(relu(linear(x, w1, b1)), w2, b2), gain, bias)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> ad.Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return unbroadcast(g, a.shape), unbroadcast(g, b.shape)

    return ad._make(data, (a, b), vjp)


def transpose(x: ad.Tensor, axes: Sequence[int] | None = None) -> ad.Tensor:
    """Permute axes (reverse them when ``axes`` is None), as ``np.transpose``."""
    axes = tuple(reversed(range(x.data.ndim))) if axes is None else tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ValueError(f"transpose axes {axes} do not permute shape {x.shape}")
    inverse = tuple(np.argsort(axes))
    return ad._make(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def stack(tensors: Sequence[ad.Tensor], axis: int = 0) -> ad.Tensor:
    """Join equal-shaped tensors along a new ``axis``, as ``np.stack``."""
    ts = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in ts], axis=axis)
    return ad._make(data, ts, lambda g: tuple(np.moveaxis(g, axis, 0)))


def dropout(
    x: ad.Tensor, rate: float, rng: np.random.Generator, mask: np.ndarray | None = None
) -> ad.Tensor:
    """Inverted dropout with the mask of ``dropout_keep``; identity at rate 0."""
    keep = ad.dropout_keep(x.shape, rate, rng, mask)
    if keep is None:
        return x
    return ad._make(
        ad._dropped(x.data, keep, rate), (x,), lambda g: (ad._dropped(g, keep, rate),)
    )


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Matrix product over the last two axes.

    ``a`` may carry leading batch axes.  A 2-D ``b`` (a weight) multiplies
    every row of ``a``, and its gradient is one GEMM over the flattened rows;
    otherwise ``b`` must carry the same batch axes as ``a``.
    """
    a, b = as_tensor(a), as_tensor(b)
    batched = b.data.ndim > 2 and b.shape[:-2] == a.shape[:-2]
    if a.data.ndim < 2 or not (b.data.ndim == 2 or batched) or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    if b.data.ndim == 2:
        rows = a.data.reshape(-1, a.shape[-1])
        data = (rows @ b.data).reshape(a.shape[:-1] + b.shape[-1:])

        def vjp(g):
            g = g.reshape(-1, g.shape[-1])
            return (g @ b.data.T).reshape(a.shape), rows.T @ g

        return ad._make(data, (a, b), vjp)

    def batched_vjp(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return ad._make(a.data @ b.data, (a, b), batched_vjp)


def embedding_lookup(table: ad.Tensor, ids) -> ad.Tensor:
    """Gather rows of ``table``; backward scatter-adds into the table grad."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    rows = table.shape[0]

    def vjp(g):
        buf = np.zeros((rows,) + g.shape[ids.ndim :])
        np.add.at(buf, ids, g)
        return (buf,)

    return ad._make(table.data[ids], (table,), vjp)


def softmax(x: ad.Tensor, axis: int = -1) -> ad.Tensor:
    """Softmax along ``axis`` with max-subtraction; slices sum to one."""
    if axis >= x.data.ndim:
        raise ValueError(f"softmax axis {axis} out of range for shape {x.shape}")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def vjp(g):
        gy = g * y
        dx = y * gy.sum(axis=axis, keepdims=True)
        np.subtract(gy, dx, out=dx)
        return (dx,)

    return ad._make(y, (x,), vjp)


def residual_layer_norm(
    x: ad.Tensor,
    sub: ad.Tensor,
    gain: ad.Tensor,
    bias: ad.Tensor,
    keep: np.ndarray | None = None,
    rate: float = 0.0,
    eps: float = 1e-6,
) -> ad.Tensor:
    """``layer_norm(x + dropout(sub))`` as one node.

    ``keep`` is the boolean mask ``dropout_keep`` drew at ``rate`` (None: no
    dropout).  The residual sum is normalized in place, so the tape holds the
    output and the mask where the unfused chain holds the dropout output, the
    sum and the norm output.
    """
    if x.shape != sub.shape:
        raise ValueError(f"residual shape mismatch: {x.shape} + {sub.shape}")
    if keep is None:
        s = x.data + sub.data
    else:
        s = ad._dropped(sub.data, keep, rate)
        s += x.data
    data, xhat, inv = ad._norm_forward(s, gain.data, bias.data, eps, out=s)

    def vjp(g):
        ds, dgain, dbias = ad._norm_vjp(g, xhat, inv, gain.data)
        return ds, ds if keep is None else ad._dropped(ds, keep, rate), dgain, dbias

    return ad._make(data, (x, sub, gain, bias), vjp)


def attention(
    q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, n_heads: int, mask: np.ndarray | None = None
) -> ad.Tensor:
    """Scaled dot-product attention over ``n_heads`` splits of the width, as
    one node; returns the merged heads, [B x Lq x d].

    ``q`` is [B x Lq x d] and ``k``, ``v`` are [B x Lk x d]; heads are views
    [B x H x L x d/H] of them.  The scores are ``(q . k^T) * 1/sqrt(d/H)``;
    ``mask`` is boolean, broadcasts to [B x 1 x Lq x Lk], and its False
    entries then get an ``ad.MASK_PENALTY`` added, which underflows to an exact
    zero weight after the softmax.  A row with no allowed key gets the same
    penalty on every score, so it keeps its unmasked weights up to the
    penalty's rounding (about 1e-7 in float64).  The tape holds the softmax
    probabilities beside the output; backward reads them and the three
    inputs.
    """
    b, lq, d = q.shape
    lk = k.shape[1]
    if d % n_heads or k.shape != (b, lk, d) or v.shape != k.shape:
        raise ValueError(
            f"attention shape mismatch: {q.shape}/{k.shape}/{v.shape}, {n_heads} heads"
        )
    full = (b, 1, lq, lk)
    if mask is not None and (
        mask.ndim != 4 or any(m not in (1, n) for m, n in zip(mask.shape, full))
    ):
        raise ValueError(f"mask shape {mask.shape} does not broadcast to {full}")
    dh = d // n_heads
    qh = q.data.reshape(b, lq, n_heads, dh).transpose(0, 2, 1, 3)
    kt = k.data.reshape(b, lk, n_heads, dh).transpose(0, 2, 3, 1)
    vh = v.data.reshape(b, lk, n_heads, dh).transpose(0, 2, 1, 3)
    c = 1.0 / math.sqrt(dh)
    p = qh @ kt
    p *= c
    if mask is not None:
        p += np.where(mask, 0.0, ad.MASK_PENALTY)
    ad._softmax(p)
    out = (p @ vh).transpose(0, 2, 1, 3).reshape(b, lq, d)

    def vjp(g):
        ds, dv = ad._attend_vjp(g.reshape(b, lq, n_heads, dh).transpose(0, 2, 1, 3), p, vh)
        ds *= c
        dq = ds @ kt.swapaxes(-1, -2)
        dk = qh.swapaxes(-1, -2) @ ds
        return (
            dq.transpose(0, 2, 1, 3).reshape(b, lq, d),
            dk.transpose(0, 3, 1, 2).reshape(b, lk, d),
            dv.transpose(0, 2, 1, 3).reshape(b, lk, d),
        )

    return ad._make(out, (q, k, v), vjp)


def dense_residual_layer_norm(
    x: ad.Tensor,
    h: ad.Tensor,
    w: ad.Tensor,
    b: ad.Tensor,
    gain: ad.Tensor,
    bias: ad.Tensor,
    keep: np.ndarray | None = None,
    rate: float = 0.0,
    eps: float = 1e-6,
) -> ad.Tensor:
    """``layer_norm(x + dropout(h @ w + b))`` as one node: a post-norm
    sublayer's output projection, residual sum and norm.

    ``h`` [..., k] is the sublayer's last hidden layer, ``w`` [k x d] and
    ``b`` [d] its output projection, and ``x`` [..., d] the residual input;
    ``keep`` is the boolean mask ``dropout_keep`` drew at ``rate`` (None: no
    dropout).  The dropout, the residual sum and the normalization overwrite
    the projection's buffer in place, so the tape holds the output, the
    normalized sum and the mask, and never the projection itself.
    """
    if (
        w.data.ndim != 2
        or h.shape[-1:] != w.shape[:1]
        or b.shape != w.shape[1:]
        or x.shape != h.shape[:-1] + w.shape[1:]
    ):
        raise ValueError(
            f"dense residual shape mismatch: {x.shape} + {h.shape} x {w.shape} + {b.shape}"
        )
    rows = h.data.reshape(-1, h.shape[-1])
    data, xhat, inv = ad._residual_norm(x, rows, w, b, gain, bias, keep, rate, eps)

    def vjp(g):
        dx, ds, dgain, dbias = ad._residual_norm_vjp(g, xhat, inv, gain, keep, rate)
        dh, dw, db = ad._affine_vjp(ds, rows, w, b)
        return dx, dh.reshape(h.shape), dw, db, dgain, dbias

    return ad._make(data, (x, h, w, b, gain, bias), vjp)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
