"""Dense float tensors with a reverse-mode gradient tape.

Everything downstream (attention, fusion, the training loop) is built from
the operations in this module.  The tape is define-by-run: each op records
its parents and a vector-Jacobian closure on the output tensor, and
``backward`` walks the graph once in reverse topological order.

Ops compute in the dtype of their inputs and allocate their results and
gradient buffers in it.  Training is float64 throughout, so gradient checks
against central finite differences are tight; a model built from float32
parameters (``checkpoint.build_model``) runs the same code in float32, for
inference.

Every op result stays on the tape until ``backward`` has passed it, so the
model's chains are fused into single ops that keep only what their backward
reads:

* ``embed``: a word-embedding lookup plus fixed positions, with dropout; it
  stores its output, the ids and the mask.
* ``attention_residual_layer_norm``: a whole post-norm attention sublayer,
  ``layer_norm(x + dropout(attention(x @ Wq + bq, k, v) @ Wo + bo))`` with
  keys and values projected from a source (``src @ Wk + bk``, ``src @ Wv +
  bv``) after any cached ones, heads split as views; it stores its output,
  the normalized sum, the dropout mask and the softmax probabilities, and
  backward recomputes the values, the merged heads, the query projection
  and the keys, one projection at a time.
* ``ffn_residual_layer_norm``: a whole post-norm FFN sublayer,
  ``layer_norm(x + dropout(relu(x @ W1 + b1) @ W2 + b2))``, or without
  ``x +`` the fusion layer's FNN and norm, as wide as W2; it stores its
  output, the normalized sum and the dropout mask, and backward recomputes
  the relu layer.
* ``gather_layers``: a stack of layer outputs side by side on the feature
  axis, optionally only its real rows.
* ``layer_attention``: the fusion layer's multi-hop attention over gathered
  layers; it stores its output and the hop weights, and backward
  recomputes the tanh hidden layer a block of positions at a time.
* ``cross_entropy``: the output projection and the mean negative
  log-likelihood, a row block of logits at a time; while the tape is live it
  forms its gradients in the forward pass and stores only them.
* ``layer_norm`` and ``mean_`` (over gathered layers).

Private kernels give each shared computation one implementation:
``_affine``/``_affine_vjp`` (``rows @ W + b``), ``_projection`` (an attention
sublayer's keys or values, which ``key_values`` also gives a decoder to
cache), ``_dropped`` (inverted dropout), ``_softmax`` (in place),
``_attend_vjp`` (the backward of a softmax-weighted sum),
``_norm_forward``/``_norm_vjp`` (layer norm), ``_residual_norm``/
``_residual_norm_vjp`` (a sublayer's dropout, residual sum and norm) and
``_row_blocks`` (near-equal row slices).

Dropout masks (``dropout_keep``) are boolean; an op scales the kept units by
the scalar ``1/(1 - rate)``.  An op writes in place only into arrays it
allocated, or, in backward, into what its own forward stored, since the tape
is single-use.  A VJP should allocate only the gradients it returns and what
it recomputes: its other intermediates go into those buffers or into what its
forward stored, a row block at a time where no such buffer is large enough.
``layer_attention`` (block by block) and ``cross_entropy`` (which allocates
nothing in backward) keep to this, and ``ffn_residual_layer_norm``
does for its [..., d_ff] arrays: the relu layer's gradient is written over
the recomputed layer.  ``attention_residual_layer_norm`` writes the merged
heads' gradient over the recomputed heads and drops the recomputed values
and their gradient before it recomputes the keys, but its query, score, key
and value gradients are arrays of their own.  The [..., d] temporaries of
the layer norm's VJP, and the other VJPs, still make arrays of their own.
"""

from __future__ import annotations

import contextlib
import logging
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording inside the block (used for decoding/eval)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus an optional slot on the gradient tape.

    ``grad`` is populated on leaf tensors (those created directly rather
    than by an op) after ``backward`` runs from a scalar loss.  Backward
    over separate graphs accumulates into ``grad``; the training loop
    zeroes parameter grads at every step.  ``data`` keeps a float32 array
    as it is and holds anything else as float64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap an op result, recording parents only when the tape is live."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# means, dropout, dense kernels, lookups and gathers


def mean_(x: Tensor, n: int) -> Tensor:
    """The mean of the ``n`` equal parts of the last axis of ``x``, as one
    node: their sum times ``1/n``."""
    c = 1.0 / n
    return _make(
        x.data.reshape(x.shape[:-1] + (n, -1)).sum(axis=-2) * c,
        (x,),
        lambda g: (np.concatenate([g * c] * n, axis=-1),),
    )


def dropout_keep(
    shape: tuple[int, ...],
    rate: float,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
) -> np.ndarray | None:
    """The inverted-dropout mask for an array of ``shape``: True on kept
    units; None at rate 0, with no draw.  Ops that take it scale the kept
    units by ``1/(1 - rate)`` (``_dropped``).

    With a boolean ``mask`` over the leading axes, the draw covers only the
    masked-in rows, in row-major order, and every other row is dropped.  A
    padded batch then consumes the generator exactly as its real tokens laid
    end to end would.
    """
    if rate <= 0.0:
        return None
    if mask is None:
        return rng.random(shape) >= rate
    keep = np.zeros(shape, dtype=bool)
    n = int(np.count_nonzero(mask))
    keep[mask] = rng.random((n,) + shape[mask.ndim :]) >= rate
    return keep


def _dropped(a: np.ndarray, keep: np.ndarray, rate: float, out=None) -> np.ndarray:
    """``a`` with the units ``keep`` drops zeroed and the rest scaled by
    ``1/(1 - rate)``, into ``out`` (a new array when None; it may be ``a``).
    Multiplying by the mask first gives the bits a scale of 1/(1 - rate) or 0
    gives."""
    out = np.multiply(a, keep, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


def _affine(rows: np.ndarray, w: Tensor, b: Tensor | None, out=None) -> np.ndarray:
    """``rows @ w + b`` over [n x k] ``rows``, into ``out`` (a new array when
    None); None adds no bias."""
    y = np.matmul(rows, w.data, out=out)
    if b is not None:
        y += b.data
    return y


def _affine_vjp(g: np.ndarray, rows: np.ndarray, w: Tensor, b: Tensor | None) -> tuple:
    """Gradients of ``_affine`` from [n x m] ``g``: rows, w, and b if given."""
    grads = (g @ w.data.T, rows.T @ g)
    return grads if b is None else grads + (g.sum(axis=0),)


def embed(
    table: Tensor,
    ids,
    positions: np.ndarray,
    keep: np.ndarray | None = None,
    rate: float = 0.0,
) -> Tensor:
    """``dropout(table[ids] + positions)`` as one node.

    ``ids`` is [B x L] and ``positions`` a fixed [L x d] array, added to
    every sentence; ``keep`` is the boolean mask ``dropout_keep`` drew at
    ``rate`` (None: no dropout).  The sum and the dropout are applied in
    place into the gathered rows, so the tape holds that one array and the
    closure the ids and the mask.  Backward scatter-adds into the table
    gradient.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise IndexError(
            f"embedding id out of range [0, {rows}): min={ids.min()}, max={ids.max()}"
        )
    if positions.shape != ids.shape[-1:] + table.shape[1:]:
        raise ValueError(f"positions {positions.shape} do not match ids {ids.shape}")
    out = table.data[ids]
    out += positions
    if keep is not None:
        _dropped(out, keep, rate, out=out)

    def vjp(g):
        if keep is not None:
            g = _dropped(g, keep, rate)
        buf = np.zeros(table.shape, table.data.dtype)
        np.add.at(buf, ids, g)
        return (buf,)

    return _make(out, (table,), vjp)


def gather_layers(layers: Sequence[Tensor], rows: np.ndarray | None = None) -> Tensor:
    """Equal-shaped layers [..., d] side by side on the last axis, [..., n * d]
    with layer 0's features first, as one node.

    With a boolean ``rows`` over the leading axes, only the rows it marks
    are kept, [t x n * d] in row-major order.  Backward hands each layer its
    own gradient, zero outside ``rows``.
    """
    shape, dtype = layers[0].shape, layers[0].data.dtype
    if any(t.shape != shape for t in layers):
        raise ValueError(f"gather_layers needs equal shapes, got {[t.shape for t in layers]}")
    if rows is not None:
        rows = np.asarray(rows, dtype=bool)
        if rows.shape != shape[:-1]:
            raise ValueError(f"rows {rows.shape} do not match layers {shape}")
    lead = shape[:-1] if rows is None else (int(np.count_nonzero(rows)),)
    data = np.empty(lead + (len(layers) * shape[-1],), dtype)
    for part, t in zip(np.split(data, len(layers), axis=-1), layers):
        part[...] = t.data if rows is None else t.data[rows]

    def vjp(g):
        parts = np.split(g, len(layers), axis=-1)
        if rows is None:
            return tuple(parts)
        grads = tuple(np.zeros(shape, dtype) for _ in layers)
        for buf, part in zip(grads, parts):
            buf[rows] = part
        return grads

    return _make(data, layers, vjp)


# ---------------------------------------------------------------------------
# fused nonlinear ops (numerically-stable forward, closed-form backward)


MASK_PENALTY = -1e9

# Rows per block where an op forms a wide product a block at a time: the
# loss's logits (6.3 MiB at the de_en vocabulary of 6428) and the fusion
# backward's hidden rows (1 MiB at d_a = 1024), where the whole would be
# [tokens, V] or [positions * layers, d_a].
BLOCK_ROWS = 128
# Columns per block where the loss adds a row block's share into its weight
# gradient, so the share is at most [d, BLOCK_COLS] (2 MiB at d = 256).
BLOCK_COLS = 1024


def _row_blocks(m: int, size: int = BLOCK_ROWS) -> list[slice]:
    """Near-equal slices of at most ``size`` (>= 4) rows that cover ``m``
    rows in order; each holds at least 2 rows when m >= 2, so a product over
    a block is a GEMM (a 1-row block is a GEMV, which rounds differently)."""
    blocks = -(-m // size)
    return [slice(m * i // blocks, m * (i + 1) // blocks) for i in range(blocks)]


def _softmax(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``s``, in place, with max-subtraction."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _attend_vjp(
    g: np.ndarray, p: np.ndarray, v: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``softmax(s) @ v`` from ``g``, given the softmax ``p``:
    with respect to the scores ``s`` and to ``v``, the latter into ``out``
    (a new array when None)."""
    dv = np.matmul(p.swapaxes(-1, -2), g, out=out)
    gy = (g @ v.swapaxes(-1, -2)) * p
    ds = p * gy.sum(axis=-1, keepdims=True)
    np.subtract(gy, ds, out=ds)
    return ds, dv


def layer_attention(
    layers: Tensor, embed: Tensor, w1: Tensor | Sequence[Tensor], w2: Tensor
) -> tuple[Tensor, np.ndarray]:
    """Multi-hop attention over the n layers that ``layers`` [..., n * d]
    holds side by side (``gather_layers``), as one node; returns the hop
    sums flattened to [..., n_hop * d] and the hop weights [..., n_hop, n].

    Row l of ``embed`` [n x d] is added to layer l.  A tanh hidden layer
    [..., n, d_a] comes from ``w1`` [d x d_a], shared by every layer, or from
    a sequence of n such matrices, one per layer; ``w2`` [d_a x n_hop] turns
    it into one energy per layer and hop.  A softmax over the layers gives
    each hop its weights, and hop p's sum is the weighted sum of the tagged
    layers.

    The forward forms the whole tanh hidden layer, its energies and the hop
    sums in one pass, call for call as the unfused chain does, and equals it
    bit for bit; the tape then holds the output and the hop weights alone.
    Backward takes about ``BLOCK_ROWS`` hidden rows at a time: it recomputes
    each block's ``layers + embed`` and hidden rows with the forward's GEMMs
    and allocates beside its gradients only block-sized scratch.  The
    weight gradients are sums over the blocks, so with more than one block
    they differ from the chain's in the last bits.
    """
    lead, (n, d) = layers.shape[:-1], embed.shape
    shared = isinstance(w1, Tensor)
    w1s = [w1] if shared else list(w1)
    d_a, n_hop = w2.shape[0], w2.shape[-1]
    if (
        layers.shape[-1] != n * d
        or len(w1s) != (1 if shared else n)
        or any(w.shape != (d, d_a) for w in w1s)
        or w2.data.ndim != 2
    ):
        raise ValueError(
            f"layer_attention shape mismatch: layers {layers.shape}, layer embedding "
            f"{embed.shape}, w1 {[w.shape for w in w1s]}, w2 {w2.shape}"
        )
    t, dtype = math.prod(lead), layers.data.dtype

    def hidden_layer(tagged, out):
        """The tanh hidden layer of [k x n x d] ``tagged``, into the first
        k * n rows of ``out``."""
        h = out[: tagged.shape[0] * n]
        if shared:
            np.matmul(tagged.reshape(-1, d), w1.data, out=h)
        else:
            parts = h.reshape(-1, n, d_a)
            for l, w in enumerate(w1s):  # each GEMM reads a contiguous copy, as the chain's did
                np.matmul(tagged[:, l].copy(), w.data, out=parts[:, l])
        return np.tanh(h, out=h)

    tagged = layers.data.reshape(t, n, d) + embed.data
    energies = hidden_layer(tagged, np.empty((t * n, d_a), dtype)) @ w2.data
    # the hop weights, position by position
    p_rows = _softmax(energies.reshape(t, n, n_hop).transpose(0, 2, 1))
    hops = p_rows @ tagged

    def vjp(g):
        x, g = layers.data.reshape(t, n, d), g.reshape(t, n_hop, d)
        dtagged = np.empty((t, n, d), dtype)
        dw1s = [np.zeros(w.shape, dtype) for w in w1s]
        dw2 = np.zeros(w2.shape, dtype)
        blocks = _row_blocks(t, max(BLOCK_ROWS // n, 4))
        size = n * max((r.stop - r.start for r in blocks), default=0)
        hidden, dhidden = np.empty((size, d_a), dtype), np.empty((size, d_a), dtype)
        for r in blocks:
            tagged = x[r] + embed.data
            de, _ = _attend_vjp(g[r], p_rows[r], tagged, out=dtagged[r])
            de = de.transpose(0, 2, 1).reshape(-1, n_hop)
            h = hidden_layer(tagged, hidden)
            dw2 += h.T @ de
            h *= h  # tanh' = 1 - h^2, written over the recomputed layer
            np.subtract(1.0, h, out=h)
            # a block of the chain's de @ w2.T.  An entry sums only n_hop
            # products; on OpenBLAS (Haswell kernels) the blocks equal the
            # whole product bit for bit when d_a is a multiple of 8; else its
            # last d_a % 8 columns can round differently
            h *= np.matmul(de, w2.data.T, out=dhidden[: len(h)])
            if shared:
                rows = tagged.reshape(-1, d)
                dw1s[0] += rows.T @ h
                np.matmul(h, w1.data.T, out=rows)  # tagged is spent: reuse it
                dtagged[r] += tagged
            else:
                hs = h.reshape(-1, n, d_a)
                for l, w in enumerate(w1s):  # contiguous copies, as in the forward
                    dy = hs[:, l].copy()
                    dtagged[r, l] += dy @ w.data.T
                    dw1s[l] += tagged[:, l].copy().T @ dy
        dembed = dtagged.reshape(lead + (n, d)).sum(axis=tuple(range(len(lead))))
        return dtagged.reshape(layers.shape), dembed, *dw1s, dw2

    out = hops.reshape(lead + (n_hop * d,))
    return _make(out, (layers, embed, *w1s, w2), vjp), p_rows.reshape(lead + (n_hop, n))


def _norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float, out=None):
    """Layer norm of ``x`` over its last axis: returns the output and the
    ``xhat``/``inv`` that ``_norm_vjp`` needs.  ``xhat`` is written into
    ``out``, which may be ``x`` itself when the caller owns it."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layer_norm affine shape {gain.shape} != ({d},)")
    # sum / d is numpy's mean without its Python wrapper: the same bits
    mu = x.sum(axis=-1, keepdims=True) / d
    xhat = np.subtract(x, mu, out=out)
    inv = 1.0 / np.sqrt(np.square(xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, xhat, inv


def _norm_vjp(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    """Gradients of ``_norm_forward`` with respect to x, gain and bias."""
    lead = tuple(range(g.ndim - 1))
    dgain = (g * xhat).sum(axis=lead)
    dbias = g.sum(axis=lead)
    d = g.shape[-1]
    gh = g * gain
    dx = gh - gh.sum(axis=-1, keepdims=True) / d
    dx -= xhat * ((gh * xhat).sum(axis=-1, keepdims=True) / d)
    dx *= inv
    return dx, dgain, dbias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    data, xhat, inv = _norm_forward(x.data, gain.data, bias.data, eps)
    return _make(data, (x, gain, bias), lambda g: _norm_vjp(g, xhat, inv, gain.data))


def _residual_norm(x, rows, w, b, gain, bias, keep, rate, eps, residual=True):
    """``layer_norm(x + dropout(rows @ w + b))`` for the sublayer ops, with
    ``x`` [..., d] added only when ``residual``: the dropout, the residual
    sum and the normalization overwrite the projection's buffer in place.
    Returns the output, ``xhat`` (in that buffer) and ``inv``."""
    s = _affine(rows, w, b).reshape(x.shape[:-1] + w.shape[1:])
    if keep is not None:
        _dropped(s, keep, rate, out=s)
    if residual:
        s += x.data
    return _norm_forward(s, gain.data, bias.data, eps, out=s)


def _residual_norm_vjp(g, xhat, inv, gain, keep, rate):
    """Gradients of ``_residual_norm`` from ``g``: with respect to the sum
    (x's, with the residual), the projection's [n x d] rows (the sum's when
    there is no dropout), gain and bias."""
    dx, dgain, dbias = _norm_vjp(g, xhat, inv, gain.data)
    ds = dx if keep is None else _dropped(dx, keep, rate)
    return dx, ds.reshape(-1, ds.shape[-1]), dgain, dbias


def _projection(src: Tensor | None, w: Tensor, b: Tensor, past: np.ndarray | None) -> np.ndarray:
    """Keys or values [B x Lk x d]: the cached rows ``past``, then the
    projection ``src @ w + b`` of ``src`` [B x Ls x d]; None stands for no
    rows."""
    if src is None:
        return past
    y = _affine(src.data.reshape(-1, src.shape[-1]), w, b).reshape(src.shape)
    return y if past is None else np.concatenate([past, y], axis=1)


def key_values(
    src: Tensor, wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor
) -> tuple[np.ndarray, np.ndarray]:
    """The key and value projections of ``src`` [B x L x d], off the tape:
    what ``attention_residual_layer_norm`` computes from ``src``, for a
    decoder to cache."""
    return _projection(src, wk, bk, None), _projection(src, wv, bv, None)


def attention_residual_layer_norm(
    x: Tensor,
    src: Tensor | None,
    past: tuple[np.ndarray, np.ndarray] | None,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor,
    bk: Tensor,
    wv: Tensor,
    bv: Tensor,
    wo: Tensor,
    bo: Tensor,
    gain: Tensor,
    bias: Tensor,
    n_heads: int,
    mask: np.ndarray | None = None,
    keep: np.ndarray | None = None,
    rate: float = 0.0,
    eps: float = 1e-6,
) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """``layer_norm(x + dropout(attention(x @ wq + bq, k, v) @ wo + bo))`` as
    one node: a whole post-norm attention sublayer.  Returns the node and
    the keys and values ``(k, v)``, which a decoder caches.

    ``x`` [B x Lq x d] is the query input and the residual, ``wq``/``bq``
    and ``wo``/``bo`` the query and output projections.  The keys and values
    [B x Lk x d] are the cached ``past`` (not differentiated), then the
    projections ``src @ wk + bk`` and ``src @ wv + bv`` of ``src`` [B x Ls
    x d]; either may be None, not both.  Heads are views [B x H x L x d/H]
    of the query, key and value arrays, and the scores are ``(q . k^T) *
    1/sqrt(d/H)``.  ``mask`` is boolean and broadcasts to [B x 1 x Lq x Lk];
    its False entries get a ``MASK_PENALTY`` added, which underflows to an
    exact zero weight after the softmax.  A row with no allowed key gets the
    same penalty on every score, so it keeps its unmasked weights up to the
    penalty's rounding (about 1e-7 in float64).  ``keep`` is the boolean
    mask ``dropout_keep`` drew at ``rate`` (None: no dropout).

    The tape holds the output, the normalized sum, the dropout mask and the
    softmax probabilities (and ``past``, if given).  Backward recomputes the
    values and the merged heads ``p @ v``, then the query projection and the
    keys, with the forward's GEMMs, and drops the values and their gradient
    before it forms the keys.  The values and gradients are bit for bit
    those of the key, value and query projections, the attention and the
    output projection's residual norm run as separate ops: ``src``'s two
    gradients come after ``x``'s two, in the order the key and value
    projections would add them.
    """
    b, lq, d = x.shape
    lp = 0 if past is None else past[0].shape[1]
    lk = lp + (0 if src is None else src.shape[1])
    if (
        d % n_heads
        or (src is None and past is None)
        or (src is not None and src.shape != (b, lk - lp, d))
        or (past is not None and (past[0].shape != (b, lp, d) or past[1].shape != past[0].shape))
        or any(w.shape != (d, d) for w in (wq, wk, wv, wo))
        or any(t.shape != (d,) for t in (bq, bk, bv, bo))
    ):
        raise ValueError(
            f"attention shape mismatch: x {x.shape}, src {None if src is None else src.shape}, "
            f"past {None if past is None else [a.shape for a in past]}, {n_heads} heads, "
            f"weights {[w.shape for w in (wq, wk, wv, wo)]} + {[t.shape for t in (bq, bk, bv, bo)]}"
        )
    full = (b, 1, lq, lk)
    if mask is not None and (
        mask.ndim != 4 or any(m not in (1, n) for m, n in zip(mask.shape, full))
    ):
        raise ValueError(f"mask shape {mask.shape} does not broadcast to {full}")
    dh = d // n_heads
    rows = x.data.reshape(-1, d)
    past_k, past_v = (None, None) if past is None else past
    c = 1.0 / math.sqrt(dh)

    def split(a, axes):  # [B x L x d] -> a view of its heads, axes of [B x L x H x d/H]
        return a.reshape(b, -1, n_heads, dh).transpose(axes)

    def query_heads():
        return split(_affine(rows, wq, bq), (0, 2, 1, 3))

    def merged_heads(v):  # [B*Lq x d]
        return (p @ split(v, (0, 2, 1, 3))).transpose(0, 2, 1, 3).reshape(-1, d)

    k = _projection(src, wk, bk, past_k)
    p = query_heads() @ split(k, (0, 2, 3, 1))
    p *= c
    if mask is not None:
        p += np.where(mask, 0.0, MASK_PENALTY)
    _softmax(p)
    v = _projection(src, wv, bv, past_v)
    data, xhat, inv = _residual_norm(x, merged_heads(v), wo, bo, gain, bias, keep, rate, eps)

    def source_vjp(dheads, w, w_bias):
        """``src``'s gradient and those of ``w`` and ``w_bias`` from the
        gradient of the keys' or values' heads, laid out [B x Lk x H x d/H]."""
        g = dheads.reshape(b, lk, d)[:, lp:].reshape(-1, d)
        dsrc, dw, db = _affine_vjp(g, src.data.reshape(-1, d), w, w_bias)
        return dsrc.reshape(src.shape), dw, db

    def vjp(g):
        dx, ds, dgain, dbias = _residual_norm_vjp(g, xhat, inv, gain, keep, rate)
        v = _projection(src, wv, bv, past_v)
        heads = merged_heads(v)
        dwo, dbo = heads.T @ ds, ds.sum(axis=0)
        dheads = np.matmul(ds, wo.data.T, out=heads)  # the heads are spent: reuse them
        dscores, dv = _attend_vjp(split(dheads, (0, 2, 1, 3)), p, split(v, (0, 2, 1, 3)))
        del v, heads, dheads
        if src is not None:
            dsrc_v, *dwv = source_vjp(dv.transpose(0, 2, 1, 3), wv, bv)
        del dv
        dscores *= c
        k = _projection(src, wk, bk, past_k)
        dq = (dscores @ split(k, (0, 2, 1, 3))).transpose(0, 2, 1, 3).reshape(-1, d)
        del k
        dx_q, dwq, dbq = _affine_vjp(dq, rows, wq, bq)
        if src is None:
            return dx, dx_q.reshape(x.shape), dwq, dbq, dwo, dbo, dgain, dbias
        dk = query_heads().swapaxes(-1, -2) @ dscores
        del dscores
        dsrc_k, *dwk = source_vjp(dk.transpose(0, 3, 1, 2), wk, bk)
        return (
            dx, dx_q.reshape(x.shape), dsrc_k, dsrc_v,
            dwq, dbq, *dwk, *dwv, dwo, dbo, dgain, dbias,
        )

    # x is a parent twice, as the residual and as the query's input, and src
    # twice, as the keys' and the values' (src may be x), so backward adds
    # their gradients to whatever they already hold one at a time, in the
    # order separate residual, query, key and value nodes would
    if src is None:
        parents = (x, x, wq, bq, wo, bo, gain, bias)
    else:
        parents = (x, x, src, src, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias)
    return _make(data, parents, vjp), (k, v)


def ffn_residual_layer_norm(
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    gain: Tensor,
    bias: Tensor,
    keep: np.ndarray | None = None,
    rate: float = 0.0,
    eps: float = 1e-6,
    residual: bool = True,
) -> Tensor:
    """``layer_norm(x + dropout(relu(x @ w1 + b1) @ w2 + b2))`` as one node: a
    post-norm FFN sublayer, or without ``residual`` (no ``x +``) the fusion
    layer's FNN and norm.

    ``x`` [..., d] is the input, ``w1`` [d x d_ff] and ``w2`` [d_ff x d_out]
    the two dense layers, and the output [..., d_out]; d_out must be d with
    the residual.  ``keep`` and ``rate`` are as in
    ``attention_residual_layer_norm``.  It computes what a relu of the GEMM
    ``x @ w1 + b1`` followed by the second layer's (residual) norm
    computes, bit for bit, and stores only the output, the normalized sum
    and the mask: the relu layer [..., d_ff] is freed after the forward, and
    backward recomputes it with the same GEMM, then writes its gradient over
    it.
    """
    d = x.shape[-1]
    if (
        w1.data.ndim != 2
        or w1.shape[0] != d
        or b1.shape != w1.shape[1:]
        or w2.shape[:-1] != w1.shape[1:]
        or b2.shape != w2.shape[1:]
        or residual and w2.shape[1] != d
    ):
        raise ValueError(
            f"ffn shape mismatch: {x.shape} x {w1.shape} + {b1.shape} x {w2.shape} + {b2.shape}"
            + ("" if residual else " without residual")
        )
    rows = x.data.reshape(-1, d)

    def relu_layer():
        h = _affine(rows, w1, b1)
        return np.maximum(h, 0.0, out=h)

    data, xhat, inv = _residual_norm(x, relu_layer(), w2, b2, gain, bias, keep, rate, eps, residual)

    def vjp(g):
        dx, ds, dgain, dbias = _residual_norm_vjp(g, xhat, inv, gain, keep, rate)
        h = relu_layer()
        dw2, db2 = h.T @ ds, ds.sum(axis=0)
        active = h > 0
        dh = np.matmul(ds, w2.data.T, out=h)  # the relu layer is spent: reuse it
        dh *= active
        dx_in, dw1, db1 = _affine_vjp(dh, rows, w1, b1)
        if residual:
            dx += dx_in.reshape(x.shape)  # ds, which may be dx, is spent
        else:
            dx = dx_in.reshape(x.shape)
        return dx, dw1, db1, dw2, db2, dgain, dbias

    return _make(data, (x, w1, b1, w2, b2, gain, bias), vjp)


def cross_entropy(x: Tensor, w: Tensor, b: Tensor, targets) -> tuple[Tensor, int]:
    """Mean negative log-likelihood of ``targets`` under ``softmax(x @ w + b)``,
    and how many rows have their target as the argmax (the lowest id on a tie).

    ``x`` is [n x d] with n > 0; ``targets`` holds n class ids.  The logits
    are formed ``BLOCK_ROWS`` rows at a time, so no [n x V] array exists.
    While the tape is live, each block turns its softmax into its rows of the
    gradient of ``x`` and adds its share into those of ``w`` (``BLOCK_COLS``
    columns at a time, so no [d x V] share exists) and ``b`` at once; the
    tape holds the three gradients of the mean, and backward only scales
    them by its ``g``.  Under ``no_grad`` the op computes only the loss and
    the count.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ValueError(f"cross_entropy shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    n, v = x.shape[0], w.shape[1]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} != ({n},)")
    if n == 0:
        raise ValueError("cross_entropy: no rows")
    if targets.max() >= v or targets.min() < 0:
        raise IndexError(f"target id out of range [0, {v})")

    live = _grad_enabled and any(t.requires_grad for t in (x, w, b))
    dx = np.empty(x.shape, x.data.dtype) if live else None
    dw = db = None
    blocks = _row_blocks(n)
    buf = np.empty((max(r.stop - r.start for r in blocks), v), x.data.dtype)
    nll, correct = 0.0, 0
    for r in blocks:
        t = targets[r]
        rows = np.arange(t.size)
        e = _affine(x.data[r], w, b, out=buf[: t.size])
        correct += int((e.argmax(axis=1) == t).sum())
        picked = e[rows, t]
        m = e.max(axis=1, keepdims=True)
        e -= m
        np.exp(e, out=e)
        z = e.sum(axis=1, keepdims=True)
        nll += (m[:, 0] + np.log(z[:, 0]) - picked).sum()
        if not live:
            continue
        p = e  # the exp'd block becomes its softmax gradient
        p /= z
        p[rows, t] -= 1.0
        p *= 1.0 / n
        np.matmul(p, w.data.T, out=dx[r])
        if dw is None:
            dw, db = x.data[r].T @ p, p.sum(axis=0)
        else:
            for c in range(0, v, BLOCK_COLS):
                dw[:, c : c + BLOCK_COLS] += x.data[r].T @ p[:, c : c + BLOCK_COLS]
            db += p.sum(axis=0)

    def vjp(g):
        for grad in (dx, dw, db):  # the tape is single-use: scale in place
            grad *= float(g)
        return dx, dw, db

    return _make(np.float64(nll / n), (x, w, b), vjp), correct


# ---------------------------------------------------------------------------
# reverse pass


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _spent(g):
    """The VJP of a node that backward has already passed."""
    raise RuntimeError("backward already ran through this graph")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    ``loss`` must be scalar.  The graph is single-use: once a node's VJP has
    run, the node drops its parents and its VJP closure, so each tape array
    is freed as the reverse pass leaves it behind.  A second backward
    through any node of a graph raises RuntimeError before it changes a
    grad; backward over separate graphs that share leaves still accumulates
    into their grads.

    A leaf keeps the array its VJP returned when backward alone holds it (a
    new array that went to no other tensor) and a copy of a view or of an
    array shared with another tensor, so no two leaves share a ``grad``.  A
    node's later gradients are added in place into such an array, and into
    a new sum otherwise.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    if any(node._vjp is _spent for node in order):
        _spent(None)  # before any grad changes
    # id(node) -> (its gradient, whether backward alone holds that array)
    buf: dict[int, tuple[np.ndarray, bool]] = {id(loss): (np.ones_like(loss.data), True)}
    while order:
        node = order.pop()
        g, own = buf.pop(id(node), (None, False))
        if node._vjp is None:
            if g is not None:
                if node.grad is not None:
                    node.grad = node.grad + g
                else:
                    node.grad = g if own else g.copy()
            continue
        grads = () if g is None else node._vjp(g)
        for parent, pg in zip(node._parents, grads):
            if pg is None or not parent.requires_grad:
                continue
            held = buf.get(id(parent))
            if held is None:
                alone = pg.base is None and (own or pg is not g)
                buf[id(parent)] = (pg, alone and sum(q is pg for q in grads) == 1)
                continue
            acc, alone = held
            if alone:  # no tensor or view shares the array: add in place
                acc += pg
            else:
                acc = acc + pg
            buf[id(parent)] = (acc, True)
        # the gradients just added in place are garbage: free them before the
        # next VJP runs rather than when it returns
        grads = pg = None
        node._parents = ()
        node._vjp = _spent


# ---------------------------------------------------------------------------
# parameter registry


class ParamStore:
    """Named trainable tensors with deterministic (lexicographic) iteration."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        for name in self.names():
            yield name, self._params[name]

    def zero_grads(self) -> None:
        for _, t in self.items():
            t.grad = None
