"""Fusion functions that collapse a stack of layer outputs into one vector.

A fusion layer sits on top of the encoder stack, the decoder stack, or both.
It sees every layer's representation at a position (optionally including the
embedding layer at index 0) and produces a single width-d vector, so nothing
downstream changes size.  The parametric kinds take the included layers side
by side as ``[..., n*d]``, layer 0's features first.  Four kinds are supported:

* ``baseline``         - the top layer, untouched (no extra parameters)
* ``avg``              - arithmetic mean over the layers
* ``fnn``              - the layers as they are joined (a featurewise
                         concatenation), then a one-hidden-layer FNN
* ``self_attention``   - multi-hop attention over the layers with learned
                         layer-index embeddings; each hop yields a probability
                         distribution over layers and a weighted sum, the hops
                         are flattened and mixed by a final FNN

Every parametric kind ends with its own layer normalization; ``fnn`` and
``self_attention`` run their FNN and that norm as one node, the FFN
sublayer's ``ad.ffn_residual_layer_norm`` without the residual.  ``fuse_side``
dispatches all four kinds.
"""

from __future__ import annotations

import functools
import numbers
import types
from dataclasses import dataclass
from typing import Sequence, get_args, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor

SIDES = ("none", "encoder", "decoder", "both")
KINDS = ("baseline", "avg", "fnn", "self_attention")


@functools.cache
def field_types(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (annotated type, ``X | None`` read as X; whether None is allowed)."""
    hints = get_type_hints(cls)
    unions = {k: get_args(h) if isinstance(h, types.UnionType) else (h,) for k, h in hints.items()}
    return {name: (args[0], type(None) in args) for name, args in unions.items()}


# annotated type -> (what an error calls it, the test of a value); JSON's true
# reads as a bool, which Python counts as an int, and NaN is unequal to itself
_TYPE_CHECKS = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and type(v) is not bool),
    float: ("a number", lambda v: isinstance(v, numbers.Real) and type(v) is not bool and v == v),
    bool: ("a bool", lambda v: type(v) is bool),
    str: ("a string", lambda v: isinstance(v, str)),
    list[str]: (
        "a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)
    ),
}


def check_types(obj) -> None:
    """ValueError unless each field of dataclass ``obj`` holds its annotated type."""
    for name, (typ, optional) in field_types(type(obj)).items():
        what, ok = _TYPE_CHECKS[typ]
        value = getattr(obj, name)
        if not (ok(value) or optional and value is None):
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class FusionConfig:
    """Which fusion runs where, and its widths.

    ``include_embedding`` adds the embedding layer (index 0) to the fusion
    input, giving n_layers+1 entries.  ``share_w1`` uses one inner attention
    projection for all layers instead of a per-layer one.
    ``share_layer_embedding`` keeps a single layer-index table for both sides.
    """

    side: str = "none"
    enc_kind: str = "baseline"
    dec_kind: str = "baseline"
    n_hop: int = 1
    d_a: int = 1
    d_f: int = 1
    include_embedding: bool = True
    share_w1: bool = True
    share_layer_embedding: bool = True

    def __post_init__(self):
        check_types(self)
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        for kind in (self.enc_kind, self.dec_kind):
            if kind not in KINDS:
                raise ValueError(f"fusion kind must be one of {KINDS}, got {kind!r}")
        for name in ("n_hop", "d_a", "d_f"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def kind_for(self, side: str) -> str:
        """Active kind on ``side`` ('encoder'/'decoder'), 'baseline' if off."""
        if self.side in ("both", side):
            return self.enc_kind if side == "encoder" else self.dec_kind
        return "baseline"


@dataclass
class AttentionTrace:
    """Per-position hop-by-layer weights from a self-attention fusion.

    ``weights[..., p, l]`` is hop p's weight on included layer l at a
    position; each (position, p) row is a probability distribution over
    layers.  The model's traces are [t, p, l] over the real tokens of a
    batch in row-major order.
    ``first_layer`` is the stack index of weight column 0 (0 when the
    embedding layer is included, else 1).
    """

    weights: np.ndarray
    first_layer: int = 0


# ---------------------------------------------------------------------------
# dispatch


def layer_embedding_name(cfg: FusionConfig, side: str) -> str:
    if cfg.share_layer_embedding:
        return "fusion.layer_embed.weight"
    return f"fusion.{side}.layer_embed.weight"


def fuse_side(
    stack: Sequence[Tensor],
    side: str,
    cfg: FusionConfig,
    params: ParamStore,
    rows: np.ndarray | None = None,
) -> tuple[Tensor, AttentionTrace | None]:
    """Apply the configured fusion for ``side`` to a full layer stack.

    ``baseline`` returns the top of the stack untouched: no normalization,
    no parameters.  ``rows``, a boolean mask over the leading axes, keeps
    only those positions; ``ad.gather_layers`` applies it once, as it
    gathers the fusion input, the n included layers side by side as
    ``[..., n*d]``, layer 0's features first.

    ``avg`` normalizes their mean.  ``fnn`` takes them as they are joined.
    ``self_attention`` adds each layer's index embedding (row l of the
    ``[n, d]`` table) and takes the hop sums ``[..., n_hop*d]`` of
    ``ad.layer_attention``: a tanh hidden layer (``att.w1``, shared or one
    per layer) and ``att.w2``, one column per hop, give energies whose
    softmax over the layers weights each hop's sum.  Both then run the FNN
    and the norm as one residual-free ``ad.ffn_residual_layer_norm`` node.
    """
    kind = cfg.kind_for(side)
    if kind == "baseline":
        return stack[-1] if rows is None else ad.gather_layers(stack[-1:], rows), None
    included = stack if cfg.include_embedding else stack[1:]
    x = ad.gather_layers(included, rows)
    p = f"fusion.{side}"
    norm = params[f"{p}.post_norm.gain"], params[f"{p}.post_norm.bias"]
    if kind == "avg":
        return ad.layer_norm(ad.mean_(x, len(included)), *norm), None
    trace = None
    if kind == "self_attention":
        if cfg.share_w1:
            w1 = params[f"{p}.att.w1"]
        else:
            w1 = [params[f"{p}.att.w1.layer{l}"] for l in range(len(included))]
        embed = params[layer_embedding_name(cfg, side)]
        x, weights = ad.layer_attention(x, embed, w1, params[f"{p}.att.w2"])
        trace = AttentionTrace(weights, 0 if cfg.include_embedding else 1)
    fnn = (params[f"{p}.fnn.{name}"] for name in ("w1", "b1", "w2", "b2"))
    return ad.ffn_residual_layer_norm(x, *fnn, *norm, residual=False), trace
