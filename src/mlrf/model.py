"""Post-norm Transformer encoder-decoder that exposes every layer's output.

Both stacks return the full list of per-layer representations (the embedding
output at index 0, then one entry per layer) so a fusion function can consume
any of them instead of just the top.

A batch keeps its padded layout: ids and boolean masks are [B, L] with
each sentence's real tokens first, and activations are [B, L, d].  The
embeddings of a side are one ``ad.embed`` node.  Every attention sublayer is
one ``ad.attention_residual_layer_norm`` node: the key and value
projections of its source, after any cached ones, and the query
projection, the attention, which splits the projections into heads as
views, [B, H, L, d/H], so attention scores are [B, H, Lq, Lk] per sentence,
and the output projection, dropout, residual sum and norm.  That node
recomputes the keys, the values, the query projection and the merged heads
in backward rather than keep them on the tape.  Each FNN sublayer is one
``ad.ffn_residual_layer_norm`` node, which recomputes its relu layer in
backward in the same way.  One function, ``layer``, runs a
layer of either stack: its attention sublayers in order, then the FNN.  Keys
at pad positions, and later positions in decoder self-attention, get a -1e9
penalty that underflows to an exact zero weight after softmax, so a padded
batch computes what one-at-a-time runs compute.
``forward`` trims the batch to its longest sentence and hands only the real
target rows to the decoder-side fusion, so its representation is
[n_target_tokens x d] in row-major token order; ``loss`` projects it to the
vocabulary inside the loss op, a row block at a time.  One method,
``decode_teacher_forced``, runs the decoder stack both over whole gold
prefixes and, for decoding, at one new position of k hypotheses that attend
over the keys and values, [k, t, d], cached from earlier positions, and over
the cross-attention ones, projected once per sentence.  Those rows are all
real, so a decoding step's fusion takes them with no rows mask.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .fusion import AttentionTrace, FusionConfig, check_types, fuse_side, layer_embedding_name

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class ModelConfig:
    """Architectural description of the encoder-decoder core."""

    n_layers: int
    d_model: int
    d_ff: int
    n_heads: int
    src_vocab: int
    tgt_vocab: int
    max_len: int
    dropout: float = 0.0

    def __post_init__(self):
        check_types(self)
        for name in ("n_layers", "d_model", "d_ff", "n_heads", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.src_vocab < 0 or self.tgt_vocab < 0:
            raise ValueError("src_vocab and tgt_vocab must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even for sinusoidal positions")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def max_tokens(self) -> int:
        """The most tokens a sentence may hold: of ``max_len`` positions, one
        is left for the EOS a source ends in, or the BOS a target follows."""
        return self.max_len - 1


# ---------------------------------------------------------------------------
# parameter table


class ParamSpec(NamedTuple):
    """One trainable tensor: its name, shape and initialization class.

    ``fan_in`` sets the bound of the ``"uniform"`` class and is 0 otherwise.
    """

    name: str
    shape: tuple[int, ...]
    init: str
    fan_in: int = 0

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def param_specs(config: ModelConfig, fusion: FusionConfig) -> list[ParamSpec]:
    """Every trainable tensor of the model, in initialization draw order.

    Initialization classes:

    * ``"normal"``       word embeddings, N(0, sd = d^-0.5)
    * ``"layer_index"``  layer-index embeddings, U(-0.1, 0.1)
    * ``"ones"`` / ``"zeros"``  layer-norm gain / bias
    * ``"uniform"``      everything else, U(-1/sqrt(fan_in), 1/sqrt(fan_in));
                         biases use their layer's fan_in

    Core parameters come before any fusion parameters, so two models that
    differ only in fusion attachment draw identical core weights.
    """
    d = config.d_model
    specs: list[ParamSpec] = []

    def dense(prefix: str, w: str, b: str, fan_in: int, fan_out: int) -> None:
        specs.append(ParamSpec(f"{prefix}.{w}", (fan_in, fan_out), "uniform", fan_in))
        specs.append(ParamSpec(f"{prefix}.{b}", (fan_out,), "uniform", fan_in))

    def norm(prefix: str) -> None:
        specs.append(ParamSpec(f"{prefix}.gain", (d,), "ones"))
        specs.append(ParamSpec(f"{prefix}.bias", (d,), "zeros"))

    def attention(prefix: str) -> None:
        for n in ("q", "k", "v", "o"):
            dense(prefix, f"w{n}", f"b{n}", d, d)

    def ffn(prefix: str, d_in: int, d_hidden: int) -> None:
        dense(prefix, "w1", "b1", d_in, d_hidden)
        dense(prefix, "w2", "b2", d_hidden, d)

    def layer(prefix: str, attn: Sequence[str]) -> None:  # what model.layer reads
        for i, name in enumerate(attn, 1):
            attention(f"{prefix}.{name}")
            norm(f"{prefix}.norm{i}")
        ffn(f"{prefix}.ffn", d, config.d_ff)
        norm(f"{prefix}.norm{len(attn) + 1}")

    specs.append(ParamSpec("src_embed.weight", (config.src_vocab, d), "normal"))
    specs.append(ParamSpec("tgt_embed.weight", (config.tgt_vocab, d), "normal"))
    for i in range(config.n_layers):
        layer(f"encoder.layer{i}", ["self_attn"])
    for i in range(config.n_layers):
        layer(f"decoder.layer{i}", ["self_attn", "cross_attn"])
    dense("output", "weight", "bias", d, config.tgt_vocab)

    n_inputs = config.n_layers + 1 if fusion.include_embedding else config.n_layers
    for side in ("encoder", "decoder"):
        kind = fusion.kind_for(side)
        if kind == "baseline":
            continue
        prefix = f"fusion.{side}"
        if kind == "fnn":
            ffn(f"{prefix}.fnn", n_inputs * d, fusion.d_f)
        elif kind == "self_attention":
            # inner projections carry no bias
            if fusion.share_w1:
                w1_names = [f"{prefix}.att.w1"]
            else:
                w1_names = [f"{prefix}.att.w1.layer{l}" for l in range(n_inputs)]
            for name in w1_names:
                specs.append(ParamSpec(name, (d, fusion.d_a), "uniform", d))
            specs.append(
                ParamSpec(f"{prefix}.att.w2", (fusion.d_a, fusion.n_hop), "uniform", fusion.d_a)
            )
            embed = layer_embedding_name(fusion, side)
            if all(s.name != embed for s in specs):  # a shared table comes once
                specs.append(ParamSpec(embed, (n_inputs, d), "layer_index"))
            ffn(f"{prefix}.fnn", fusion.n_hop * d, fusion.d_f)
        norm(f"{prefix}.post_norm")
    return specs


def _draw(rng: np.random.Generator, spec: ParamSpec) -> np.ndarray:
    if spec.init == "uniform":
        bound = 1.0 / math.sqrt(spec.fan_in)
        return rng.uniform(-bound, bound, size=spec.shape)
    if spec.init == "normal":
        return rng.normal(0.0, spec.shape[1] ** -0.5, spec.shape)
    if spec.init == "layer_index":
        return rng.uniform(-0.1, 0.1, size=spec.shape)
    if spec.init == "ones":
        return np.ones(spec.shape)
    if spec.init == "zeros":
        return np.zeros(spec.shape)
    raise ValueError(f"unknown initialization class {spec.init!r} for {spec.name}")


def init_parameters(config: ModelConfig, fusion: FusionConfig, seed: int) -> ParamStore:
    """Draw every tensor of ``param_specs`` in order; bit-identical for equal seeds."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for spec in param_specs(config, fusion):
        store.add(spec.name, Tensor(_draw(rng, spec)))
    return store


def parameter_breakdown(specs: Sequence[ParamSpec]) -> dict[str, int]:
    """Scalar counts grouped by top-level component."""
    groups = {"embeddings": 0, "encoder": 0, "decoder": 0, "fusion": 0, "output": 0}
    for spec in specs:
        if spec.name.startswith(("src_embed", "tgt_embed")):
            groups["embeddings"] += spec.size
        else:
            groups[spec.name.split(".", 1)[0]] += spec.size
    return groups


def check_params(params: ParamStore, specs: Sequence[ParamSpec]) -> None:
    """Raise ValueError naming every missing, extra or mis-shaped tensor."""
    expected = {s.name: s.shape for s in specs}
    missing = sorted(set(expected) - set(params.names()))
    extra = sorted(set(params.names()) - set(expected))
    misshaped = [
        f"{name} {t.shape} vs {expected[name]}"
        for name, t in params.items()
        if name in expected and t.shape != expected[name]
    ]
    if missing or extra or misshaped:
        raise ValueError(
            f"parameter store does not match the model: missing={missing[:5]} "
            f"extra={extra[:5]} shape mismatch={misshaped[:5]}"
        )


def positional_encoding(end: int, d: int, start: int = 0) -> np.ndarray:
    """Rows ``start`` to ``end - 1`` of the fixed sine/cosine position table."""
    if d % 2 != 0:
        raise ValueError("positional encoding needs an even width")
    pos = np.arange(start, end, dtype=np.float64)[:, None]
    freq = np.power(10000.0, -np.arange(0, d, 2, dtype=np.float64) / d)
    pe = np.empty((len(pos), d))
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq)
    return pe


# ---------------------------------------------------------------------------
# padded batches


def one_sentence(ids) -> tuple[np.ndarray, np.ndarray]:
    """A batch of one unpadded sentence: [1 x n] ids and an all-true mask."""
    ids = np.asarray(ids, dtype=np.int64)[None]
    return ids, np.ones(ids.shape, dtype=bool)


def _trim_batch(ids, mask) -> tuple[np.ndarray, np.ndarray]:
    """Drop the trailing columns that hold no real token in any row."""
    ids, mask = np.asarray(ids, dtype=np.int64), np.asarray(mask, dtype=bool)
    if ids.ndim != 2 or ids.shape != mask.shape:
        raise ValueError(f"ids {ids.shape} and mask {mask.shape} must be equal [B x L]")
    used = np.flatnonzero(mask.any(axis=0))
    if used.size == 0:
        raise ValueError("batch holds no real token")
    width = int(used[-1]) + 1
    return ids[:, :width], mask[:, :width]


# ---------------------------------------------------------------------------
# sublayers


# A sublayer's keys and values [B x Lk x d], as arrays: a decoder's cache.
KeyValues = tuple[np.ndarray, np.ndarray]


def layer(
    x: Tensor,
    attn: Sequence[tuple[str, Tensor | None, KeyValues | None, np.ndarray | None]],
    params: ParamStore,
    prefix: str,
    n_heads: int,
    rate: float = 0.0,
    rng: np.random.Generator | None = None,
    tokens: np.ndarray | None = None,
) -> tuple[Tensor, list[KeyValues]]:
    """One post-norm layer on [B x Lq x d]: each attention sublayer of
    ``attn``, ``(name, src, past, mask)``, in order (an encoder passes
    self-attention; a decoder self-attention, then cross-attention), then
    the FNN.  Sublayer i ends in the norm ``{prefix}.norm{i}``.

    An attention sublayer is one ``ad.attention_residual_layer_norm`` node,
    ``layer_norm(x + dropout(heads @ wo + bo))``, over the keys and values
    of the cached ``past``, then the projections of ``src`` [B x Ls x d]
    (x itself for self-attention); a decoding step passes cached rows,
    forward-only (under ``ad.no_grad``), so it never projects them again.
    ``mask`` is boolean and broadcasts to [B x 1 x Lq x Lk] ([B x 1 x 1 x
    Lk] for key padding alone).  A row with no allowed key attends as if
    unmasked (see ``ad.attention_residual_layer_norm``); it is only flagged
    at debug log level.  The FNN is one ``ad.ffn_residual_layer_norm``
    node.  Each sublayer in turn draws its dropout mask for ``tokens``, the
    real positions.  Returns the layer's output and each attention
    sublayer's keys and values."""
    kv = []
    names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    for i, (name, src, past, mask) in enumerate(attn, 1):
        sub, norm = f"{prefix}.{name}", f"{prefix}.norm{i}"
        if mask is not None and log.isEnabledFor(logging.DEBUG) and not mask.any(axis=-1).all():
            log.debug("attention row with every key masked at %s", sub)
        keep = ad.dropout_keep(x.shape, rate, rng, tokens)
        x, kv_i = ad.attention_residual_layer_norm(
            x, src, past, *(params[f"{sub}.{n}"] for n in names),
            params[f"{norm}.gain"], params[f"{norm}.bias"], n_heads, mask, keep, rate,
        )
        kv.append(kv_i)
    ffn, norm = f"{prefix}.ffn", f"{prefix}.norm{len(attn) + 1}"
    keep = ad.dropout_keep(x.shape, rate, rng, tokens)
    out = ad.ffn_residual_layer_norm(
        x, *(params[f"{ffn}.{n}"] for n in ("w1", "b1", "w2", "b2")),
        params[f"{norm}.gain"], params[f"{norm}.bias"], keep, rate,
    )
    return out, kv


# ---------------------------------------------------------------------------
# full model


@dataclass
class ForwardResult:
    rep: Tensor  # [n_target_tokens x d], the output projection's input, row-major token order
    encoder_trace: AttentionTrace | None
    decoder_trace: AttentionTrace | None


class Transformer:
    """Encoder-decoder with an optional fusion layer on either side.

    Decoder-side fusion replaces the top decoder representation as the sole
    input of the output projection; encoder-side fusion replaces the top
    encoder representation as the key/value source of every decoder
    cross-attention sublayer.
    """

    def __init__(self, config: ModelConfig, fusion=None, params=None, seed: int = 0):
        """Draw fresh float64 weights from ``seed``, or adopt ``params`` after
        checking them against ``param_specs``; the model computes in their
        dtype."""
        self.config = config
        self.fusion = fusion if fusion is not None else FusionConfig()
        if params is None:
            params = init_parameters(config, self.fusion, seed)
        else:
            check_params(params, param_specs(config, self.fusion))
        self.params = params
        self.dropout_rng = np.random.default_rng(seed)

    # -- embedding + stacks

    def _embed(self, table: str, ids, tokens, train: bool, start: int = 0) -> Tensor:
        """Embed [B x L] ids at positions ``start`` to ``start + L - 1``, in the table's dtype."""
        ids = np.asarray(ids, dtype=np.int64)
        end = start + ids.shape[1]
        if end > self.config.max_len:
            raise ValueError(f"sentence length {end} exceeds max_len={self.config.max_len}")
        rate = self.config.dropout if train else 0.0
        keep = ad.dropout_keep(ids.shape + (self.config.d_model,), rate, self.dropout_rng, tokens)
        weights = self.params[table]
        pe = positional_encoding(end, self.config.d_model, start)
        return ad.embed(weights, ids, pe.astype(weights.data.dtype, copy=False), keep, rate)

    def encode(self, src_ids, src_mask, train: bool = False) -> list[Tensor]:
        """Run the encoder on [B x L] ids; returns n_layers+1 reps of
        [B x L x d] (embedding output first)."""
        cfg = self.config
        rate = cfg.dropout if train else 0.0
        src_mask = np.asarray(src_mask, dtype=bool)
        keys = src_mask[:, None, None, :]
        stack = [self._embed("src_embed.weight", src_ids, src_mask, train)]
        for i in range(cfg.n_layers):
            x = stack[-1]
            out, _ = layer(
                x, [("self_attn", x, None, keys)], self.params, f"encoder.layer{i}",
                cfg.n_heads, rate, self.dropout_rng, src_mask,
            )
            stack.append(out)
        return stack

    def decode_teacher_forced(
        self,
        tgt_in_ids,
        tgt_mask,
        memory: Tensor | Sequence[KeyValues],
        src_mask,
        train: bool = False,
        past: Sequence[KeyValues] | None = None,
    ) -> tuple[list[Tensor], list[KeyValues]]:
        """The decoder stack on [B x L] ids at target positions t to t+L-1,
        where t is the number of positions in ``past`` (0 when it is None).

        ``memory`` is the encoder output [B x Ls x d], which each layer's
        cross-attention node projects, or ``cross_key_values`` of it, cached.
        Teacher forcing passes the BOS-shifted gold prefixes with their masks
        and no ``past``: pad keys and later positions are masked and
        ``train`` turns dropout on.  A decoding step passes the newest tokens
        of k hypotheses with no masks, the cached cross keys and values, and
        ``past`` from the previous step, which each new row reads in full.
        Cached arrays are forward-only: a pass over them runs under
        ``ad.no_grad``.  Returns the n_layers+1 reps [B x L x d] (embedding
        output first) and, for a decoding step, each layer's self-attention
        keys and values [B x t+L x d] over positions 0 to t+L-1; teacher
        forcing collects none, so each layer's are freed as the next layer
        starts.
        """
        cfg = self.config
        rate = cfg.dropout if train else 0.0
        self_mask = cross_mask = None
        if tgt_mask is not None:
            tgt_mask = np.asarray(tgt_mask, dtype=bool)
            n = tgt_mask.shape[1]
            self_mask = np.tril(np.ones((n, n), dtype=bool)) & tgt_mask[:, None, None, :]
            cross_mask = np.asarray(src_mask, dtype=bool)[:, None, None, :]
        if isinstance(memory, Tensor):
            cross = [(memory, None)] * cfg.n_layers
        else:
            cross = [(None, kv) for kv in memory]
        t = 0 if past is None else past[0][0].shape[1]
        stack = [self._embed("tgt_embed.weight", tgt_in_ids, tgt_mask, train, start=t)]
        self_kv = []
        for i in range(cfg.n_layers):
            z = stack[-1]
            attn = [
                ("self_attn", z, None if past is None else past[i], self_mask),
                ("cross_attn", *cross[i], cross_mask),
            ]
            out, (kv, _) = layer(
                z, attn, self.params, f"decoder.layer{i}", cfg.n_heads, rate,
                self.dropout_rng, tgt_mask,
            )
            stack.append(out)
            if tgt_mask is None:
                self_kv.append(kv)
        return stack, self_kv

    def cross_key_values(self, enc_rep: Tensor) -> list[KeyValues]:
        """Each decoder layer's cross-attention keys and values of
        ``enc_rep``, off the tape, for a decoder to cache."""
        prefixes = [f"decoder.layer{i}.cross_attn" for i in range(self.config.n_layers)]
        return [
            ad.key_values(enc_rep, *(self.params[f"{p}.{n}"] for n in ("wk", "bk", "wv", "bv")))
            for p in prefixes
        ]

    # -- fusion hooks

    def encoder_output(self, stack: list[Tensor], src_mask):
        """Representation handed to the decoder, [B x L x d]: fused, or the
        top layer.  A fusion trace covers the real positions only."""
        rep, trace = fuse_side(stack, "encoder", self.fusion, self.params)
        if trace is not None:
            trace = AttentionTrace(
                trace.weights[np.asarray(src_mask, dtype=bool)], trace.first_layer
            )
        return rep, trace

    def decoder_output(self, stack: list[Tensor], tgt_mask):
        """Representation handed to the output projection: with a
        ``tgt_mask``, its real rows [n_tokens x d], taken before fusion so
        padding costs nothing; with None (a decoding step, whose rows are
        all real), the fusion of every row, [B x L x d]."""
        return fuse_side(stack, "decoder", self.fusion, self.params, rows=tgt_mask)

    def output_logits(self, rep: Tensor) -> np.ndarray:
        """The logits [n_tokens x V] of ``rep`` [..., d] for decoding, from
        arrays: no tape node.  The leading axes are flattened first, so the
        product is one [n_tokens x d] @ [d x V] GEMM, whatever the layout of
        ``rep``; a batched product rounds differently."""
        rows = rep.data.reshape(-1, rep.shape[-1])
        return rows @ self.params["output.weight"].data + self.params["output.bias"].data

    def loss(self, rep: Tensor, targets) -> tuple[Tensor, int]:
        """Mean cross-entropy of the output projection of ``rep`` against
        ``targets``, and how many rows predict their target.  The logits
        exist one ``ad.BLOCK_ROWS``-row block at a time, never as a whole
        [n_tokens x V] array; in training the loss node holds its gradients,
        formed in the forward pass, in their place."""
        return ad.cross_entropy(
            rep, self.params["output.weight"], self.params["output.bias"], targets
        )

    def forward(
        self,
        src_ids,
        src_mask,
        tgt_in_ids,
        tgt_mask,
        train: bool = False,
    ) -> ForwardResult:
        """The teacher-forced representation of a padded batch's real target
        tokens, which ``loss`` and ``output_logits`` project, plus any fusion
        traces."""
        src_ids, src_mask = _trim_batch(src_ids, src_mask)
        tgt_in_ids, tgt_mask = _trim_batch(tgt_in_ids, tgt_mask)
        enc_rep, enc_trace = self.encoder_output(
            self.encode(src_ids, src_mask, train), src_mask
        )
        stack, _ = self.decode_teacher_forced(tgt_in_ids, tgt_mask, enc_rep, src_mask, train)
        dec_rep, dec_trace = self.decoder_output(stack, tgt_mask)
        return ForwardResult(dec_rep, enc_trace, dec_trace)

    # -- misc

    def reseed_dropout(self, seed) -> None:
        self.dropout_rng = np.random.default_rng(seed)
