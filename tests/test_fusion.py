"""Fusion functions: values, shapes, distributions, reachability, counts."""

import math
import re

import numpy as np
import pytest

from mlrf import autodiff as ad
from mlrf import config
from mlrf.checkpoint import RunMeta
from mlrf.config import DataConfig
from mlrf.decoding import BeamConfig
from mlrf.fusion import FusionConfig, field_types, fuse_side
from mlrf.model import Transformer, init_parameters, param_specs
from mlrf.training import TrainConfig
from tests.conftest import (
    count_scalars, fusion_tail, padded, random_sentences, sum_, toy_config, toy_model,
)
from tests.gradcheck import max_rel_err, mul, numeric_grad, numeric_grad_at

ALL_SIDES_AND_KINDS = [
    (side, kind)
    for kind in ("avg", "fnn", "self_attention")
    for side in ("encoder", "decoder", "both")
]


def forward_toy(model, rng_seed=11):
    rng = np.random.default_rng(rng_seed)
    src_ids, src_lens = random_sentences(rng, 2)
    tgt_ids, tgt_lens = random_sentences(rng, 2)
    tgt_out = np.concatenate([tgt_ids[1:], [2]])
    return model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens)), tgt_out


class TestBaseline:
    def test_returns_top_layer_object(self):
        model = toy_model()
        stack = model.encode(*padded(np.array([4, 5, 6]), [3]))
        top, trace = fuse_side(stack, "encoder", model.fusion, model.params)
        assert top is stack[-1] and trace is None

    def test_decoder_baseline_equals_unfused_model(self):
        plain = toy_model(seed=21)
        fused = toy_model("decoder", "baseline", seed=21)
        (ra, out), (rb, _) = forward_toy(plain), forward_toy(fused)
        np.testing.assert_array_equal(
            plain.output_logits(ra.rep), fused.output_logits(rb.rep)
        )

        for model, result in ((plain, ra), (fused, rb)):
            model.params.zero_grads()
            ad.backward(model.loss(result.rep, out)[0])
        for name, p in plain.params.items():
            np.testing.assert_array_equal(p.grad, fused.params[name].grad)

    def test_adds_no_parameters(self):
        plain = toy_model(seed=0)
        fused = toy_model("decoder", "baseline", seed=0)
        assert count_scalars(plain.params) == count_scalars(fused.params)


class TestAvg:
    def test_equal_layers_give_normalized_value(self):
        model = toy_model("decoder", "avg")
        v = np.random.default_rng(0).standard_normal((4, 8))
        out, _ = fuse_side([ad.Tensor(v)] * 3, "decoder", model.fusion, model.params)
        gain = model.params["fusion.decoder.post_norm.gain"]
        bias = model.params["fusion.decoder.post_norm.bias"]
        expect = ad.layer_norm(ad.Tensor(v), gain, bias)
        np.testing.assert_allclose(out.data, expect.data, atol=1e-12)

    def test_mean_arithmetic(self):
        model = toy_model("decoder", "avg")
        a = ad.Tensor(np.tile([1.0, 3.0], (1, 4)))
        b = ad.Tensor(np.tile([3.0, 5.0], (1, 4)))
        out, _ = fuse_side([a, b], "decoder", model.fusion, model.params)
        gain = model.params["fusion.decoder.post_norm.gain"]
        bias = model.params["fusion.decoder.post_norm.bias"]
        mean = ad.Tensor(np.tile([2.0, 4.0], (1, 4)))
        np.testing.assert_allclose(
            out.data, ad.layer_norm(mean, gain, bias).data, atol=1e-12
        )

    def test_adds_exactly_two_d_parameters(self):
        plain = toy_model(seed=0)
        fused = toy_model("decoder", "avg", seed=0)
        d = plain.config.d_model
        assert count_scalars(fused.params) - count_scalars(plain.params) == 2 * d


class TestFnn:
    def test_output_width_is_d(self):
        for include in (True, False):
            model = toy_model("decoder", "fnn", include_embedding=include)
            (res, _), d = forward_toy(model), model.config.d_model
            assert model.output_logits(res.rep).shape[1] == model.config.tgt_vocab
            src, src_mask = padded(np.array([4, 5, 6]), [3])
            enc, _ = model.encoder_output(model.encode(src, src_mask), src_mask)
            tgt, tgt_mask = padded(np.array([1, 4]), [2])
            cross_kv = model.cross_key_values(enc)
            with ad.no_grad():  # cached keys and values are forward-only
                stack, _ = model.decode_teacher_forced(tgt, tgt_mask, cross_kv, src_mask)
                fused, _ = model.decoder_output(stack, tgt_mask)
            assert fused.shape == (2, d)

    def test_gradient_through_fusion(self):
        model = toy_model("decoder", "fnn", seed=13)
        result, tgt_out = forward_toy(model)
        model.params.zero_grads()
        ad.backward(model.loss(result.rep, tgt_out)[0])
        rng = np.random.default_rng(1)

        def loss():
            with ad.no_grad():
                r, _ = forward_toy(model)
                return model.loss(r.rep, tgt_out)[0].item()

        for name in ("fusion.decoder.fnn.w1", "fusion.decoder.fnn.w2", "fusion.decoder.fnn.b1"):
            p = model.params[name]
            idx = int(rng.integers(p.size))
            num = numeric_grad_at(loss, p.data, idx)
            assert max_rel_err(float(p.grad.reshape(-1)[idx]), num) < 1e-4


class TestSelfAttention:
    def test_zero_energy_projection_gives_uniform_hops(self):
        model = toy_model("decoder", "self_attention")
        model.params["fusion.decoder.att.w2"].data[:] = 0.0
        result, _ = forward_toy(model)
        trace = result.decoder_trace
        np.testing.assert_allclose(trace.weights, 1.0 / trace.weights.shape[2], atol=1e-12)

    def test_single_hop_degrades_to_one_vector(self):
        model = toy_model("decoder", "self_attention", n_hop=1)
        d, d_f = model.config.d_model, model.fusion.d_f
        # the hop stack flattens to a single width-d vector per position
        assert model.params["fusion.decoder.fnn.w1"].shape == (d, d_f)
        result, _ = forward_toy(model)
        assert result.decoder_trace.weights.shape[1] == 1

    def test_weights_are_distributions_everywhere(self):
        model = toy_model("both", "self_attention", seed=17)
        result, _ = forward_toy(model)
        for trace in (result.encoder_trace, result.decoder_trace):
            w = trace.weights
            assert ((w >= 0) & (w <= 1)).all()
            np.testing.assert_allclose(w.sum(axis=2), 1.0, atol=1e-9)

    def test_layer_embedding_row_count_must_match(self):
        model = toy_model("decoder", "self_attention")
        stack = [ad.Tensor(np.zeros((2, 8)))] * 2  # too short: config fuses 3
        with pytest.raises(ValueError, match="layer_attention shape mismatch"):
            fuse_side(stack, "decoder", model.fusion, model.params)

    def test_gradient_through_fusion(self):
        model = toy_model("decoder", "self_attention", seed=19)
        result, tgt_out = forward_toy(model)
        model.params.zero_grads()
        ad.backward(model.loss(result.rep, tgt_out)[0])
        rng = np.random.default_rng(2)

        def loss():
            with ad.no_grad():
                r, _ = forward_toy(model)
                return model.loss(r.rep, tgt_out)[0].item()

        for name in (
            "fusion.decoder.att.w1",
            "fusion.decoder.att.w2",
            "fusion.layer_embed.weight",
            "fusion.decoder.fnn.w2",
        ):
            p = model.params[name]
            idx = int(rng.integers(p.size))
            num = numeric_grad_at(loss, p.data, idx)
            assert max_rel_err(float(p.grad.reshape(-1)[idx]), num) < 1e-4


FUSE_CASES = [
    (kind, include, share)
    for kind in ("baseline", "avg", "fnn", "self_attention")
    for include in (True, False)
    for share in ((True, False) if kind == "self_attention" else (True,))
]


class TestFuseSideGradients:
    @pytest.mark.parametrize("kind,include_embedding,share_w1", FUSE_CASES)
    def test_real_rows_gradient_matches_finite_differences(
        self, kind, include_embedding, share_w1
    ):
        """Gradients of the fused real rows reach every included layer and
        fusion parameter, and no layer gets one outside the rows."""
        model = toy_model(
            "decoder", kind, include_embedding=include_embedding, share_w1=share_w1
        )
        r = np.random.default_rng(4)
        stack = [ad.Tensor(r.standard_normal((2, 3, 8)), requires_grad=True) for _ in range(3)]
        rows = np.array([[True, True, False], [True, False, False]])
        fusion = [p for name, p in model.params.items() if name.startswith("fusion.")]

        def run():
            return fuse_side(stack, "decoder", model.fusion, model.params, rows=rows)[0]

        w = r.standard_normal((3, 8))

        def loss():
            with ad.no_grad():
                return float((run().data * w).sum())

        ad.backward(sum_(mul(run(), ad.Tensor(w))))
        fused = stack[-1:] if kind == "baseline" else stack[0 if include_embedding else 1 :]
        for t in fused + fusion:
            assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < 1e-5
        for t in stack:
            assert t.grad is None if t not in fused else not t.grad[~rows].any()


class TestFusionTail:
    @pytest.mark.parametrize("kind", ["fnn", "self_attention"])
    def test_one_node_equals_the_three_node_chain(self, kind):
        """``fuse_side`` ends ``fnn`` and ``self_attention`` in one
        residual-free FFN node.  Its output and every gradient, of the layers
        and of each fusion parameter, equal those of the ``linear`` + relu,
        ``linear`` and ``layer_norm`` chain bit for bit, over more than one
        block of ``ad.BLOCK_ROWS`` positions."""
        model = toy_model("decoder", kind, seed=29)
        params, p = model.params, "fusion.decoder"
        r = np.random.default_rng(6)
        rows = r.random((3, ad.BLOCK_ROWS // 2)) < 0.9
        assert rows.sum() > ad.BLOCK_ROWS
        stack = [ad.Tensor(r.standard_normal(rows.shape + (8,)), requires_grad=True)
                 for _ in range(3)]
        weight = ad.Tensor(r.standard_normal((int(rows.sum()), 8)))
        fusion = [t for name, t in params.items() if name.startswith("fusion.")]

        def chain():
            x = ad.gather_layers(stack, rows)
            if kind == "self_attention":
                x, _ = ad.layer_attention(
                    x, params["fusion.layer_embed.weight"],
                    params[f"{p}.att.w1"], params[f"{p}.att.w2"],
                )
            names = ("fnn.w1", "fnn.b1", "fnn.w2", "fnn.b2", "post_norm.gain", "post_norm.bias")
            return fusion_tail(x, *(params[f"{p}.{n}"] for n in names))

        runs = []
        for run in (lambda: fuse_side(stack, "decoder", model.fusion, params, rows)[0], chain):
            for t in stack + fusion:
                t.grad = None
            out = run()
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data] + [t.grad for t in stack + fusion])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)


class TestAttach:
    def test_both_sides_with_distinct_kinds(self):
        fused = Transformer(
            toy_config(),
            FusionConfig(
                side="both", enc_kind="fnn", dec_kind="self_attention",
                n_hop=3, d_a=16, d_f=12,
            ),
            seed=3,
        )
        result, _ = forward_toy(fused)
        assert result.encoder_trace is None  # fnn side has no trace
        assert result.decoder_trace is not None

    def test_include_embedding_changes_input_length_by_one(self):
        with_emb = toy_model("decoder", "self_attention", include_embedding=True)
        without = toy_model("decoder", "self_attention", include_embedding=False)
        (ra, _), (rb, _) = forward_toy(with_emb), forward_toy(without)
        assert ra.decoder_trace.weights.shape[2] == rb.decoder_trace.weights.shape[2] + 1
        assert ra.decoder_trace.first_layer == 0
        assert rb.decoder_trace.first_layer == 1


class TestReachabilityAndShapes:
    @pytest.mark.parametrize("side,kind", ALL_SIDES_AND_KINDS)
    def test_every_included_layer_gets_gradient(self, side, kind):
        model = toy_model(side, kind, seed=23)
        result, tgt_out = forward_toy(model)
        model.params.zero_grads()
        ad.backward(model.loss(result.rep, tgt_out)[0])
        stacks = {"encoder": ["encoder"], "decoder": ["decoder"], "both": ["encoder", "decoder"]}
        for stack_name in stacks[side]:
            for layer in range(model.config.n_layers):
                prefix = f"{stack_name}.layer{layer}."
                total = sum(
                    float(np.abs(p.grad).sum())
                    for name, p in model.params.items()
                    if name.startswith(prefix) and p.grad is not None
                )
                assert total > 0, f"no gradient reached {prefix}"
        emb = {"encoder": "src_embed.weight", "decoder": "tgt_embed.weight"}
        for stack_name in stacks[side]:
            grad = model.params[emb[stack_name]].grad
            assert grad is not None and np.abs(grad).sum() > 0

    @pytest.mark.parametrize("side,kind", ALL_SIDES_AND_KINDS)
    def test_fused_shape_matches_sequence_by_width(self, side, kind):
        model = toy_model(side, kind)
        src, src_mask = padded(np.array([4, 5, 6, 7, 8, 9]), [4, 2])
        enc, _ = model.encoder_output(model.encode(src, src_mask), src_mask)
        assert enc.shape == (2, 4, model.config.d_model)
        tgt, tgt_mask = padded(np.array([1, 4, 5, 1]), [3, 1])
        cross_kv = model.cross_key_values(enc)
        with ad.no_grad():  # cached keys and values are forward-only
            dec_stack, _ = model.decode_teacher_forced(tgt, tgt_mask, cross_kv, src_mask)
            dec, _ = model.decoder_output(dec_stack, tgt_mask)
        assert dec.shape == (4, model.config.d_model)


# Closed-form parameter accounting, written independently of param_specs so
# the table (and the store drawn from it) can be checked against it.


def kind_param_delta(
    kind: str,
    n_inputs: int,
    d: int,
    d_a: int,
    d_f: int,
    n_hop: int,
    share_w1: bool,
    count_layer_embed: bool = True,
) -> int:
    """Extra trainable scalars one fusion site adds over the baseline path.

    ``n_inputs`` is the number of fused layers (n_layers+1 when the
    embedding layer is included).  For self-attention fusion the layer
    embedding table is counted only when ``count_layer_embed`` (a shared
    table must be counted once, not per side).
    """
    if kind == "baseline":
        return 0
    if kind == "avg":
        return 2 * d  # post-fusion norm only
    if kind == "fnn":
        return (n_inputs * d) * d_f + d_f + d_f * d + d + 2 * d
    if kind == "self_attention":
        w1 = d * d_a if share_w1 else n_inputs * d * d_a
        w2 = d_a * n_hop
        emb = n_inputs * d if count_layer_embed else 0
        fnn = (n_hop * d) * d_f + d_f + d_f * d + d
        return w1 + w2 + emb + fnn + 2 * d
    raise ValueError(f"unknown fusion kind {kind!r}")


def fusion_param_count(cfg: FusionConfig, n_layers: int, d: int) -> int:
    """Total trainable scalars the whole fusion configuration adds."""
    n_inputs = n_layers + 1 if cfg.include_embedding else n_layers
    total = 0
    counted_shared_embed = False
    for side in ("encoder", "decoder"):
        kind = cfg.kind_for(side)
        count_embed = True
        if kind == "self_attention" and cfg.share_layer_embedding:
            count_embed = not counted_shared_embed
            counted_shared_embed = True
        total += kind_param_delta(
            kind, n_inputs, d, cfg.d_a, cfg.d_f, cfg.n_hop, cfg.share_w1, count_embed
        )
    return total


class TestParameterAccounting:
    @pytest.mark.parametrize("side,kind", ALL_SIDES_AND_KINDS)
    @pytest.mark.parametrize("share_w1", [True, False])
    @pytest.mark.parametrize("include_embedding", [True, False])
    def test_closed_form_matches_store_exactly(self, side, kind, share_w1, include_embedding):
        base = toy_model(seed=0)
        fused = toy_model(
            side, kind, seed=0, share_w1=share_w1, include_embedding=include_embedding
        )
        expected = fusion_param_count(fused.fusion, base.config.n_layers, base.config.d_model)
        assert count_scalars(fused.params) - count_scalars(base.params) == expected
        rows = param_specs(fused.config, fused.fusion)
        assert sum(s.size for s in rows if s.name.startswith("fusion.")) == expected

    def test_split_layer_embedding_counts_twice(self):
        cfg = toy_model().config
        shared = FusionConfig(
            side="both", enc_kind="self_attention", dec_kind="self_attention",
            n_hop=3, d_a=16, d_f=12, share_layer_embedding=True,
        )
        split = FusionConfig(
            side="both", enc_kind="self_attention", dec_kind="self_attention",
            n_hop=3, d_a=16, d_f=12, share_layer_embedding=False,
        )
        n_shared = count_scalars(init_parameters(cfg, shared, 0))
        n_split = count_scalars(init_parameters(cfg, split, 0))
        rows = cfg.n_layers + 1
        assert n_split - n_shared == rows * cfg.d_model
        assert n_split - count_scalars(init_parameters(cfg, FusionConfig(), 0)) == \
            fusion_param_count(split, cfg.n_layers, cfg.d_model)

    def test_per_layer_w1_delta(self):
        d, d_a, n_inputs = 8, 16, 3
        shared = kind_param_delta("self_attention", n_inputs, d, d_a, 12, 3, True)
        per_layer = kind_param_delta("self_attention", n_inputs, d, d_a, 12, 3, False)
        assert per_layer - shared == (n_inputs - 1) * d * d_a


class TestConfigValidation:
    def test_bad_side(self):
        with pytest.raises(ValueError):
            FusionConfig(side="left")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            FusionConfig(enc_kind="pooling")

    def test_bad_hops(self):
        with pytest.raises(ValueError):
            FusionConfig(n_hop=0)

    @pytest.mark.parametrize("key,value", [("n_hop", True), ("d_a", 16.0), ("d_f", 2.5)])
    def test_integer_fields_refuse_bools_and_floats(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            FusionConfig(**{key: value})


# (config class, field values, the error): one field of each type, and each
# config class that checks its fields
MISTYPED = [
    (FusionConfig, {"include_embedding": "x"}, "include_embedding must be a bool, got 'x'"),
    (FusionConfig, {"share_w1": 1}, "share_w1 must be a bool, got 1"),
    (FusionConfig, {"side": 1}, "side must be a string, got 1"),
    (TrainConfig, {"clip_norm": True}, "clip_norm must be a number, got True"),
    (TrainConfig, {"restart_lr": math.nan}, "restart_lr must be a number, got nan"),
    (TrainConfig, {"seed": "x"}, "seed must be an integer, got 'x'"),
    (DataConfig, {"alphabet": 20.0}, "alphabet must be an integer, got 20.0"),
    (DataConfig, {"task": 3}, "task must be a string, got 3"),
    (config._RunSection, {"seed": True}, "seed must be an integer, got True"),
    (BeamConfig, {"width": 2.0}, "width must be an integer, got 2.0"),
    (BeamConfig, {"length_alpha": None}, "length_alpha must be a number, got None"),
    (RunMeta, {"src_vocab_tokens": ["a", 1]}, "src_vocab_tokens must be a list of strings"),
    (RunMeta, {"tgt_vocab_tokens": "ab"}, "tgt_vocab_tokens must be a list of strings"),
]


class TestCheckTypes:
    @pytest.mark.parametrize(
        "cls,kw,message", MISTYPED, ids=[f"{c.__name__}.{next(iter(k))}" for c, k, _ in MISTYPED]
    )
    def test_a_field_refuses_a_value_of_another_type(self, cls, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**kw)

    def test_a_float_field_takes_an_int_and_an_optional_field_none(self):
        assert TrainConfig(restart_lr=1, clip_norm=None).restart_lr == 1
        assert RunMeta(last_valid_acc=None, src_vocab_tokens=None).src_vocab_tokens is None
        assert toy_config(dropout=0).dropout == 0

    def test_field_types_reads_optional_annotations(self):
        types = field_types(RunMeta)
        assert types["seed"] == (int, False)
        assert types["last_valid_acc"] == (float, True)
        assert types["src_vocab_tokens"] == (list[str], True)
