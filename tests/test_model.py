"""Transformer core: positions, attention, layer contracts, causality."""

import weakref

import numpy as np
import pytest

from mlrf import autodiff as ad
from mlrf.fusion import FusionConfig
from mlrf.model import (
    Transformer,
    attend,
    init_parameters,
    layer,
    positional_encoding,
)
from tests.conftest import (
    add, attention, dropout, linear, padded, random_sentences, sum_, toy_config, toy_fusion,
    toy_model,
)
from tests.gradcheck import max_rel_err, mul, numeric_grad_at


class TestPositionalEncoding:
    def test_position_zero_alternates_zero_one(self):
        pe = positional_encoding(3, 6)
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_first_position_first_channel(self):
        pe = positional_encoding(2, 4)
        np.testing.assert_allclose(pe[1, 0], np.sin(1.0), atol=1e-15)

    def test_bounded(self):
        pe = positional_encoding(50, 16)
        assert (np.abs(pe) <= 1.0).all()

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            positional_encoding(4, 5)

    @pytest.mark.parametrize("d", [16, 32, 256, 300])
    def test_rows_from_start_equal_the_full_table_bit_for_bit(self, d):
        full = positional_encoding(1024, d)
        for start in range(0, 1024, 31):
            for end in {start + 1, min(start + 7, 1024), min(start + 100, 1024), 1024}:
                np.testing.assert_array_equal(positional_encoding(end, d, start), full[start:end])


def self_attention(x, params, prefix, mask=None):
    """The self-attention sublayer ``prefix`` (of layer 0, so its norm is
    ``norm1``) as ``attend`` runs it, unmasked and without dropout."""
    norm = prefix.rsplit(".", 1)[0] + ".norm1"
    return attend(x, x, None, 2, params, prefix, norm, mask)[0]


def post_norm(x, sub):
    """``layer_norm(x + sub)`` at a fresh norm's unit gain and zero bias."""
    s = x + sub
    s -= s.mean(axis=-1, keepdims=True)
    return s / np.sqrt((s * s).mean(axis=-1, keepdims=True) + 1e-6)


class TestModelConfig:
    @pytest.mark.parametrize("key,value", [
        ("n_layers", 2.5), ("n_heads", True), ("max_len", True), ("max_len", 2.5),
        ("d_model", 8.0), ("src_vocab", False),
    ])
    def test_integer_fields_refuse_bools_and_floats(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            toy_config(**{key: value})

    def test_numpy_integers_are_integers(self):
        assert toy_config(n_layers=np.int64(3)).n_layers == 3


class TestMultiHeadAttention:
    def setup_method(self):
        self.model = toy_model()
        self.params = self.model.params
        self.prefix = "encoder.layer0.self_attn"

    def test_single_position_passes_value_through(self):
        r = np.random.default_rng(0)
        x = ad.Tensor(r.standard_normal((1, 1, 8)))
        out = self_attention(x, self.params, self.prefix)
        p = self.params
        v = x.data[0] @ p[f"{self.prefix}.wv"].data + p[f"{self.prefix}.bv"].data
        expect = v @ p[f"{self.prefix}.wo"].data + p[f"{self.prefix}.bo"].data
        np.testing.assert_allclose(out.data[0], post_norm(x.data[0], expect), atol=1e-12)

    def test_fully_masked_row_is_finite_and_flagged(self, caplog):
        r = np.random.default_rng(0)
        x = ad.Tensor(r.standard_normal((1, 3, 8)))
        mask = np.ones((1, 1, 3, 3), bool)
        mask[..., 1, :] = False  # every key hidden from query 1
        with caplog.at_level("DEBUG", logger="mlrf.model"):
            out = self_attention(x, self.params, self.prefix, mask)
        assert np.isfinite(out.data).all()
        assert any("every key masked" in rec.message for rec in caplog.records)

    def test_weights_are_distributions_and_output_reconstructs(self):
        r = np.random.default_rng(1)
        x = ad.Tensor(r.standard_normal((1, 4, 8)))
        mask = np.tril(np.ones((4, 4), bool))
        out = self_attention(x, self.params, self.prefix, mask[None, None])

        p = self.params
        q = x.data[0] @ p[f"{self.prefix}.wq"].data + p[f"{self.prefix}.bq"].data
        k = x.data[0] @ p[f"{self.prefix}.wk"].data + p[f"{self.prefix}.bk"].data
        v = x.data[0] @ p[f"{self.prefix}.wv"].data + p[f"{self.prefix}.bv"].data
        merged = []
        for h in range(2):
            s = np.s_[:, h * 4 : (h + 1) * 4]
            scores = q[s] @ k[s].T / np.sqrt(4.0) + np.where(mask, 0.0, -1e9)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            merged.append(w @ v[s])
        expect = np.hstack(merged) @ p[f"{self.prefix}.wo"].data + p[f"{self.prefix}.bo"].data
        np.testing.assert_allclose(out.data[0], post_norm(x.data[0], expect), atol=1e-12)

    def test_key_padding_hides_pad_keys(self):
        r = np.random.default_rng(3)
        x = ad.Tensor(r.standard_normal((2, 4, 8)))
        keys = np.array([[True] * 4, [True, True, False, False]])
        out = self_attention(x, self.params, self.prefix, keys[:, None, None])
        short = ad.Tensor(x.data[1:, :2])
        alone = self_attention(short, self.params, self.prefix)
        np.testing.assert_allclose(out.data[1, :2], alone.data[0], atol=1e-12)

    def test_mask_shape_mismatch(self):
        x = ad.Tensor(np.zeros((1, 3, 8)))
        with pytest.raises(ValueError):
            self_attention(x, self.params, self.prefix, np.ones((1, 1, 2, 3), bool))


def encoder_layer(x, params, prefix):
    """``layer`` as ``Transformer.encode`` runs it, unmasked and without dropout."""
    return layer(x, [("self_attn", x, None, None)], params, prefix, 2)[0]


class TestEncoderLayer:
    def test_zeroed_sublayers_reduce_to_iterated_layer_norm(self):
        model = toy_model()
        prefix = "encoder.layer0"
        for name, t in model.params.items():
            if name.startswith(prefix) and "norm" not in name:
                t.data[:] = 0.0
        r = np.random.default_rng(2)
        x = ad.Tensor(r.standard_normal((1, 5, 8)))
        out = encoder_layer(x, model.params, prefix)
        ones, zeros = ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8))
        expect = ad.layer_norm(ad.layer_norm(x, ones, zeros), ones, zeros)
        np.testing.assert_array_equal(out.data, expect.data)

    def test_shape_preserved(self):
        model = toy_model()
        x = ad.Tensor(np.random.default_rng(3).standard_normal((2, 6, 8)))
        out = encoder_layer(x, model.params, "encoder.layer1")
        assert out.shape == x.shape

    def test_gradient_through_layer(self):
        model = toy_model()
        r = np.random.default_rng(4)
        x = ad.Tensor(r.standard_normal((1, 3, 8)), requires_grad=True)
        w = r.standard_normal((1, 3, 8))

        def loss():
            with ad.no_grad():
                out = encoder_layer(x, model.params, "encoder.layer0")
                return float((out.data * w).sum())

        out = encoder_layer(x, model.params, "encoder.layer0")
        ad.backward(sum_(mul(out, ad.Tensor(w))))
        got = x.grad.copy()
        for idx in [0, 7, 13, 23]:
            num = numeric_grad_at(loss, x.data, idx)
            assert max_rel_err(got.reshape(-1)[idx], num) < 1e-4


class TestPostNorm:
    @pytest.mark.parametrize("rate,masked", [(0.0, False), (0.3, False), (0.3, True)])
    def test_matches_the_unfused_chain_bit_for_bit(self, rate, masked):
        """``attend`` gives the output, the keys and values and the grads of
        the key, value and query projections, attention, output projection,
        dropout, add and layer_norm, and consumes the generator as that chain
        did, so the pinned training losses keep their dropout draws."""
        model = toy_model()
        prefix, norm = "encoder.layer0.self_attn", "encoder.layer0.norm1"
        names = [f"{prefix}.{n}" for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]
        names += [f"{norm}.gain", f"{norm}.bias"]
        r = np.random.default_rng(5)
        x = ad.Tensor(r.standard_normal((2, 4, 8)), requires_grad=True)
        weight = ad.Tensor(r.standard_normal((2, 4, 8)))
        tokens = np.array([[True, True, True, False], [True, True, False, False]])
        tokens = tokens if masked else None
        keys = None if tokens is None else tokens[:, None, None, :]
        p = model.params

        def fused(gen):
            return attend(x, x, None, 2, p, prefix, norm, keys, rate, gen, tokens)

        def chain(gen):
            q, k, v = (linear(x, p[f"{prefix}.w{n}"], p[f"{prefix}.b{n}"]) for n in "qkv")
            sub = linear(attention(q, k, v, 2, keys), p[f"{prefix}.wo"], p[f"{prefix}.bo"])
            out = ad.layer_norm(add(x, dropout(sub, rate, gen, tokens)), p[f"{norm}.gain"],
                                p[f"{norm}.bias"])
            return out, (k.data, v.data)

        runs = []
        for op in (fused, chain):
            gen = np.random.default_rng(11)
            for t in [x] + [p[n] for n in names]:
                t.grad = None
            out, kv = op(gen)
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data, *kv, x.grad] + [p[n].grad for n in names] + [gen.random()])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)


class TestStacks:
    def test_single_layer_returns_two_reps(self):
        model = Transformer(toy_config(n_layers=1), seed=0)
        stack = model.encode(*padded(np.array([4, 5, 6]), [3]))
        assert len(stack) == 2

    def test_encode_deterministic_at_eval(self):
        a = toy_model(seed=5).encode(*padded(np.array([4, 5]), [2]))
        b = toy_model(seed=5).encode(*padded(np.array([4, 5]), [2]))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.data, y.data)

    def test_layers_transform_their_input(self, rng):
        model = toy_model(seed=6)
        ids, mask = padded(*random_sentences(rng, 2))
        enc, _ = model.encoder_output(model.encode(ids, mask), mask)
        for stack in (
            model.encode(ids, mask),
            model.decode_teacher_forced(ids, mask, model.cross_key_values(enc), mask)[0],
        ):
            assert len(stack) == model.config.n_layers + 1
            for lo, hi in zip(stack, stack[1:]):
                assert lo.shape == hi.shape
                assert not np.allclose(lo.data, hi.data)

    def test_only_decoding_collects_self_attention_keys_and_values(self, rng, monkeypatch):
        """Teacher forcing, which passes a target mask, keeps no layer's
        self-attention keys and values once the next layer has run; a
        decoding step, which passes none, returns each layer's."""
        model = toy_model(seed=6)
        ids, mask = padded(*random_sentences(rng, 2))
        enc, _ = model.encoder_output(model.encode(ids, mask), mask)
        cross_kv = model.cross_key_values(enc)
        real, made = ad.attention_residual_layer_norm, []

        def spy(x, src, past, *args):
            out, kv = real(x, src, past, *args)
            if past is None:  # self-attention: cross-attention reads the cache
                made.extend(weakref.ref(a) for a in kv)
            return out, kv

        monkeypatch.setattr(ad, "attention_residual_layer_norm", spy)
        stack, kv = model.decode_teacher_forced(ids, mask, cross_kv, mask, train=True)
        assert kv == [] and len(made) == 2 * model.config.n_layers
        assert [r for r in made if r() is not None] == []  # the tape holds none either
        assert stack[-1].requires_grad
        _, kv = model.decode_teacher_forced(ids[:, :2], None, cross_kv, None)
        assert [k.shape for k, _ in kv] == [(2, 2, model.config.d_model)] * model.config.n_layers

    def test_too_long_sentence_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError, match="max_len"):
            model.encode(*padded(np.full(9, 4), [9]))


class TestCausality:
    def test_suffix_tokens_cannot_leak_backward(self):
        model = toy_model(seed=7)
        src, src_mask = padded(np.array([4, 5, 6]), [3])
        enc, _ = model.encoder_output(model.encode(src, src_mask), src_mask)
        tgt_a = np.array([1, 4, 5, 6, 7])
        tgt_b = tgt_a.copy()
        j = 2
        tgt_b[j + 1 :] = [9, 10]  # change only positions after j
        cross_kv = model.cross_key_values(enc)
        stack_a, _ = model.decode_teacher_forced(*padded(tgt_a, [5]), cross_kv, src_mask)
        stack_b, _ = model.decode_teacher_forced(*padded(tgt_b, [5]), cross_kv, src_mask)
        for a, b in zip(stack_a, stack_b):
            np.testing.assert_array_equal(a.data[:, : j + 1], b.data[:, : j + 1])

    def test_padded_batch_equals_per_sentence(self, rng):
        """Masking makes a padded batch match one-at-a-time runs."""
        model = toy_model(seed=8)
        src_ids, src_lens = random_sentences(rng, 3)
        tgt_ids, tgt_lens = random_sentences(rng, 3)
        res = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
        so = np.cumsum([0] + src_lens)
        to = np.cumsum([0] + tgt_lens)
        for i in range(3):
            single = model.forward(
                *padded(src_ids[so[i] : so[i + 1]], [src_lens[i]]),
                *padded(tgt_ids[to[i] : to[i + 1]], [tgt_lens[i]]),
            )
            np.testing.assert_allclose(
                model.output_logits(res.rep)[to[i] : to[i + 1]],
                model.output_logits(single.rep),
                atol=1e-9,
            )


class TestFullModelGradients:
    def test_backward_matches_finite_differences(self, rng):
        model = toy_model(seed=9)
        src_ids, src_lens = random_sentences(rng, 2)
        tgt_ids, tgt_lens = random_sentences(rng, 2)
        tgt_out = np.concatenate([tgt_ids[1:], [2]])

        def loss():
            with ad.no_grad():
                r = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
                return model.loss(r.rep, tgt_out)[0].item()

        result = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
        model.params.zero_grads()
        ad.backward(model.loss(result.rep, tgt_out)[0])

        names = model.params.names()
        for _ in range(20):
            name = names[int(rng.integers(len(names)))]
            p = model.params[name]
            idx = int(rng.integers(p.size))
            ana = 0.0 if p.grad is None else float(p.grad.reshape(-1)[idx])
            num = numeric_grad_at(loss, p.data, idx)
            assert max_rel_err(ana, num) < 1e-4, name


class TestAdoptedParams:
    def test_store_of_another_width_is_rejected_at_construction(self):
        store = init_parameters(toy_config(d_model=16, d_ff=32), FusionConfig(), 0)
        with pytest.raises(
            ValueError, match=r"mismatch=\['decoder\.layer0\.cross_attn\.bk \(16,\) vs \(8,\)'"
        ):
            Transformer(toy_config(), FusionConfig(), params=store)

    def test_missing_and_extra_tensors_are_named(self):
        store = init_parameters(toy_config(), toy_fusion("decoder", "avg"), 0)
        with pytest.raises(ValueError, match=r"extra=\['fusion\.decoder\.post_norm\.bias'"):
            Transformer(toy_config(), FusionConfig(), params=store)
        with pytest.raises(ValueError, match=r"missing=\['fusion\.encoder\.post_norm\.bias'"):
            Transformer(toy_config(), toy_fusion("both", "avg"), params=store)

    def test_matching_store_is_adopted_as_is(self):
        fusion = toy_fusion("both", "self_attention", share_w1=False)
        store = init_parameters(toy_config(), fusion, 0)
        assert Transformer(toy_config(), fusion, params=store).params is store
