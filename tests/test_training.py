"""Initialization classes, schedule, Adam + restart, and the train loop."""

import hashlib
import sys

import numpy as np
import pytest

from mlrf.autodiff import ParamStore, Tensor
from mlrf.data import ParallelCorpus, Vocabulary, generate_synthetic, make_batches
from mlrf.data import SyntheticTaskSpec
from mlrf.fusion import FusionConfig
from mlrf.model import ModelConfig, Transformer, init_parameters, param_specs
from mlrf import autodiff as ad
from mlrf.training import (
    ADAM_CHUNK,
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    evaluate_teacher_forced,
    grad_norm,
    lr_schedule,
    restart_adam,
    train_epoch,
    train_step,
)
from tests.conftest import count_scalars, toy_config, toy_fusion, toy_model


class TestInitParameters:
    def test_layer_norms_start_at_identity(self):
        store = init_parameters(toy_config(), toy_fusion("both", "self_attention"), 0)
        for name, t in store.items():
            if "norm" in name and name.endswith(".gain"):
                np.testing.assert_array_equal(t.data, 1.0)
            if "norm" in name and name.endswith(".bias"):
                np.testing.assert_array_equal(t.data, 0.0)

    def test_word_embedding_spread(self):
        d = 256
        cfg = ModelConfig(
            n_layers=1, d_model=d, d_ff=4, n_heads=1,
            src_vocab=500, tgt_vocab=500, max_len=4,
        )
        store = init_parameters(cfg, FusionConfig(), 0)
        emb = store["src_embed.weight"].data
        assert emb.size >= 10**5
        assert abs(emb.std() - d**-0.5) / d**-0.5 < 0.05

    def test_layer_embedding_is_bounded_uniform(self):
        store = init_parameters(toy_config(), toy_fusion("decoder", "self_attention"), 0)
        table = store["fusion.layer_embed.weight"].data
        assert (np.abs(table) <= 0.1).all()
        assert np.abs(table).max() > 0.05  # actually spread out, not zeros

    def test_fan_in_bound_on_weights_and_biases(self):
        store = init_parameters(toy_config(), FusionConfig(), 0)
        w = store["encoder.layer0.ffn.w1"].data  # fan_in = 8
        b = store["encoder.layer0.ffn.b1"].data
        bound = 1 / np.sqrt(8)
        assert (np.abs(w) <= bound).all() and (np.abs(b) <= bound).all()
        w2 = store["encoder.layer0.ffn.w2"].data  # fan_in = 16
        assert (np.abs(w2) <= 1 / np.sqrt(16)).all()

    def test_equal_seeds_are_bit_identical(self):
        a = init_parameters(toy_config(), toy_fusion("both", "fnn"), 42)
        b = init_parameters(toy_config(), toy_fusion("both", "fnn"), 42)
        assert a.names() == b.names()
        for name, t in a.items():
            np.testing.assert_array_equal(t.data, b[name].data)

    def test_core_draws_unaffected_by_fusion(self):
        plain = init_parameters(toy_config(), FusionConfig(), 7)
        fused = init_parameters(toy_config(), toy_fusion("both", "self_attention"), 7)
        for name, t in plain.items():
            np.testing.assert_array_equal(t.data, fused[name].data)


# sha256 over (name, shape, little-endian float64 bytes) of every parameter in
# names() order, at the toy shape with seed 5; one row per fusion branch
INIT_DIGESTS = [
    ("none", "baseline", {}, "c7ed8195584dfa5b7c9cb87ddbf312297b7497834f352ca668506a0c8a1494d9"),
    ("encoder", "avg", {}, "2f288f18e8c93c910be08651659eb7ec15f10932b9be64b20dd7812f62722ae9"),
    ("decoder", "avg", {}, "72d185f0232111a686dd57a0a93717055906d3599d15e814284692f163e7c830"),
    ("both", "avg", {}, "753624a0d2c7f635959e80f14741ff9e6a3ce7df046cb1c24b5e868cbca658ec"),
    ("encoder", "fnn", {}, "994d62352453ffe57b8f68d3509672bf77ca0705033850fd6a6a9c98c3cf886f"),
    ("decoder", "fnn", {}, "584aa050bbb759130352f06207cbbacd0d873ccee9c4caaa2ebbd2570b09b486"),
    ("both", "fnn", {}, "7e5345887a6b794115b190635d3d242a715b9f896b71fab183e8b457bb131407"),
    ("encoder", "self_attention", {}, "b87ac8ef801383d42b41e3791a18c23b5e7019149de1fd0eb125f83433aef5f8"),
    ("decoder", "self_attention", {}, "f432363c1f4661a348395cd748671be21f81a57d58c35659ef9ed2bebed35f45"),
    ("both", "self_attention", {}, "0488e0678d41eab6ea8d52da127b462292af34d4fe9794da0fd40a654d4f6e81"),
    ("both", "self_attention", {"share_w1": False}, "ad1f162b248385945cf2a8fda56adb7240ad30be853d71aad019a0f8d6a9e93c"),
    ("both", "self_attention", {"share_layer_embedding": False}, "741db5a5ef9ff2c47d50909d0f4696c6d9dcba588b31846b069e06fe25e5e43d"),
    ("both", "self_attention", {"include_embedding": False}, "3a480804c4ae9d1bb039b869808a6d2d8f66e84b8b730dffcca2126621c1149f"),
    ("both", "fnn", {"include_embedding": False}, "518e69dac0d10e2b7a2035990ddc7dd87c533ddec5e5d235dc002e6b44ec60ab"),
]


@pytest.mark.parametrize("side,kind,overrides,digest", INIT_DIGESTS)
def test_init_values_are_pinned(side, kind, overrides, digest):
    """Initial values stay bit-identical across refactors, per fusion branch."""
    store = init_parameters(toy_config(), toy_fusion(side, kind, **overrides), 5)
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(name.encode())
        h.update(repr(t.shape).encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


class TestSchedule:
    def test_branches_meet_at_warmup(self):
        assert abs(lr_schedule(16000, 256) - 4.9411e-4) < 1e-7
        up = lr_schedule(16000, 256, 16000)
        down = 256**-0.5 * 16000**-0.5
        assert abs(up - down) < 1e-12

    def test_first_step(self):
        assert abs(lr_schedule(1, 256) - 3.0882e-8) < 1e-11

    def test_shape(self):
        rates = [lr_schedule(t, 256, warmup_steps=100) for t in range(1, 301)]
        assert all(a < b for a, b in zip(rates[:99], rates[1:100]))
        assert all(a > b for a, b in zip(rates[100:299], rates[101:300]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 256)


def scalar_store(value: float) -> ParamStore:
    store = ParamStore()
    store.add("p", Tensor(np.array([value])))
    return store


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        store = scalar_store(1.5)
        store["p"].grad = np.zeros(1)
        state = AdamState(store)
        adam_step(store, state, lr=0.1)
        np.testing.assert_array_equal(store["p"].data, [1.5])

    def test_hand_computed_first_step(self):
        store = scalar_store(1.0)
        store["p"].grad = np.ones(1)
        state = AdamState(store)
        adam_step(store, state, lr=0.1)
        # bias correction makes m_hat/sqrt(v_hat) = 1 on step one
        np.testing.assert_allclose(store["p"].data, [0.9], atol=1e-6)

    def test_identical_runs_identical_trajectories(self):
        def run():
            store = scalar_store(1.0)
            state = AdamState(store)
            history = []
            rng = np.random.default_rng(5)
            for _ in range(10):
                store["p"].grad = rng.standard_normal(1)
                adam_step(store, state, lr=0.01)
                history.append(float(store["p"].data[0]))
            return history

        assert run() == run()

    def test_restart_zeroes_everything_once(self):
        store = scalar_store(1.0)
        state = AdamState(store)
        store["p"].grad = np.ones(1)
        adam_step(store, state, lr=0.1)
        assert state.t == 1 and state.m["p"][0] != 0
        restart_adam(state)
        assert state.t == 0
        np.testing.assert_array_equal(state.m["p"], 0.0)
        np.testing.assert_array_equal(state.v["p"], 0.0)
        assert state.restarted()
        with pytest.raises(RuntimeError):
            restart_adam(state)


def textbook_adam(p, g, m, v, t, lr, beta1, beta2, eps):
    """The whole-array update, written out: new (p, m, v)."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def chunked_store() -> ParamStore:
    """One tensor over several chunks (not a whole number of them), one
    scalar, and one parameter that gets no grad."""
    rng = np.random.default_rng(11)
    store = ParamStore()
    store.add("big", Tensor(rng.standard_normal((5, ADAM_CHUNK // 2 + 3))))
    store.add("frozen", Tensor(rng.standard_normal(4)))
    store.add("one", Tensor(rng.standard_normal(1)))
    return store


def snapshot(store, state):
    return {
        name: (p.data.copy(), state.m[name].copy(), state.v[name].copy())
        for name, p in store.items()
    }


def assert_unchanged(store, state, before):
    for name, (data, m, v) in before.items():
        np.testing.assert_array_equal(store[name].data, data)
        np.testing.assert_array_equal(state.m[name], m)
        np.testing.assert_array_equal(state.v[name], v)


class TestChunkedAdam:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_the_textbook_expression(self, workers):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the GIL between slices
        try:
            self.check_against_textbook(workers)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def check_against_textbook(workers):
        store = chunked_store()
        assert store["big"].size > 2 * ADAM_CHUNK and store["big"].size % ADAM_CHUNK
        state = AdamState(store)
        state.workers = workers
        expected = snapshot(store, state)
        frozen = expected["frozen"]
        rng = np.random.default_rng(12)
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.98, 1e-9
        for step in range(4):
            if step == 3:
                restart_adam(state)
                expected = {
                    name: (p, np.zeros_like(m), np.zeros_like(v))
                    for name, (p, m, v) in expected.items()
                }
            for name in ("big", "one"):
                g = rng.standard_normal(store[name].shape)
                store[name].grad = g
                p, m, v = expected[name]
                expected[name] = textbook_adam(p, g, m, v, state.t + 1, lr, beta1, beta2, eps)
            adam_step(store, state, lr, beta1, beta2, eps)
            assert_unchanged(store, state, expected)
        assert state.t == 1
        np.testing.assert_array_equal(store["frozen"].data, frozen[0])
        assert not state.m["frozen"].any() and not state.v["frozen"].any()

    def test_shape_mismatch_changes_nothing(self):
        store = chunked_store()
        state = AdamState(store)
        for _, p in store.items():
            p.grad = np.ones(p.shape)
        adam_step(store, state, lr=0.1)
        before = snapshot(store, state)
        store["one"].grad = np.ones(2)  # "big" comes first and is fine
        with pytest.raises(ValueError, match="gradient shape mismatch for one"):
            adam_step(store, state, lr=0.1)
        assert state.t == 1
        assert_unchanged(store, state, before)

    @pytest.mark.parametrize("what", ["parameter", "read-only moment"])
    def test_tensor_without_a_flat_view_is_rejected_unchanged(self, what):
        store = ParamStore()
        store.add("a", Tensor(np.ones(3)))
        data = np.arange(1.0, 7.0).reshape(2, 3)
        store.add("b", Tensor(data.T if what == "parameter" else data))
        state = AdamState(store)
        if what == "read-only moment":
            state.v["b"].flags.writeable = False
        for _, p in store.items():
            p.grad = np.ones(p.shape)
        before = snapshot(store, state)
        with pytest.raises(ValueError, match=r" b is not a writable C-contiguous"):
            adam_step(store, state, lr=0.1)
        assert state.t == 0
        assert_unchanged(store, state, before)

    @pytest.mark.parametrize("what", ["parameter", "gradient of", "Adam m of", "Adam v of"])
    def test_a_float32_tensor_is_rejected_unchanged(self, what):
        """Training is float64: a float32 parameter (a model built for
        inference), gradient or moment is refused, not silently cast."""
        store = ParamStore()
        store.add("a", Tensor(np.ones(3)))
        store.add("b", Tensor(np.ones((2, 3), np.float32 if what == "parameter" else None)))
        state = AdamState(store)
        if what.startswith("Adam"):
            moments = state.m if what == "Adam m of" else state.v
            moments["b"] = moments["b"].astype(np.float32)
        for name, p in store.items():
            p.grad = np.ones(p.shape, np.float32 if (name, what) == ("b", "gradient of") else None)
        before = snapshot(store, state)
        with pytest.raises(ValueError, match=f"^{what} b is float32, not float64$"):
            adam_step(store, state, lr=0.1)
        assert state.t == 0
        assert_unchanged(store, state, before)


class TestGradNorm:
    def test_clip_scales_down_to_max_norm_only(self):
        store = ParamStore()
        store.add("a", Tensor(np.zeros(2)))
        store.add("b", Tensor(np.zeros(1)))
        store.add("unused", Tensor(np.zeros(1)))
        store["a"].grad = np.array([3.0, 0.0])
        store["b"].grad = np.array([-4.0])
        norm = grad_norm(store)
        assert norm == 5.0
        clip_gradients(store, 2.0, norm)
        np.testing.assert_allclose(store["a"].grad, [1.2, 0.0], rtol=1e-15)
        np.testing.assert_allclose(store["b"].grad, [-1.6], rtol=1e-15)
        assert store["unused"].grad is None
        clip_gradients(store, 3.0, grad_norm(store))  # already below: untouched
        np.testing.assert_allclose(store["b"].grad, [-1.6], rtol=1e-15)

    def test_non_finite_grad_gives_non_finite_norm(self):
        store = scalar_store(1.0)
        for bad in (np.nan, np.inf):
            store["p"].grad = np.array([bad])
            assert not np.isfinite(grad_norm(store))


def one_sample_batches():
    corpus = ParallelCorpus([(["s1", "s2", "s3"], ["s1", "s2", "s3"])])
    vocab = Vocabulary(f"s{i}" for i in range(5))
    return make_batches(corpus, vocab, vocab, batch_size=1), vocab


class TestTrainLoop:
    @pytest.mark.parametrize("side,kind", [
        ("none", "baseline"), ("decoder", "avg"), ("encoder", "fnn"),
        ("both", "self_attention"),
    ])
    def test_single_sample_overfit(self, side, kind):
        batches, vocab = one_sample_batches()
        cfg = ModelConfig(
            n_layers=2, d_model=8, d_ff=16, n_heads=2,
            src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=8,
        )
        model = Transformer(cfg, toy_fusion(side, kind), seed=1)
        tcfg = TrainConfig(warmup_steps=40, seed=1)
        state = AdamState(model.params)
        losses = []
        for _ in range(50):
            losses.append(train_step(model, batches[0], state, tcfg).loss)
        assert losses[-1] < losses[0]
        assert losses[-1] < 0.5 * losses[0]

    def test_memorized_sample_scores_perfect_accuracy(self):
        batches, vocab = one_sample_batches()
        cfg = ModelConfig(
            n_layers=1, d_model=16, d_ff=32, n_heads=2,
            src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=8,
        )
        model = Transformer(cfg, FusionConfig(), seed=2)
        tcfg = TrainConfig(warmup_steps=30, seed=2)
        state = AdamState(model.params)
        for _ in range(150):
            metrics = train_step(model, batches[0], state, tcfg)
        assert metrics.accuracy == 1.0
        assert evaluate_teacher_forced(model, batches)["accuracy"] == 1.0

    def test_loss_sequence_is_seed_deterministic(self):
        spec = SyntheticTaskSpec("copy", alphabet=6, min_len=2, max_len=4, count=8, seed=3)
        corpus = generate_synthetic(spec)
        vocab = Vocabulary(f"s{i}" for i in range(6))
        cfg = ModelConfig(
            n_layers=1, d_model=8, d_ff=16, n_heads=2,
            src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=8, dropout=0.1,
        )

        def run():
            batches = make_batches(corpus, vocab, vocab, 4, shuffle_seed=9)
            model = Transformer(cfg, FusionConfig(), seed=4)
            model.reseed_dropout(99)
            state = AdamState(model.params)
            tcfg = TrainConfig(warmup_steps=40, seed=4)
            losses = []
            train_epoch(
                model, batches, state, tcfg,
                on_step=lambda m: losses.append(m.loss),
            )
            return losses

        assert run() == run()

    def test_epoch_means_are_token_weighted(self):
        """The epoch's loss and accuracy weight each step's by its real
        target tokens, as validation does, over batches of unequal sizes."""
        spec = SyntheticTaskSpec("copy", alphabet=7, min_len=1, max_len=6, count=14, seed=8)
        vocab = Vocabulary(f"s{i}" for i in range(7))
        batches = make_batches(generate_synthetic(spec), vocab, vocab, 4)
        tokens = np.array([int(b.tgt_mask.sum()) for b in batches])
        assert len(set(tokens)) > 1
        model = toy_model(seed=6)
        steps = []
        stats = train_epoch(
            model, batches, AdamState(model.params), TrainConfig(warmup_steps=4),
            on_step=steps.append,
        )
        losses = np.array([m.loss for m in steps])
        accuracies = np.array([m.accuracy for m in steps])
        assert abs(losses.mean() - losses @ tokens / tokens.sum()) > 1e-6
        assert abs(stats["loss"] - losses @ tokens / tokens.sum()) <= 1e-12
        assert abs(stats["accuracy"] - accuracies @ tokens / tokens.sum()) <= 1e-12

    def test_empty_dataset_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError):
            train_epoch(model, [], AdamState(model.params), TrainConfig())

    @pytest.mark.parametrize("poison", ["loss", "grad"])
    def test_non_finite_step_stops_before_the_update(self, poison, monkeypatch):
        batches, vocab = one_sample_batches()
        cfg = ModelConfig(
            n_layers=1, d_model=8, d_ff=16, n_heads=2,
            src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=8,
        )
        model = Transformer(cfg, toy_fusion("decoder", "self_attention"), seed=1)
        tcfg = TrainConfig(warmup_steps=40, seed=1)
        state = AdamState(model.params)
        train_step(model, batches[0], state, tcfg)
        if poison == "loss":
            model.params["output.bias"].data[0] = np.nan
            named = "output.bias"
        else:
            real = ad.backward
            named = "fusion.decoder.att.w2"

            def backward_then_poison(loss):
                real(loss)
                model.params[named].grad[0, 0] = np.nan

            monkeypatch.setattr(ad, "backward", backward_then_poison)
        params = {name: p.data.copy() for name, p in model.params.items()}
        m = {name: a.copy() for name, a in state.m.items()}
        v = {name: a.copy() for name, a in state.v.items()}
        with pytest.raises(FloatingPointError, match=r"step 2 \(warmup_schedule\)") as err:
            train_step(model, batches[0], state, tcfg)
        assert named in str(err.value)
        if poison == "grad":
            assert str(err.value).endswith(f"non-finite gradients in {named}")
        assert state.t == 1
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, params[name])
            np.testing.assert_array_equal(state.m[name], m[name])
            np.testing.assert_array_equal(state.v[name], v[name])

    def test_step_enters_the_forward_with_no_parameter_grads(self):
        batches, _ = one_sample_batches()
        model = toy_model("decoder", "self_attention")
        state, tcfg = AdamState(model.params), TrainConfig(warmup_steps=40, seed=1)
        real, seen = model.forward, []

        def forward(*args, **kwargs):
            seen.append([name for name, p in model.params.items() if p.grad is not None])
            return real(*args, **kwargs)

        model.forward = forward
        for _ in range(2):
            train_step(model, batches[0], state, tcfg)
            assert all(p.grad is not None for _, p in model.params.items())
        evaluate_teacher_forced(model, batches)
        assert seen == [[], [], []]
        assert all(p.grad is None for _, p in model.params.items())

    def test_validation_loss_does_not_depend_on_the_batching(self):
        spec = SyntheticTaskSpec("copy", alphabet=7, min_len=1, max_len=7, count=11, seed=4)
        corpus = generate_synthetic(spec)
        assert len({len(src) for src, _ in corpus.pairs}) > 3  # ragged
        vocab = Vocabulary(f"s{i}" for i in range(7))
        model = toy_model("decoder", "self_attention")
        runs = [
            evaluate_teacher_forced(model, make_batches(corpus, vocab, vocab, size, **order))
            for size, order in [(1, {}), (3, {}), (4, {"sort_by_length": True}), (11, {})]
        ]
        for run in runs[1:]:
            assert run["loss"] == pytest.approx(runs[0]["loss"], rel=1e-12)
            assert run["accuracy"] == runs[0]["accuracy"]

    def test_restarted_phase_uses_fixed_lr(self):
        batches, vocab = one_sample_batches()
        cfg = ModelConfig(
            n_layers=1, d_model=8, d_ff=16, n_heads=1,
            src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=8,
        )
        model = Transformer(cfg, FusionConfig(), seed=0)
        tcfg = TrainConfig(warmup_steps=40, restart_lr=5e-5, seed=0)
        state = AdamState(model.params)
        train_step(model, batches[0], state, tcfg)
        restart_adam(state)
        metrics = train_step(model, batches[0], state, tcfg)
        assert metrics.lr == 5e-5
        assert metrics.phase == "restarted"


# Losses of four train_steps with dropout on, recorded from the packed-sequence
# implementation (the last three cases from the padded one).  A change of
# batch or layer-stack layout must leave them in place to rounding; a changed
# dropout draw moves them by about 1e-2.
PINNED_LOSSES = [
    ("both", "avg", {}, [
        2.716692414990627, 2.5237962443934676, 2.6598982701882448, 2.33471220222874,
    ]),
    ("decoder", "self_attention", {}, [
        2.3348006389294396, 2.4197643538424747, 2.355006261552468, 2.39425436260911,
    ]),
    ("encoder", "fnn", {}, [
        2.8422518126928717, 2.704655534747905, 2.7988830171651453, 2.5064588492031987,
    ]),
    ("encoder", "self_attention", {"share_w1": False, "include_embedding": False}, [
        2.6429097619383013, 2.5076461643673027, 2.44139389447674, 2.334519517960685,
    ]),
    ("both", "self_attention", {"n_hop": 1}, [
        2.4632932623684294, 2.6023942668955224, 2.4847228704077127, 2.609927466824196,
    ]),
    ("decoder", "fnn", {"include_embedding": False}, [
        2.493909199867786, 2.340047735872804, 2.5422008844051014, 2.2888749499138625,
    ]),
]


@pytest.mark.parametrize("side,kind,overrides,expected", [
    pytest.param(*case, id="-".join([*case[:2], *(f"{k}={v}" for k, v in case[2].items())]))
    for case in PINNED_LOSSES
])
def test_training_losses_are_pinned(side, kind, overrides, expected):
    spec = SyntheticTaskSpec("copy", alphabet=7, min_len=1, max_len=6, count=16, seed=12)
    vocab = Vocabulary(f"s{i}" for i in range(7))
    batches = make_batches(generate_synthetic(spec), vocab, vocab, 4)
    assert len({tuple(b.tgt_mask.sum(axis=1)) for b in batches}) == 4  # ragged batches
    model = Transformer(toy_config(dropout=0.1), toy_fusion(side, kind, **overrides), seed=5)
    model.reseed_dropout(6)
    state = AdamState(model.params)
    cfg = TrainConfig(warmup_steps=20, seed=5)
    losses = [train_step(model, batch, state, cfg).loss for batch in batches]
    np.testing.assert_allclose(losses, expected, rtol=1e-12, atol=0)


def tape_bytes(order) -> int:
    """Bytes the op nodes of ``order`` hold until backward: each node's
    output plus the arrays its VJP closure holds, counted once per buffer
    (a view counts as the array it views)."""
    held = {}
    for t in order:
        if t._vjp is None:
            continue
        cells = [c.cell_contents for c in t._vjp.__closure__ or ()]
        for a in [t.data] + [c for c in cells if isinstance(c, np.ndarray)]:
            while isinstance(a.base, np.ndarray):
                a = a.base
            held[id(a)] = a.nbytes
    return sum(held.values())


# Tape nodes behind one training loss, and the bytes its op nodes hold until
# backward: an extra op anywhere in the encoder, decoder, fusion or loss path
# (say, a zero mask penalty added) shows in the count, and a second stored
# array in a sublayer (say, an unfused bias add, an FFN's relu layer or
# a float64 dropout scale kept by a closure) shows in the bytes.
@pytest.mark.parametrize("side,kind,nodes,op_bytes", [
    ("none", "baseline", 102, 55480),
    ("decoder", "self_attention", 113, 65512),
    ("both", "fnn", 117, 68368),
    ("decoder", "avg", 106, 61712),
])
def test_training_graph_is_pinned(side, kind, nodes, op_bytes):
    spec = SyntheticTaskSpec("copy", alphabet=7, min_len=1, max_len=6, count=4, seed=12)
    vocab = Vocabulary(f"s{i}" for i in range(7))
    (batch,) = make_batches(generate_synthetic(spec), vocab, vocab, 4)
    model = Transformer(toy_config(dropout=0.1), toy_fusion(side, kind), seed=5)
    result = model.forward(batch.src, batch.src_mask, batch.tgt_in, batch.tgt_mask, train=True)
    loss, _ = model.loss(result.rep, batch.tgt_out[batch.tgt_mask])
    order = ad._toposort(loss)
    assert (len(order), tape_bytes(order)) == (nodes, op_bytes)


def test_de_en_training_graph_is_pinned():
    """The paper's shape (configs/de_en_shaped.cfg, pinned here as perfbench
    pins it) on a 2-sentence batch: the op-node count, which does not depend
    on the batch, is the one perfbench's ``autodiff.tape_nodes`` reports for
    batch 32 (one ``embed`` per side, 2 nodes per encoder layer, 3 per
    decoder layer, 3 in the fusion, 1 loss).  An encoder layer is one
    attention sublayer node, which projects its own keys and values, and
    one FFN node; a decoder layer adds a cross-attention node.  The fusion
    gathers the layers, attends over them and runs its FNN and norm as one
    residual-free FFN node.  The bytes
    include the loss's gradients, which it forms in the forward pass: 13.2
    MB of them are the [256 x 6428] output weights'."""
    config = ModelConfig(
        n_layers=3, d_model=256, d_ff=1024, n_heads=4,
        src_vocab=8389, tgt_vocab=6428, max_len=128, dropout=0.1,
    )
    fusion = FusionConfig(
        side="decoder", enc_kind="baseline", dec_kind="self_attention", n_hop=4, d_a=1024, d_f=512
    )
    spec = SyntheticTaskSpec("copy", alphabet=1000, min_len=15, max_len=30, count=2, seed=1)
    vocab = Vocabulary(f"s{i}" for i in range(1000))
    (batch,) = make_batches(generate_synthetic(spec), vocab, vocab, 2)
    model = Transformer(config, fusion, seed=0)
    result = model.forward(batch.src, batch.src_mask, batch.tgt_in, batch.tgt_mask, train=True)
    loss, _ = model.loss(result.rep, batch.tgt_out[batch.tgt_mask])
    order = ad._toposort(loss)
    ops = [t for t in order if t._vjp is not None]
    assert (len(ops), tape_bytes(order)) == (21, 17974160)


class TestCounts:
    def test_count_is_sum_of_sizes(self):
        model = toy_model("decoder", "self_attention")
        assert count_scalars(model.params) == sum(
            s.size for s in param_specs(model.config, model.fusion)
        )
