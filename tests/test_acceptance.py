"""Acceptance suite: one test per numbered criterion, one PASS line each,
and a check that float32 inference decodes as float64 does.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end
trainability criterion trains two small models on the copy task and takes
a minute or two; everything else completes in seconds.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mlrf import autodiff as ad
from mlrf.checkpoint import build_model, load_checkpoint, save_checkpoint
from mlrf.cli import export_attention, run_training, write_trace_file
from mlrf.config import DataConfig, RunConfig
from mlrf.data import (
    BOS_ID,
    EOS_ID,
    SyntheticTaskSpec,
    Vocabulary,
    generate_synthetic,
    make_batches,
)
from mlrf.decoding import (
    BeamConfig,
    SentenceScorer,
    beam_search,
    greedy_decode,
    translate_ids,
)
from mlrf.fusion import FusionConfig
from mlrf.metrics import corpus_bleu
from mlrf.model import ModelConfig, Transformer, init_parameters
from mlrf.training import (
    AdamState,
    TrainConfig,
    evaluate_teacher_forced,
    lr_schedule,
    restart_adam,
    train_epoch,
    train_step,
)
from tests.conftest import (
    count_scalars, padded, per_prefix, random_sentences, read_trace_file, toy_config,
    toy_fusion,
)
from tests.gradcheck import max_rel_err, numeric_grad_at


def report(criterion: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: PASS {detail}".rstrip())


# -- shared fixtures ---------------------------------------------------------

COPY_ALPHABET = 20
COPY_CONFIG = ModelConfig(
    n_layers=2, d_model=32, d_ff=64, n_heads=2,
    src_vocab=COPY_ALPHABET + 4, tgt_vocab=COPY_ALPHABET + 4, max_len=16,
)
DEC_SA4 = FusionConfig(side="decoder", dec_kind="self_attention", n_hop=4, d_a=64, d_f=48)


@pytest.fixture(scope="module")
def copy_task():
    train = generate_synthetic(
        SyntheticTaskSpec("copy", COPY_ALPHABET, 3, 10, count=2000, seed=100)
    )
    held = generate_synthetic(
        SyntheticTaskSpec("copy", COPY_ALPHABET, 3, 10, count=200, seed=101)
    )
    vocab = Vocabulary(f"s{i}" for i in range(COPY_ALPHABET))
    return train, held, vocab


def train_to_convergence(fusion, copy_task, max_steps=3000):
    train_corpus, _, vocab = copy_task
    model = Transformer(COPY_CONFIG, fusion, seed=7)
    tcfg = TrainConfig(warmup_steps=400, seed=7)
    state = AdamState(model.params)
    epoch = 0
    while state.t < max_steps:
        model.reseed_dropout([7, epoch])
        batches = make_batches(
            train_corpus, vocab, vocab, 32,
            shuffle_seed=[7, epoch], sort_by_length=True,
        )
        stats = train_epoch(model, batches[: max_steps - state.t], state, tcfg)
        epoch += 1
        if stats["accuracy"] > 0.9995:
            break
    return model, state.t


@pytest.fixture(scope="module")
def trained_models(copy_task):
    started = time.time()
    baseline, base_steps = train_to_convergence(FusionConfig(), copy_task)
    dec_sa, sa_steps = train_to_convergence(DEC_SA4, copy_task)
    return {
        "baseline": (baseline, base_steps),
        "dec_sa": (dec_sa, sa_steps),
        "elapsed": time.time() - started,
    }


# -- criteria ----------------------------------------------------------------


def test_c01_parameter_count_reconstruction():
    """Structural totals for the 3+3-layer, d=256 setup, within 1 percent."""
    cfg = ModelConfig(
        n_layers=3, d_model=256, d_ff=1024, n_heads=4,
        src_vocab=8389, tgt_vocab=6428, max_len=128,
    )
    full = dict(d_a=1024, d_f=512)
    expected_millions = {
        "baseline": (FusionConfig(), 10.97),
        "enc_fnn": (FusionConfig(side="encoder", enc_kind="fnn", **full), 11.63),
        "enc_sa4": (
            FusionConfig(side="encoder", enc_kind="self_attention", n_hop=4, **full),
            11.90,
        ),
        "enc_sa6": (
            FusionConfig(side="encoder", enc_kind="self_attention", n_hop=6, **full),
            12.16,
        ),
        "both_fnn_sa4": (
            FusionConfig(
                side="both", enc_kind="fnn", dec_kind="self_attention", n_hop=4, **full
            ),
            12.55,
        ),
    }
    got = {}
    for name, (fusion, expect) in expected_millions.items():
        total = count_scalars(init_parameters(cfg, fusion, seed=0))
        got[name] = total
        assert abs(total / 1e6 - expect) / expect < 0.01, (name, total)
    report("C1 parameter-count reconstruction", f"totals={got}")


GRAD_CHECK_CONFIGS = [("none", "baseline")] + [
    (side, kind)
    for kind in ("avg", "fnn", "self_attention")
    for side in ("encoder", "decoder", "both")
]


@pytest.mark.parametrize("side,kind", GRAD_CHECK_CONFIGS)
def test_c02_gradient_correctness(side, kind):
    """Backward vs central differences (h=1e-5), 20 sampled parameters."""
    model = Transformer(toy_config(), toy_fusion(side, kind), seed=29)
    rng = np.random.default_rng(97)
    src_ids, src_lens = random_sentences(rng, 2, max_len=5)
    tgt_ids, tgt_lens = random_sentences(rng, 2, max_len=5)
    tgt_out = np.concatenate([tgt_ids[1:], [EOS_ID]])

    def loss():
        with ad.no_grad():
            r = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
            return model.loss(r.rep, tgt_out)[0].item()

    result = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
    model.params.zero_grads()
    ad.backward(model.loss(result.rep, tgt_out)[0])

    names = model.params.names()
    worst = 0.0
    for _ in range(20):
        name = names[int(rng.integers(len(names)))]
        p = model.params[name]
        idx = int(rng.integers(p.size))
        ana = 0.0 if p.grad is None else float(p.grad.reshape(-1)[idx])
        num = numeric_grad_at(loss, p.data, idx)
        err = max_rel_err(ana, num)
        worst = max(worst, err)
        assert err < 1e-4, (name, idx, ana, num)
    report(f"C2 gradient correctness [{side}/{kind}]", f"worst rel err {worst:.2e}")


def test_c03_baseline_equivalence():
    """Decoder-side baseline fusion is bit-identical to the unfused model."""
    cfg = toy_config(dropout=0.1)
    plain = Transformer(cfg, FusionConfig(), seed=31)
    fused = Transformer(cfg, FusionConfig(side="decoder", dec_kind="baseline"), seed=31)
    rng = np.random.default_rng(131)
    for _ in range(10):
        src_ids, src_lens = random_sentences(rng, 3)
        tgt_ids, tgt_lens = random_sentences(rng, 3)
        tgt_out = np.concatenate([tgt_ids[1:], [EOS_ID]])
        grads = []
        for model in (plain, fused):
            res = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens), train=True)
            model.params.zero_grads()
            ad.backward(model.loss(res.rep, tgt_out)[0])
            grads.append((model.output_logits(res.rep), model))
        (la, ma), (lb, mb) = grads
        np.testing.assert_array_equal(la, lb)
        for name, p in ma.params.items():
            np.testing.assert_array_equal(p.grad, mb.params[name].grad, err_msg=name)
    report("C3 baseline equivalence", "10 batches, logits and grads bit-identical")


def test_c04_fusion_distribution_invariants():
    """Hop weights are distributions; one hop degrades to a single vector."""
    rng = np.random.default_rng(37)
    model = Transformer(toy_config(), toy_fusion("both", "self_attention"), seed=41)
    for trial in range(5):
        src_ids, src_lens = random_sentences(rng, 2)
        tgt_ids, tgt_lens = random_sentences(rng, 2)
        res = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
        for trace in (res.encoder_trace, res.decoder_trace):
            w = trace.weights
            assert ((w >= 0) & (w <= 1)).all()
            np.testing.assert_allclose(w.sum(axis=2), 1.0, atol=1e-9)

    single = Transformer(toy_config(), toy_fusion("decoder", "self_attention", n_hop=1), seed=43)
    d, d_f = single.config.d_model, single.fusion.d_f
    assert single.params["fusion.decoder.fnn.w1"].shape == (d, d_f)
    src_ids, src_lens = random_sentences(rng, 1)
    res = single.forward(*padded(src_ids, src_lens), *padded(src_ids, src_lens))
    assert res.decoder_trace.weights.shape[1] == 1
    report("C4 fusion distribution invariants", "sums within 1e-9; 1 hop -> 1 vector")


@pytest.mark.parametrize("kind", ["avg", "fnn", "self_attention"])
def test_c05_gradient_reachability(kind):
    """Fusion gives every included layer a nonzero gradient in step one."""
    model = Transformer(toy_config(), toy_fusion("both", kind), seed=47)
    vocab = Vocabulary(f"s{i}" for i in range(7))
    corpus = generate_synthetic(SyntheticTaskSpec("copy", 7, 2, 5, count=8, seed=3))
    batch = make_batches(corpus, vocab, vocab, 8)[0]
    train_step(model, batch, AdamState(model.params), TrainConfig(seed=1))
    for prefix in (
        ["src_embed", "tgt_embed"]
        + [f"encoder.layer{i}" for i in range(model.config.n_layers)]
        + [f"decoder.layer{i}" for i in range(model.config.n_layers)]
    ):
        total = sum(
            float(np.abs(p.grad).sum())
            for name, p in model.params.items()
            if name.startswith(prefix) and p.grad is not None
        )
        assert total > 0, f"{kind}: no gradient reached {prefix}"
    report(f"C5 gradient reachability [{kind}]", "all layers and embeddings touched")


def test_c06_end_to_end_trainability(copy_task, trained_models):
    """Copy task at d=32: >=99% forced accuracy, >=95% greedy exact match."""
    _, held, vocab = copy_task
    held_batches = make_batches(held, vocab, vocab, 32)
    results = {}
    for name in ("baseline", "dec_sa"):
        model, steps = trained_models[name]
        assert steps <= 3000, f"{name} needed {steps} steps"
        forced = evaluate_teacher_forced(model, held_batches)["accuracy"]
        assert forced >= 0.99, f"{name} forced accuracy {forced}"
        hits = 0
        for src, tgt in held.pairs:
            out = translate_ids(model, vocab.encode(src) + [EOS_ID], None)
            hits += vocab.decode(out) == tgt
        exact = hits / len(held.pairs)
        assert exact >= 0.95, f"{name} exact-match {exact}"
        results[name] = (steps, forced, exact)
    assert trained_models["elapsed"] < 900, "training exceeded the 15 minute target"
    report(
        "C6 end-to-end trainability",
        f"steps/forced/exact={results}, wall {trained_models['elapsed']:.0f}s",
    )


def test_c07_schedule_and_restart():
    """Named schedule points; restarted phase applies exactly 5e-5."""
    assert abs(lr_schedule(16000, 256) - 4.941e-4) < 1e-7
    meet = abs(lr_schedule(16000, 256) - 256**-0.5 * 16000**-0.5)
    assert meet < 1e-12

    vocab = Vocabulary(f"s{i}" for i in range(5))
    corpus = generate_synthetic(SyntheticTaskSpec("copy", 5, 2, 4, count=4, seed=5))
    batch = make_batches(corpus, vocab, vocab, 4)[0]
    cfg = ModelConfig(
        n_layers=1, d_model=8, d_ff=16, n_heads=1,
        src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=8,
    )
    model = Transformer(cfg, FusionConfig(), seed=3)
    tcfg = TrainConfig(warmup_steps=100, restart_lr=5e-5, seed=3)
    state = AdamState(model.params)
    train_step(model, batch, state, tcfg)
    restart_adam(state)
    assert state.t == 0
    metrics = train_step(model, batch, state, tcfg)
    assert metrics.lr == 5e-5
    report("C7 schedule and restart", f"meet gap {meet:.1e}; restart lr 5e-5 exact")


def test_c08_beam_oracle_equivalence(trained_models):
    """Beam matches exhaustive search; width-1/alpha-0 beam equals greedy."""
    EOS, V = 2, 4  # tokens 0..3 with 2 terminating

    def make_scorer(seed):
        rng = np.random.default_rng(seed)
        table = {}
        for n in (0, 1, 2):
            for body in itertools.product([0, 1, 3], repeat=n):
                p = rng.random(V) + 0.02
                table[body] = np.log(p / p.sum())
        return lambda prefix: table[tuple(prefix[1:])]

    for seed in range(10):
        scorer = make_scorer(seed)
        cfg = BeamConfig(width=V, length_alpha=0.0, max_len=3)
        best = beam_search(per_prefix(scorer), cfg, eos=EOS)[0]
        oracle_best, oracle_logp = None, -np.inf
        for n in range(3):
            for body in itertools.product([0, 1, 3], repeat=n):
                seq, logp, prefix = body + (EOS,), 0.0, [1]
                for tok in seq:
                    logp += float(scorer(prefix)[tok])
                    prefix.append(tok)
                if logp > oracle_logp:
                    oracle_best, oracle_logp = seq, logp
        assert tuple(best.tokens[1:]) == oracle_best
        assert abs(best.logprob - oracle_logp) < 1e-12

    model, _ = trained_models["dec_sa"]
    rng = np.random.default_rng(211)
    agreements = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        src = list(rng.integers(4, model.config.src_vocab, size=n)) + [EOS_ID]
        scorer = SentenceScorer(model, src)
        greedy = greedy_decode(scorer, max_len=12)
        beam1 = beam_search(scorer, BeamConfig(width=1, length_alpha=0.0, max_len=12))[0]
        assert beam1.output_ids() == greedy
        agreements += 1
    report("C8 beam oracle equivalence", f"10 exhaustive tables; {agreements}/100 greedy matches")


def test_c09_bleu_correctness():
    """Identity scores 100; hand-counted cases agree to 1e-6."""
    same = [s.split() for s in ("a b c d e", "the cat sat on the mat")]
    assert abs(corpus_bleu(same, same) - 100.0) < 1e-9

    cases = [
        # (hyp, ref, expected from hand-counted n-grams)
        ("the cat sat on", "the cat sat on the mat",
         100.0 * math.exp(1.0 - 6.0 / 4.0)),  # all p=1, BP<1
        ("the cat the cat sat down now", "the cat sat down now",
         100.0 * ((5 / 7) * (4 / 6) * (3 / 5) * (2 / 4)) ** 0.25),  # clipping, BP=1
        ("the the the cat", "the cat sat", 0.0),  # no 3-gram match
    ]
    for hyp, ref, expect in cases:
        got = corpus_bleu([hyp.split()], [ref.split()])
        assert abs(got - expect) < 1e-6, (hyp, got, expect)

    # corpus pooling: second sentence adds no 4-grams, BP = exp(1 - 9/7)
    got = corpus_bleu(
        [["a", "b", "c", "d"], ["e", "f", "g"]],
        [["a", "b", "c", "d"], ["e", "f", "g", "h", "i"]],
    )
    assert abs(got - 100.0 * math.exp(1.0 - 9.0 / 7.0)) < 1e-6

    # mixed clipping across two sentences, equal lengths so BP = 1
    got = corpus_bleu(
        [["x", "y", "x", "y"], ["p", "q", "r", "s", "t"]],
        [["x", "y", "z", "w"], ["p", "q", "r", "s", "t"]],
    )
    expect = 100.0 * ((7 / 9) * (5 / 7) * (3 / 5) * (2 / 3)) ** 0.25
    assert abs(got - expect) < 1e-6
    report("C9 BLEU correctness", "identity=100; 5 hand-oracle cases within 1e-6")


def _tiny_run_config(phase1=2, phase2=1, seed=9) -> RunConfig:
    return RunConfig(
        seed=seed,
        model=dict(
            n_layers=1, d_model=16, d_ff=32, n_heads=2, max_len=10,
            dropout=0.1, src_vocab=0, tgt_vocab=0,
        ),
        fusion=FusionConfig(side="decoder", dec_kind="self_attention", n_hop=2, d_a=8, d_f=8),
        train=TrainConfig(
            epochs_phase1=phase1, epochs_phase2=phase2,
            batch_phase1=8, batch_phase2=8, warmup_steps=50, log_every=1, seed=seed,
        ),
        data=DataConfig(task="copy", alphabet=6, min_len=2, max_len=5,
                        train_count=24, valid_count=8),
    )


def test_c10_determinism_and_persistence(tmp_path):
    """Same seed, same losses; checkpoints round-trip; resume replays."""
    a = run_training(_tiny_run_config(), tmp_path / "a")
    b = run_training(_tiny_run_config(), tmp_path / "b")
    assert [r[3] for r in a.records] == [r[3] for r in b.records]
    assert (tmp_path / "a/last.ckpt").read_bytes() == (tmp_path / "b/last.ckpt").read_bytes()

    ckpt = load_checkpoint(tmp_path / "a/last.ckpt")
    model = build_model(ckpt)
    again = build_model(load_checkpoint(tmp_path / "a/last.ckpt"))
    rng = np.random.default_rng(5)
    src_ids, src_lens = random_sentences(rng, 2, vocab=10)
    with ad.no_grad():
        la = model.output_logits(
            model.forward(*padded(src_ids, src_lens), *padded(src_ids, src_lens)).rep
        )
        lb = again.output_logits(
            again.forward(*padded(src_ids, src_lens), *padded(src_ids, src_lens)).rep
        )
    np.testing.assert_array_equal(la, lb)

    run_training(_tiny_run_config(phase1=2, phase2=0), tmp_path / "partial")
    resumed = run_training(
        _tiny_run_config(), tmp_path / "resumed",
        resume=tmp_path / "partial" / "last.ckpt",
    )
    full_tail = [r for r in a.records if r[1] == "restarted"]
    assert resumed.records == full_tail
    report("C10 determinism and persistence", "loss sequences, bytes, and resume all exact")


def test_c11_attention_export(tmp_path, copy_task, trained_models):
    """Exported (position, hop) groups sum to 1 over layers 0..L."""
    model, _ = trained_models["dec_sa"]
    _, held, vocab = copy_task
    save_checkpoint(
        tmp_path / "sa.ckpt", model, None, None,
        {
            "seed": 7,
            "src_vocab_tokens": [f"s{i}" for i in range(COPY_ALPHABET)],
            "tgt_vocab_tokens": [f"s{i}" for i in range(COPY_ALPHABET)],
        },
    )
    reloaded = build_model(load_checkpoint(tmp_path / "sa.ckpt"))
    lines = [" ".join(src) for src, _ in held.pairs[:5]]
    rows, _ = export_attention(reloaded, vocab, vocab, lines, "decoder", BeamConfig(1, 0.0, 12))
    path = tmp_path / "trace.tsv"
    write_trace_file(rows, path)
    parsed = read_trace_file(path)
    assert parsed, "no rows exported"

    groups: dict[tuple, dict[int, float]] = {}
    for sent, pos, _tok, hop, layer, w in parsed:
        groups.setdefault((sent, pos, hop), {})[layer] = w
    n_layers = model.config.n_layers
    for key, by_layer in groups.items():
        assert abs(sum(by_layer.values()) - 1.0) < 1e-6, key
        assert sorted(by_layer) == list(range(n_layers + 1)), key
    hops = {hop for _, _, hop in groups}
    assert hops == {1, 2, 3, 4}
    report(
        "C11 attention export",
        f"{len(groups)} groups sum to 1; layers span 0..{n_layers}; 4 hops",
    )


def test_float32_inference_decodes_as_float64(tmp_path, copy_task, trained_models):
    """A save -> build_model reload computes in float32 and decodes held-out
    sentences to the ids of the in-memory float64 model, greedy and at beam
    4; along the greedy path, its per-step log-probs stay within 1e-4."""
    _, held, vocab = copy_task
    sources = [vocab.encode(src) + [EOS_ID] for src, _ in held.pairs[:40]]
    worst = 0.0
    for name in ("baseline", "dec_sa"):
        model, _ = trained_models[name]
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(path, model, AdamState(model.params), None, {"seed": 7})
        fast = build_model(load_checkpoint(path))
        assert all(t.data.dtype == np.float32 for _, t in fast.params.items())
        for src in sources:
            for beam in (None, BeamConfig(width=4)):
                assert translate_ids(fast, src, beam) == translate_ids(model, src, beam)
            exact, approx = SentenceScorer(model, src), SentenceScorer(fast, src)
            parents = None
            for tok in [BOS_ID] + translate_ids(model, src):
                want = exact(np.array([tok]), parents)
                got = approx(np.array([tok]), parents)
                assert got.dtype == np.float32 and want.dtype == np.float64
                worst = max(worst, float(np.abs(got - want).max()))
                parents = [0]
    assert worst <= 1e-4
    report(
        "float32 inference",
        f"{4 * len(sources)} decodes equal float64; max step log-prob error {worst:.1e}",
    )
