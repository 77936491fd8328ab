"""Search behavior on hand-built scorers plus the model adapter."""

import itertools
import math

import numpy as np
import pytest

from mlrf import autodiff as ad
from mlrf.decoding import (
    BeamConfig,
    SentenceScorer,
    beam_search,
    greedy_decode,
    length_normalized_score,
    top_tokens,
    translate_ids,
)
from mlrf.model import one_sentence
from tests.conftest import padded, per_prefix, random_sentences, toy_model

EOS = 2
A, B = 4, 5


def log_dist(pairs: dict[int, float], vocab: int = 6) -> np.ndarray:
    """Log-probabilities with near-zero mass outside the given tokens."""
    out = np.full(vocab, -1e9)
    for tok, p in pairs.items():
        out[tok] = math.log(p)
    return out


class TableScorer:
    """Fixed conditional distributions keyed by the generated suffix."""

    def __init__(self, table, vocab=6):
        self.table = table
        self.vocab = vocab

    def __call__(self, prefix):
        key = tuple(prefix[1:])  # drop BOS
        return self.table.get(key, log_dist({EOS: 1.0}, self.vocab))


GREEDY_TRAP = TableScorer({
    # locally best first token (A) leads to a weak continuation; the
    # globally best sequence is (B, EOS)
    (): log_dist({A: 0.5, B: 0.35, EOS: 0.15}),
    (A,): log_dist({A: 0.4, B: 0.35, EOS: 0.25}),
    (B,): log_dist({EOS: 0.9, A: 0.05, B: 0.05}),
    (A, A): log_dist({EOS: 1.0}),
    (A, B): log_dist({EOS: 1.0}),
})


def exhaustive_best(scorer, max_len, vocab=6, alpha=0.0):
    """Brute-force argmax over every EOS-terminated sequence up to max_len."""
    tokens = [t for t in range(vocab) if t != EOS]
    best, best_score = None, -np.inf
    for n in range(max_len):
        for body in itertools.product(tokens, repeat=n):
            seq = body + (EOS,)
            logp = 0.0
            prefix = [1]
            for tok in seq:
                logp += float(scorer(prefix)[tok])
                prefix.append(tok)
            score = length_normalized_score(logp, len(seq), alpha)
            if score > best_score:
                best, best_score = seq, score
    return best, best_score


class TestLengthNormalization:
    def test_alpha_zero_is_raw_logprob(self):
        assert length_normalized_score(-3.5, 7, 0.0) == -3.5

    def test_simple_division(self):
        assert length_normalized_score(-2.0, 4, 1.0) == -0.5

    def test_positive_alpha_prefers_longer_at_equal_logprob(self):
        short = length_normalized_score(-2.0, 2, 1.6)
        long = length_normalized_score(-2.0, 5, 1.6)
        assert long > short


class TestGreedy:
    def test_follows_argmax_and_stops_at_eos(self):
        assert greedy_decode(per_prefix(GREEDY_TRAP), max_len=5) == [A, A]

    def test_truncates_at_max_len(self):
        never_stop = lambda prefix: log_dist({A: 0.9, B: 0.1})  # noqa: E731
        assert greedy_decode(per_prefix(never_stop), max_len=4) == [A, A, A, A]

    def test_tie_breaks_to_lowest_id(self):
        tie = TableScorer({(): log_dist({A: 0.45, B: 0.45, EOS: 0.1})})
        assert greedy_decode(per_prefix(tie), max_len=3)[0] == A

    def test_deterministic(self):
        runs = {tuple(greedy_decode(per_prefix(GREEDY_TRAP), max_len=5)) for _ in range(5)}
        assert len(runs) == 1

    def test_nan_log_probs_rejected(self):
        nan_step = lambda tokens, parents: np.full((len(tokens), 6), np.nan)  # noqa: E731
        with pytest.raises(ValueError, match="NaN"):
            greedy_decode(nan_step, max_len=3)


class TestBeam:
    def test_width_one_alpha_zero_equals_greedy(self):
        cfg = BeamConfig(width=1, length_alpha=0.0, max_len=5)
        best = beam_search(per_prefix(GREEDY_TRAP), cfg)[0]
        assert best.output_ids() == greedy_decode(per_prefix(GREEDY_TRAP), max_len=5)

    def test_beam_two_recovers_global_best_that_greedy_misses(self):
        cfg = BeamConfig(width=2, length_alpha=0.0, max_len=5)
        best = beam_search(per_prefix(GREEDY_TRAP), cfg)[0]
        oracle_seq, oracle_score = exhaustive_best(GREEDY_TRAP, max_len=5)
        assert tuple(best.output_ids()) + (EOS,) == oracle_seq
        assert abs(best.logprob - oracle_score) < 1e-12
        assert best.output_ids() != greedy_decode(per_prefix(GREEDY_TRAP), max_len=5)

    def test_wide_beam_matches_exhaustive_search_on_random_tables(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            table = {}
            for n in (0, 1, 2):
                for body in itertools.product([A, B, 3], repeat=n):
                    raw = rng.random(4) + 0.05
                    probs = raw / raw.sum()
                    table[body] = log_dist(
                        {EOS: probs[0], 3: probs[1], A: probs[2], B: probs[3]}
                    )
            scorer = TableScorer(table)
            cfg = BeamConfig(width=4, length_alpha=0.0, max_len=3)
            best = beam_search(per_prefix(scorer), cfg)[0]
            oracle_seq, oracle_score = exhaustive_best(scorer, max_len=3)
            assert abs(best.logprob - oracle_score) < 1e-12, trial

    def test_results_sorted_by_normalized_score(self):
        cfg = BeamConfig(width=3, length_alpha=1.0, max_len=5)
        hyps = beam_search(per_prefix(GREEDY_TRAP), cfg)
        scores = [h.score(cfg.length_alpha) for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_scores_finite_and_nonpositive(self):
        cfg = BeamConfig(width=3, length_alpha=0.0, max_len=5)
        for h in beam_search(per_prefix(GREEDY_TRAP), cfg):
            assert np.isfinite(h.logprob) and h.logprob <= 0
            assert h.finished and h.tokens[-1] == EOS

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            BeamConfig(width=0)

    @pytest.mark.parametrize("alpha,why", [
        (float("nan"), "length_alpha must be a number, got nan"),  # the field's type check
        (float("inf"), "finite"),
        (-float("inf"), "finite"),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected(self, alpha, why):
        with pytest.raises(ValueError, match=why):
            BeamConfig(length_alpha=alpha)

    def test_negative_alpha_allowed(self):
        assert BeamConfig(length_alpha=-0.5).length_alpha == -0.5

    def test_tied_log_probs_rank_by_lower_token_id(self):
        """Three tokens tie for best and 37 for fourth: the beam keeps the
        tied ones in id order, whatever the partition happened to pick."""
        logp = np.full(40, math.log(0.5 / 37))
        logp[[30, 12, 21]] = math.log(0.5 / 3)
        step = lambda tokens, parents: np.tile(logp, (len(tokens), 1))  # noqa: E731
        hyps = beam_search(step, BeamConfig(width=5, length_alpha=0.0, max_len=1), eos=-1)
        assert [h.tokens[1] for h in hyps] == [12, 21, 30, 0, 1]
        hyps = beam_search(step, BeamConfig(width=5, length_alpha=0.0, max_len=2), eos=-1)
        assert [h.tokens[1:] for h in hyps] == [
            (12, 12), (12, 21), (12, 30), (21, 12), (21, 21),
        ]

    def test_top_tokens_matches_a_full_sort_by_logprob_then_id(self):
        r = np.random.default_rng(8)
        logps = r.integers(0, 4, (6, 30)).astype(float)
        logps[0] = -np.inf
        logps[1, :3] = 0.5
        for width in (1, 3, 8, 30, 40):
            want = [sorted(range(30), key=lambda j: (-row[j], j))[:width] for row in logps]
            np.testing.assert_array_equal(top_tokens(logps, width), want)

    def test_top_tokens_width_one_equals_the_general_path(self):
        """The argmax path ranks as the partition path does, ties to the
        lowest id included."""
        r = np.random.default_rng(9)
        logps = r.integers(0, 3, (40, 50)).astype(float)  # every row ties at its max
        logps[0] = -np.inf
        logps[1, [7, 3, 44]] = 5.0
        np.testing.assert_array_equal(top_tokens(logps, 1), top_tokens(logps, 2)[:, :1])

    def test_top_tokens_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            top_tokens(np.array([[0.0, np.nan, -1.0]]), 2)

    def test_top_tokens_width_one_rejects_nan_below_the_max(self):
        with pytest.raises(ValueError, match="NaN"):
            top_tokens(np.array([[0.0, 1.0, -1.0], [0.0, np.nan, -1.0]]), 1)

    def test_scores_every_live_hypothesis_in_one_call(self):
        calls = []
        oracle = per_prefix(GREEDY_TRAP)

        def step(tokens, parents):
            calls.append(len(tokens))
            return oracle(tokens, parents)

        beam_search(step, BeamConfig(width=3, length_alpha=0.0, max_len=5))
        assert calls[0] == 1 and max(calls) > 1
        assert len(calls) <= 5


class TestModelAdapter:
    def test_scorer_returns_log_distribution(self):
        model = toy_model(seed=33)
        scorer = SentenceScorer(model, [4, 5, 2])
        scorer([1], None)
        logp = scorer([4], [0])[0]
        assert logp.shape == (model.config.tgt_vocab,)
        assert np.isfinite(logp).all() and (logp <= 0).all()
        assert abs(np.exp(logp).sum() - 1.0) < 1e-9

    def test_greedy_and_width1_beam_agree_on_model(self):
        """A width-1 beam holds one hypothesis, so it is greedy for every alpha."""
        model = toy_model("decoder", "self_attention", seed=35)
        src = [4, 6, 5, 2]
        greedy = greedy_decode(SentenceScorer(model, src), max_len=6)
        assert translate_ids(model, src, BeamConfig(1, 0.0, 6)) == greedy
        assert translate_ids(model, src, BeamConfig(1, 1.6, 6)) == greedy
        beam1 = beam_search(SentenceScorer(model, src), BeamConfig(1, 1.6, 6))[0]
        assert beam1.output_ids() == greedy

    def test_decoding_is_deterministic(self):
        model = toy_model(seed=37)
        outs = {tuple(translate_ids(model, [4, 5, 2], BeamConfig(3, 1.0, 6))) for _ in range(3)}
        assert len(outs) == 1


SRC = [4, 7, 5, 9, 2]


def teacher_forced_last_row(model, src, prefix):
    """Next-token log-probs of ``prefix`` from a full teacher-forced pass."""
    with ad.no_grad():
        rep = model.forward(*one_sentence(src), *one_sentence(prefix)).rep
        logits = model.output_logits(rep)[-1]
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


@pytest.mark.parametrize("side, kind", [("none", "baseline"), ("decoder", "self_attention")])
def test_decoding_projection_scores_as_the_loss(side, kind):
    """The logits that decoding reads (``output_logits``) give the loss's
    mean negative log-likelihood to 1e-12 and its argmax hits exactly, over
    more than one of the loss's ``ad.BLOCK_ROWS``-row blocks."""
    model = toy_model(side, kind, seed=59)
    r = np.random.default_rng(61)
    src, tgt = random_sentences(r, 60, max_len=7), random_sentences(r, 60, max_len=7)
    targets = r.integers(0, model.config.tgt_vocab, size=tgt[0].size)
    assert targets.size > ad.BLOCK_ROWS
    with ad.no_grad():
        rep = model.forward(*padded(*src), *padded(*tgt)).rep
        loss, correct = model.loss(rep, targets)
        logits = model.output_logits(rep)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = -log_probs[np.arange(targets.size), targets].mean()
    assert abs(nll - loss.item()) <= 1e-12
    assert correct == int((logits.argmax(axis=1) == targets).sum()) > 0


def assert_rows_match(model, scorer, prefixes, parents):
    """Score the newest token of each prefix as a child of row ``parents[i]``
    of the scorer's previous call and compare with teacher forcing."""
    got = scorer([p[-1] for p in prefixes], parents)
    assert got.shape == (len(prefixes), model.config.tgt_vocab)
    for prefix, row in zip(prefixes, got):
        want = teacher_forced_last_row(model, SRC, list(prefix))
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


class TestIncrementalScorer:
    @pytest.mark.parametrize(
        "side, kind, overrides",
        [
            ("none", "baseline", {}),
            ("decoder", "avg", {}),
            ("decoder", "fnn", {}),
            ("decoder", "self_attention", {}),
            ("encoder", "self_attention", {}),
            ("both", "self_attention", {}),
            ("both", "fnn", {}),
            ("decoder", "self_attention", {"share_w1": False}),
            ("decoder", "self_attention", {"include_embedding": False}),
            ("both", "self_attention", {"n_hop": 1}),
        ],
    )
    def test_rows_equal_teacher_forced_last_rows(self, side, kind, overrides):
        model = toy_model(side, kind, seed=41, **overrides)
        scorer = SentenceScorer(model, SRC)
        prefixes, parents = [(1,)], None
        for step in range(model.config.max_len - 1):
            assert_rows_match(model, scorer, prefixes, parents)
            children = [(i, tok) for i in range(len(prefixes[:2])) for tok in (3 + step, 10 - step)]
            parents = [i for i, _ in children]
            prefixes = [prefixes[i] + (tok,) for i, tok in children]

    def test_parents_reordered_repeated_and_dropped(self):
        model = toy_model("decoder", "self_attention", seed=43)
        scorer = SentenceScorer(model, SRC)
        scorer([1], None)
        assert_rows_match(model, scorer, [(1, 4), (1, 5), (1, 6)], [0, 0, 0])
        # (1, 6) is extended twice and listed first, (1, 5) not at all
        assert_rows_match(model, scorer, [(1, 6, 3), (1, 4, 4), (1, 6, 7)], [2, 0, 2])

    def test_reused_scorer_restarts_on_no_parents(self):
        model = toy_model("decoder", "self_attention", seed=47)
        scorer = SentenceScorer(model, SRC)
        scorer([1], None)
        scorer([4, 5], [0, 0])
        scorer([8, 6], [1, 0])
        np.testing.assert_array_equal(scorer([1], None), SentenceScorer(model, SRC)([1], None))
        assert_rows_match(model, scorer, [(1, 5), (1, 9)], [0, 0])

    def test_one_decoder_step_per_call(self, monkeypatch):
        model = toy_model("both", "self_attention", seed=53)
        scorer = SentenceScorer(model, SRC)
        shapes = []
        step = model.decode_teacher_forced

        def spy(ids, *args, **kwargs):
            shapes.append(ids.shape)
            return step(ids, *args, **kwargs)

        monkeypatch.setattr(model, "decode_teacher_forced", spy)
        scorer([1], None)
        scorer([4, 5, 6], [0, 0, 0])
        scorer([7, 8], [2, 1])
        assert shapes == [(1, 1), (3, 1), (2, 1)]
