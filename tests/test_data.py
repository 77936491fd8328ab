"""Vocabulary, corpus I/O, synthetic tasks, and batch construction."""

import numpy as np
import pytest

from mlrf import autodiff as ad
from mlrf.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    Batch,
    ParallelCorpus,
    SyntheticTaskSpec,
    Vocabulary,
    build_vocab,
    encode_pair,
    generate_synthetic,
    load_parallel_text,
    make_batches,
)
from tests.conftest import load_vocab, padded, save_vocab, toy_model


class TestVocabulary:
    def test_frequency_order(self):
        vocab = build_vocab([["a", "a", "b"]], max_size=10)
        assert vocab.id("a") < vocab.id("b")
        assert vocab.id("a") == 4  # first content id after the reserved block

    def test_ties_break_lexicographically(self):
        vocab = build_vocab([["b", "a"]], max_size=10)
        assert vocab.id("a") < vocab.id("b")

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab([["a"]], max_size=10)
        assert vocab.id("zzz") == UNK_ID

    def test_round_trip(self):
        vocab = build_vocab([["the", "cat", "sat"]], max_size=10)
        tokens = ["the", "cat", "sat"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_max_size_caps_content_tokens(self):
        vocab = build_vocab([["a", "a", "b", "b", "c"]], max_size=2)
        assert len(vocab) == 6  # 4 reserved + 2 kept
        assert vocab.id("c") == UNK_ID

    def test_reserved_strings_in_text_encode_as_unk(self):
        vocab = Vocabulary(["a", "b"])
        tokens = ["a", "<pad>", "b", "<eos>", "<bos>", "<unk>"]
        assert vocab.encode(tokens) == [4, UNK_ID, 5, UNK_ID, UNK_ID, UNK_ID]
        (batch,) = make_batches(ParallelCorpus([(tokens, tokens)]), vocab, vocab, 1)
        assert batch.src_mask.all() and batch.tgt_mask.all()
        assert batch.tgt_out[0].tolist() == [4, UNK_ID, 5, UNK_ID, UNK_ID, UNK_ID, EOS_ID]

    def test_reserved_strings_take_no_vocabulary_slot(self):
        vocab = build_vocab([["<pad>", "<pad>", "<eos>", "<eos>", "a", "a", "b"]], max_size=2)
        assert len(vocab) == 6
        assert (vocab.id("a"), vocab.id("b")) == (4, 5)

    def test_file_round_trip(self, tmp_path):
        vocab = build_vocab([["x", "y", "z"]], max_size=10)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text().splitlines()
        assert lines[vocab.id("y") - 4] == "y"
        again = load_vocab(path)
        assert again.id("z") == vocab.id("z")


class TestParallelText:
    def test_loads_matching_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("a b\nc d e\n")
        (tmp_path / "b.txt").write_text("x\ny z\n")
        corpus = load_parallel_text(tmp_path / "a.txt", tmp_path / "b.txt", 50)
        assert len(corpus) == 2
        assert corpus.pairs[0] == (["a", "b"], ["x"])

    def test_overlong_pair_dropped(self, tmp_path):
        (tmp_path / "a.txt").write_text(" ".join(["w"] * 51) + "\nshort one\n")
        (tmp_path / "b.txt").write_text("fine\nok then\n")
        corpus = load_parallel_text(tmp_path / "a.txt", tmp_path / "b.txt", 50)
        assert len(corpus) == 1

    def test_empty_files_warn(self, tmp_path, caplog):
        (tmp_path / "a.txt").write_text("")
        (tmp_path / "b.txt").write_text("")
        with caplog.at_level("WARNING"):
            corpus = load_parallel_text(tmp_path / "a.txt", tmp_path / "b.txt", 50)
        assert len(corpus) == 0
        assert any("no usable" in r.message for r in caplog.records)

    def test_mismatched_line_counts_error_names_counts(self, tmp_path):
        (tmp_path / "a.txt").write_text("one\ntwo\n")
        (tmp_path / "b.txt").write_text("eins\n")
        with pytest.raises(ValueError, match="2 lines.*1"):
            load_parallel_text(tmp_path / "a.txt", tmp_path / "b.txt", 50)


class TestSynthetic:
    def test_copy_targets_equal_sources(self):
        corpus = generate_synthetic(SyntheticTaskSpec("copy", count=20, seed=1))
        assert all(src == tgt for src, tgt in corpus.pairs)

    def test_reverse_targets(self):
        corpus = generate_synthetic(SyntheticTaskSpec("reverse", count=20, seed=1))
        assert all(tgt == src[::-1] for src, tgt in corpus.pairs)

    def test_seed_determinism(self):
        spec = SyntheticTaskSpec("copy", count=10, seed=9)
        assert generate_synthetic(spec).pairs == generate_synthetic(spec).pairs

    def test_lengths_respected(self):
        spec = SyntheticTaskSpec("copy", min_len=2, max_len=5, count=50, seed=0)
        for src, _ in generate_synthetic(spec).pairs:
            assert 2 <= len(src) <= 5

    def test_bad_task_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec("sort")


def small_setup():
    corpus = generate_synthetic(
        SyntheticTaskSpec("copy", alphabet=6, min_len=2, max_len=5, count=10, seed=2)
    )
    vocab = Vocabulary(f"s{i}" for i in range(6))
    return corpus, vocab


class TestBatches:
    def test_batch_sizes(self):
        corpus, vocab = small_setup()
        batches = make_batches(corpus, vocab, vocab, 4)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_masks_match_pad_layout(self):
        corpus, vocab = small_setup()
        for batch in make_batches(corpus, vocab, vocab, 4):
            np.testing.assert_array_equal(batch.src_mask, batch.src != PAD_ID)
            np.testing.assert_array_equal(batch.tgt_mask, batch.tgt_out != PAD_ID)

    def test_teacher_forcing_discipline(self):
        corpus, vocab = small_setup()
        for batch in make_batches(corpus, vocab, vocab, 3):
            for i in range(len(batch)):
                n = int(batch.tgt_mask[i].sum())
                assert batch.tgt_in[i, 0] == BOS_ID
                assert batch.tgt_out[i, n - 1] == EOS_ID
                assert (batch.tgt_out[i, : n - 1] != EOS_ID).all()  # EOS exactly once
                np.testing.assert_array_equal(
                    batch.tgt_in[i, 1:n], batch.tgt_out[i, : n - 1]
                )

    def test_shuffle_determinism(self):
        corpus, vocab = small_setup()
        a = make_batches(corpus, vocab, vocab, 4, shuffle_seed=5)
        b = make_batches(corpus, vocab, vocab, 4, shuffle_seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.src, y.src)

    def test_batch_loss_equals_per_sentence_oracle(self):
        """Token-weighted combination of per-sentence losses, to 1e-12."""
        corpus, vocab = small_setup()
        model = toy_model(seed=41)
        batch = make_batches(corpus, vocab, vocab, 5)[0]
        with ad.no_grad():
            result = model.forward(*_batch_args(batch))
            batch_loss = model.loss(result.rep, batch.tgt_out[batch.tgt_mask])[0].item()

        total, count = 0.0, 0
        for src_toks, tgt_toks in corpus.pairs[:5]:
            s, t_in, t_out = encode_pair(src_toks, tgt_toks, vocab, vocab)
            with ad.no_grad():
                r = model.forward(*padded(s, [len(s)]), *padded(t_in, [len(t_in)]))
                loss = model.loss(r.rep, np.array(t_out))[0].item()
            total += loss * len(t_out)
            count += len(t_out)
        assert abs(batch_loss - total / count) < 1e-12

    def test_extra_pad_columns_change_nothing(self):
        corpus, vocab = small_setup()
        model = toy_model(seed=43)
        batch = make_batches(corpus, vocab, vocab, 5)[0]
        widen = lambda m: np.hstack([m, np.zeros((len(batch), 2), dtype=m.dtype)])  # noqa: E731
        wide = Batch(
            widen(batch.src), widen(batch.tgt_in), widen(batch.tgt_out),
            widen(batch.src) != PAD_ID, widen(batch.tgt_out) != PAD_ID,
        )
        with ad.no_grad():
            a = model.forward(*_batch_args(batch))
            b = model.forward(*_batch_args(wide))
        np.testing.assert_array_equal(
            model.output_logits(a.rep), model.output_logits(b.rep)
        )


def _batch_args(batch):
    return batch.src, batch.src_mask, batch.tgt_in, batch.tgt_mask
