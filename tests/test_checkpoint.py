"""Checkpoint container: byte round-trips, state restoration, validation."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mlrf import autodiff as ad
from mlrf.checkpoint import (
    ALIGN, RunMeta, build_model, load_checkpoint, restore_training, save_checkpoint,
)
from mlrf.data import BOS_ID, EOS_ID
from mlrf.decoding import SentenceScorer
from mlrf.fusion import FusionConfig
from mlrf.model import Transformer
from mlrf.training import AdamState, TrainConfig, adam_step
from tests.conftest import (
    needs_statm, padded, random_sentences, resident_bytes, rewrite_header, toy_config, toy_model,
)


def trained_model(seed=51):
    """A model whose weights and optimizer moments are not at init values."""
    model = toy_model("decoder", "self_attention", seed=seed)
    state = AdamState(model.params)
    rng = np.random.default_rng(seed)
    src_ids, src_lens = random_sentences(rng, 2)
    tgt_ids, tgt_lens = random_sentences(rng, 2)
    tgt_out = np.concatenate([tgt_ids[1:], [2]])
    for _ in range(3):
        result = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens), train=True)
        loss = model.loss(result.rep, tgt_out)[0]
        model.params.zero_grads()
        ad.backward(loss)
        adam_step(model.params, state, lr=1e-3)
    return model, state


BIG = dict(src_vocab=40000, d_model=32)  # a 10.2 MB source embedding


def param_bytes(params) -> int:
    return sum(t.data.nbytes for _, t in params.items())


def in_child(name: str, *args) -> dict:
    """This module's function ``name`` called on ``args`` (as strings) in a
    fresh interpreter, and the dict it returns: a resident-memory
    measurement there sees no heap memory that earlier tests left behind."""
    code = (
        f"import json, sys; from tests.test_checkpoint import {name}; "
        f"print(json.dumps({name}(*sys.argv[1:])))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def load_and_build_growth(path) -> dict:
    """Resident growth while loading and building (the checkpoint held, as
    the moments are while a load runs) a BIG model's checkpoint, saved to
    ``path``, and the bytes that building should take."""
    model = Transformer(toy_config(**BIG), seed=5)
    save_checkpoint(path, model, AdamState(model.params), None, {})
    wanted = param_bytes(model.params) // 2
    del model
    before = resident_bytes()
    ckpt = load_checkpoint(path)
    loaded = build_model(ckpt)
    return {
        "grown": resident_bytes() - before,
        "wanted": wanted,
        "size": Path(path).stat().st_size,
        "loaded": param_bytes(loaded.params),
        "moments": len(ckpt.opt_m),
        "tensors": len(ckpt.tensors),
    }


def fresh_moments_save_growth(path) -> dict:
    """Resident growth while making fresh moments for a BIG model and saving
    them to ``path``."""
    model = Transformer(toy_config(**BIG), seed=5)
    before = resident_bytes()
    state = AdamState(model.params)
    save_checkpoint(path, model, state, None, {})
    return {
        "grown": resident_bytes() - before,
        "params": param_bytes(model.params),
        "writeable": state.m["src_embed.weight"].flags.writeable,
    }


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, state = trained_model()
        meta = {
            "seed": 51,
            "epochs_done": 1,
            "src_vocab_tokens": ["s0", "s1"],
            "tgt_vocab_tokens": ["s0", "s1"],
        }
        first = tmp_path / "a.ckpt"
        save_checkpoint(first, model, state, TrainConfig(), meta)

        ckpt = load_checkpoint(first)
        again, state2 = restore_training(ckpt)
        second = tmp_path / "b.ckpt"
        save_checkpoint(second, again, state2, ckpt.train_config, ckpt.meta)
        assert first.read_bytes() == second.read_bytes()

    def test_size_does_not_depend_on_counter_digits(self, tmp_path):
        """The header is padded so the data starts on an ``ALIGN`` boundary,
        and a counter that gains a digit leaves the size unchanged."""
        model, state = trained_model()
        sizes = []
        for epochs in (9, 10):
            path = tmp_path / f"{epochs}.ckpt"
            save_checkpoint(path, model, state, TrainConfig(), {"epochs_done": epochs})
            raw = path.read_bytes()
            data = sum(8 * t.size for _, t in model.params.items()) * 3
            assert (len(raw) - data) % ALIGN == 0
            sizes.append(len(raw))
            assert load_checkpoint(path).meta == RunMeta(epochs_done=epochs)
        assert sizes[0] == sizes[1]

    def test_unpadded_file_still_loads(self, tmp_path):
        """A file whose header has no padding, as saves wrote it before,
        loads to the same tensors and meta."""
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, TrainConfig(), {"epochs_done": 3})
        raw = path.read_bytes()
        magic_end = raw.index(b"\n") + 1
        size_end = raw.index(b"\n", magic_end) + 1
        n = int(raw[magic_end:size_end])
        body = raw[size_end : size_end + n].rstrip(b" ")
        old = tmp_path / "old.ckpt"
        old.write_bytes(raw[:magic_end] + b"%d\n" % len(body) + body + raw[size_end + n :])
        assert old.stat().st_size < path.stat().st_size
        new, unpadded = load_checkpoint(path), load_checkpoint(old)
        assert unpadded.meta == new.meta and unpadded.opt_t == new.opt_t
        for saved, loaded in ((new.tensors, unpadded.tensors), (new.opt_m, unpadded.opt_m),
                              (new.opt_v, unpadded.opt_v)):
            assert saved.keys() == loaded.keys()
            for name in saved:
                np.testing.assert_array_equal(saved[name], loaded[name])

    def test_logits_bit_identical_after_reload(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {"seed": 51})
        again, _ = restore_training(load_checkpoint(path))

        rng = np.random.default_rng(3)
        src_ids, src_lens = random_sentences(rng, 2)
        tgt_ids, tgt_lens = random_sentences(rng, 2)
        with ad.no_grad():
            a = model.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
            b = again.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens))
        np.testing.assert_array_equal(
            model.output_logits(a.rep), again.output_logits(b.rep)
        )

    def test_optimizer_state_round_trips(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {})
        _, restored = restore_training(load_checkpoint(path))
        assert restored.t == state.t and restored.phase == state.phase
        for name in model.params.names():
            np.testing.assert_array_equal(restored.m[name], state.m[name])
            np.testing.assert_array_equal(restored.v[name], state.v[name])

    def test_configs_survive(self, tmp_path):
        model, state = trained_model()
        tcfg = TrainConfig(epochs_phase1=3, warmup_steps=123)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, tcfg, {"seed": 51})
        ckpt = load_checkpoint(path)
        assert ckpt.model_config == model.config
        assert ckpt.fusion_config == model.fusion
        assert ckpt.train_config == tcfg

    def test_load_maps_every_block(self, tmp_path):
        model = Transformer(toy_config(src_vocab=4000, tgt_vocab=4000, d_model=32), seed=5)
        state = AdamState(model.params)
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, model, state, None, {})
        wanted = param_bytes(model.params)
        assert wanted > 3_000_000
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # parameters and moments are mapped, not allocated: what is traced is
        # the header and about 1 KB of array objects per block
        assert peak <= 0.1 * wanted
        for arrays in (ckpt.tensors, ckpt.opt_m, ckpt.opt_v):
            for arr in arrays.values():
                assert arr.dtype == np.float64 and arr.flags.aligned
                assert arr.flags.writeable and arr.flags.c_contiguous

    @needs_statm
    def test_resumed_model_and_optimizer_hold_the_file_once(self, tmp_path):
        """restore_training copies each parameter block and drops its pages,
        and adopts the mapped moments, so once every moment has been written
        (as the first update does) the resumed run holds about the file's
        size, whether or not the checkpoint is still referenced."""
        model = Transformer(toy_config(**BIG), seed=5)
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, model, AdamState(model.params), None, {})
        size = path.stat().st_size
        del model
        before = resident_bytes()
        ckpt = load_checkpoint(path)
        resumed, state = restore_training(ckpt)
        for moments in (state.m, state.v):
            for arr in moments.values():
                arr += 1.0
        with_ckpt = resident_bytes() - before
        del ckpt
        held = resident_bytes() - before
        assert with_ckpt <= 1.1 * size
        assert 0.95 * size <= held <= 1.05 * size
        assert state.m["output.weight"].flags.writeable

    def test_restore_rejects_misshaped_moments(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {})
        ckpt = load_checkpoint(path)
        ckpt.opt_v["output.bias"] = ckpt.opt_v["output.bias"][:-1]
        with pytest.raises(ValueError, match="output.bias"):
            restore_training(ckpt)


class TestPrecisionSplit:
    """Inference builds a float32 model; resume restores float64 exactly."""

    def test_restore_training_copies_the_saved_parameters_bit_for_bit(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {"seed": 51})
        resumed, _ = restore_training(load_checkpoint(path))
        for name, t in model.params.items():
            got = resumed.params[name].data
            assert got.dtype == np.float64 and got.flags.owndata
            assert got.tobytes() == t.data.tobytes()

    def test_build_model_computes_in_float32_and_cannot_be_trained(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {"seed": 51})
        fast = build_model(load_checkpoint(path))
        for name, t in model.params.items():
            got = fast.params[name].data
            assert got.dtype == np.float32 and got.flags.owndata
            np.testing.assert_array_equal(got, t.data.astype(np.float32))
        logps = SentenceScorer(fast, [5, 6, EOS_ID])(np.array([BOS_ID]), None)
        assert logps.dtype == np.float32
        rng = np.random.default_rng(4)
        src_ids, src_lens = random_sentences(rng, 2)
        tgt_ids, tgt_lens = random_sentences(rng, 2)
        result = fast.forward(*padded(src_ids, src_lens), *padded(tgt_ids, tgt_lens), train=True)
        ad.backward(fast.loss(result.rep, np.concatenate([tgt_ids[1:], [2]]))[0])
        assert all(t.grad.dtype == np.float32 for _, t in fast.params.items())
        with pytest.raises(ValueError, match="is float32, not float64"):
            adam_step(fast.params, AdamState(fast.params), lr=1e-3)


@needs_statm
class TestMappedMoments:
    """Moments are mapped copy-on-write and paged in only when touched.

    Resident memory is measured in a child interpreter (``in_child``)."""

    def test_load_and_build_grow_resident_memory_by_the_parameters(self, tmp_path):
        got = in_child("load_and_build_growth", tmp_path / "big.ckpt")
        wanted = got["wanted"]
        assert wanted > 5_000_000 and got["size"] > 6 * wanted
        assert 0.9 * wanted <= got["grown"] <= 1.1 * wanted
        assert got["loaded"] == wanted and got["moments"] == got["tensors"]

    def test_saving_fresh_moments_does_not_page_them_in(self, tmp_path):
        got = in_child("fresh_moments_save_growth", tmp_path / "big.ckpt")
        assert got["grown"] <= 0.1 * got["params"]
        assert got["writeable"]

    def test_loaded_moments_are_writable_copies_of_the_saved_bits(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {})
        raw = path.read_bytes()
        ckpt = load_checkpoint(path)
        for saved, loaded in ((state.m, ckpt.opt_m), (state.v, ckpt.opt_v)):
            assert sorted(loaded) == sorted(saved)
            for name, arr in loaded.items():
                assert arr.dtype == np.float64 and arr.shape == saved[name].shape
                assert arr.flags.writeable and arr.flags.c_contiguous
                assert arr.tobytes() == saved[name].tobytes()
                arr += 1.0  # copy-on-write: the file keeps its bytes
        assert path.read_bytes() == raw

    def test_a_save_over_the_loaded_file_leaves_its_moments_unchanged(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {})
        saved = {name: m.copy() for name, m in state.m.items()}
        ckpt = load_checkpoint(path)
        for m in state.m.values():
            m += 1.0
        save_checkpoint(path, model, state, None, {})
        for name, m in ckpt.opt_m.items():
            assert m.tobytes() == saved[name].tobytes()
        again = load_checkpoint(path)
        np.testing.assert_array_equal(again.opt_m["output.weight"], state.m["output.weight"])


class TestValidation:
    def test_rejects_differently_shaped_model(self, tmp_path):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, None, None, {})
        ckpt = replace(load_checkpoint(path), model_config=toy_config(d_model=16, d_ff=32))
        with pytest.raises(ValueError, match="mismatch|does not match"):
            build_model(ckpt)

    def test_rejects_missing_tensor(self, tmp_path):
        model, _ = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, None, None, {})
        # a model without fusion finds the saved fusion tensors extra
        ckpt = replace(load_checkpoint(path), fusion_config=FusionConfig())
        with pytest.raises(ValueError, match="does not match"):
            build_model(ckpt)

    def test_rejects_trailing_bytes(self, tmp_path):
        model, _ = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, None, None, {})
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="m.ckpt"):
            load_checkpoint(path)

    def test_rejects_truncated_data(self, tmp_path):
        model, _ = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, None, None, {})
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(ValueError, match="m.ckpt"):
            load_checkpoint(path)

    def test_header_cut_or_garbled_names_the_file(self, tmp_path):
        model, _ = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, None, None, {})
        raw = path.read_bytes()
        magic_end = raw.index(b"\n") + 1
        size_end = raw.index(b"\n", magic_end) + 1
        header = json.loads(raw[size_end : size_end + int(raw[magic_end:size_end])])

        def with_index(dims):
            """The saved header with tensors "a" of shape ``dims`` and "b" of
            shape [2], and the data bytes an int-and-multiply count expects."""
            body = json.dumps({**header, "tensors": [["a", dims], ["b", [2]]]}).encode()
            data = bytes(8 * (int(dims[0]) + 2))
            return raw[:magic_end] + b"%d\n" % len(body) + body + data

        for broken in (
            raw[:100],  # inside the JSON header
            raw[:magic_end],  # no size line
            raw[: size_end - 2],  # inside the size line
            raw[:magic_end] + b"twelve\n" + raw[size_end:],
            raw[:magic_end] + b"2\n[]" + raw[size_end:],
            with_index([-1]),  # -1 + 2 elements: 8 bytes, the length check passes
            with_index([2.5]),
            with_index(["2"]),
        ):
            path.write_bytes(broken)
            with pytest.raises(ValueError, match=r"corrupt checkpoint .*m\.ckpt"):
                load_checkpoint(path)

    def test_header_with_unknown_config_key_names_the_file(self, tmp_path):
        model, _ = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, None, None, {})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"d_model"', b'"d_modxl"', 1))  # same length
        with pytest.raises(ValueError, match=r"corrupt checkpoint .*m\.ckpt.*d_modxl"):
            load_checkpoint(path)

    @pytest.mark.parametrize("depth", [1, 10**6])
    def test_rejects_n_layers_that_the_tensor_index_does_not_hold(self, tmp_path, depth):
        """Refused before anything is built per layer, so a huge depth costs
        nothing."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, toy_model(), None, None, {})
        rewrite_header(path, lambda header: header["model"].update(n_layers=depth))
        with pytest.raises(
            ValueError, match=rf"corrupt checkpoint .*m\.ckpt: model n_layers is {depth}, "
            r"but the tensor index holds 2 encoder layers"
        ):
            load_checkpoint(path)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\nreally\n")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)


class TestAtomicSave:
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        model, state = trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, None, {})
        before = path.read_bytes()
        real = np.ascontiguousarray
        calls = []

        def fail_on_third_block(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_third_block)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, state, None, {"seed": 1})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
