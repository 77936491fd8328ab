"""End-to-end command-line runs on a miniature copy task."""

import configparser
import contextlib
import dataclasses
import io
import itertools
import math
import os
import shutil
import subprocess
import sys
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from mlrf import autodiff as ad
from mlrf import cli, config, data, training
from mlrf.checkpoint import (
    MAGIC, OptimizerHeader, RunMeta, build_model, load_checkpoint, save_checkpoint,
)
from mlrf.cli import main
from mlrf.config import ConfigError, DataConfig, RunConfig, load_config
from mlrf.data import EOS_ID, Vocabulary
from mlrf.decoding import BeamConfig, SentenceScorer, greedy_decode
from mlrf.fusion import FusionConfig
from mlrf.model import ModelConfig
from mlrf.training import TrainConfig
from tests.conftest import read_trace_file, rewrite_header, scale, toy_model

TINY_CFG = """\
[run]
version = 1
seed = 5

[model]
layers = 1
d_model = 16
d_ff = 32
heads = 2
max_len = 10
dropout = 0.1

[fusion]
side = decoder
dec_kind = self_attention
n_hop = 2
d_a = 8
d_f = 8

[train]
epochs_phase1 = {phase1}
epochs_phase2 = {phase2}
batch_phase1 = 8
batch_phase2 = 8
warmup_steps = 50
log_every = 1

[data]
task = copy
alphabet = 6
min_len = 2
max_len = 5
train_count = 24
valid_count = 8
"""

# 10 tokens: one more than the tiny model's max_len of 10 takes with EOS
LONG_LINE = " ".join(f"s{i % 6}" for i in range(10))


def write_cfg(tmp_path, name="run.cfg", phase1=2, phase2=1, extra=""):
    path = tmp_path / name
    path.write_text(TINY_CFG.format(phase1=phase1, phase2=phase2) + extra)
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared tiny training run for the read-only command tests."""
    tmp_path = tmp_path_factory.mktemp("cli_run")
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return tmp_path, out


class TestTrain:
    def test_outputs_exist(self, trained):
        _, out = trained
        for name in ("last.ckpt", "best.ckpt", "metrics.tsv"):
            assert (out / name).exists()

    def test_metrics_rows_match_logged_steps(self, trained):
        _, out = trained
        lines = (out / "metrics.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["step", "phase", "lr", "loss", "train_acc", "valid_acc"]
        # log_every=1: 3 batches/epoch x 3 epochs, step counter restarting
        # with the optimizer at phase 2
        assert len(lines) - 1 == 9
        phases = {row.split("\t")[1] for row in lines[1:]}
        assert phases == {"warmup_schedule", "restarted"}

    def test_restart_rows_use_fixed_lr(self, trained):
        _, out = trained
        for row in (out / "metrics.tsv").read_text().splitlines()[1:]:
            step, phase, lr = row.split("\t")[:3]
            if phase == "restarted":
                assert float(lr) == 5e-5

    def test_runs_are_fully_reproducible(self, trained, tmp_path):
        src_tmp, out = trained
        cfg = write_cfg(tmp_path)
        out2 = tmp_path / "out2"
        assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
        assert (out / "metrics.tsv").read_bytes() == (out2 / "metrics.tsv").read_bytes()
        assert (out / "last.ckpt").read_bytes() == (out2 / "last.ckpt").read_bytes()

    def test_resume_reproduces_the_full_trajectory(self, trained, tmp_path):
        _, out_full = trained
        cfg_partial = write_cfg(tmp_path, "partial.cfg", phase1=2, phase2=0)
        out_partial = tmp_path / "partial"
        assert main(["train", "--config", cfg_partial, "--out", str(out_partial)]) == 0

        cfg_full = write_cfg(tmp_path, "full.cfg", phase1=2, phase2=1)
        out_resumed = tmp_path / "resumed"
        assert main([
            "train", "--config", cfg_full, "--out", str(out_resumed),
            "--resume", str(out_partial / "last.ckpt"),
        ]) == 0

        full_rows = (out_full / "metrics.tsv").read_text().splitlines()[1:]
        resumed_rows = (out_resumed / "metrics.tsv").read_text().splitlines()[1:]
        full_phase2 = [r for r in full_rows if r.split("\t")[1] == "restarted"]
        assert resumed_rows == full_phase2
        assert (out_full / "last.ckpt").read_bytes() == (out_resumed / "last.ckpt").read_bytes()

    def test_non_finite_loss_leaves_last_checkpoint(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg_one = write_cfg(tmp_path, "one.cfg", phase1=1, phase2=0)
        assert main(["train", "--config", cfg_one, "--out", str(out)]) == 0
        before = (out / "last.ckpt").read_bytes()
        rows_before = (out / "metrics.tsv").read_bytes()
        real = ad.cross_entropy

        def nan_loss(*args, **kwargs):
            loss, correct = real(*args, **kwargs)
            return scale(loss, float("nan")), correct

        monkeypatch.setattr(ad, "cross_entropy", nan_loss)
        cfg_two = write_cfg(tmp_path, "two.cfg", phase1=2, phase2=0)
        with pytest.raises(FloatingPointError, match="step 4"):
            main([
                "train", "--config", cfg_two, "--out", str(out),
                "--resume", str(out / "last.ckpt"),
            ])
        assert (out / "last.ckpt").read_bytes() == before
        assert (out / "metrics.tsv").read_bytes() == rows_before
        assert sorted(p.name for p in out.iterdir()) == ["best.ckpt", "last.ckpt", "metrics.tsv"]

    @pytest.fixture
    def saves(self, monkeypatch):
        """Each checkpoint save of a run, as (file name, bytes written)."""
        saved = []

        def spy(path, *args, **kwargs):
            save_checkpoint(path, *args, **kwargs)
            saved.append((Path(path).name, Path(path).read_bytes()))

        monkeypatch.setattr(cli, "save_checkpoint", spy)
        return saved

    def test_improving_epoch_saves_once_and_links_best(self, tmp_path, saves):
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, phase1=1, phase2=0),
                     "--out", str(out)]) == 0
        assert [name for name, _ in saves] == ["last.ckpt"]
        assert (out / "best.ckpt").read_bytes() == (out / "last.ckpt").read_bytes() == saves[0][1]
        assert os.path.samefile(out / "best.ckpt", out / "last.ckpt")

    def test_later_save_of_last_leaves_best(self, tmp_path, saves, monkeypatch):
        real = cli.evaluate_teacher_forced
        losses = iter([1.0, 2.0])  # the second epoch does not improve

        def scored(model, batches):
            return {**real(model, batches), "loss": next(losses)}

        monkeypatch.setattr(cli, "evaluate_teacher_forced", scored)
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, phase1=2, phase2=0),
                     "--out", str(out)]) == 0
        assert [name for name, _ in saves] == ["last.ckpt", "last.ckpt"]
        assert (out / "best.ckpt").read_bytes() == saves[0][1] != saves[1][1]
        assert (out / "last.ckpt").read_bytes() == saves[1][1]

    def test_best_is_saved_with_the_same_bytes_where_links_fail(
        self, tmp_path, saves, monkeypatch
    ):
        cfg = write_cfg(tmp_path, phase1=1, phase2=0)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "linked")]) == 0

        def no_link(src, dst):
            raise PermissionError("hard links not permitted")

        monkeypatch.setattr(os, "link", no_link)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert [name for name, _ in saves] == ["last.ckpt", "last.ckpt", "best.ckpt"]
        assert (out / "best.ckpt").read_bytes() == (tmp_path / "linked/best.ckpt").read_bytes()
        assert not os.path.samefile(out / "best.ckpt", out / "last.ckpt")
        assert sorted(p.name for p in out.iterdir()) == ["best.ckpt", "last.ckpt", "metrics.tsv"]

    def test_run_that_dies_keeps_the_finished_epochs_rows(self, tmp_path, monkeypatch):
        one = tmp_path / "one"
        assert main(["train", "--config", write_cfg(tmp_path, "one.cfg", 1, 0), "--out", str(one)]) == 0
        real = training.train_step

        def dies_at_step_4(model, batch, state, cfg):
            if state.t == 3:
                raise FloatingPointError("step 4")
            return real(model, batch, state, cfg)

        monkeypatch.setattr(training, "train_step", dies_at_step_4)
        out = tmp_path / "out"
        with pytest.raises(FloatingPointError):
            main(["train", "--config", write_cfg(tmp_path, "two.cfg", 2, 0), "--out", str(out)])
        assert (out / "metrics.tsv").read_bytes() == (one / "metrics.tsv").read_bytes()

    def test_resume_into_its_own_directory_keeps_the_earlier_rows(self, trained, tmp_path):
        """The file of a run resumed in place is the uninterrupted run's, also
        when the checkpoint is older than the file's last row."""
        _, out_full = trained
        out = tmp_path / "out"
        cfg_partial = write_cfg(tmp_path, "partial.cfg", phase1=2, phase2=0)
        assert main(["train", "--config", cfg_partial, "--out", str(out)]) == 0
        older = tmp_path / "epoch2.ckpt"
        older.write_bytes((out / "last.ckpt").read_bytes())
        cfg_full = write_cfg(tmp_path, "full.cfg", phase1=2, phase2=1)
        for ckpt in (out / "last.ckpt", older):
            assert main(["train", "--config", cfg_full, "--out", str(out), "--resume", str(ckpt)]) == 0
            assert (out / "metrics.tsv").read_bytes() == (out_full / "metrics.tsv").read_bytes()

    def test_resume_over_a_broken_metrics_file_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "one.cfg", phase1=1, phase2=0)
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        (out / "metrics.tsv").write_text("step\nnot a row\n")
        resume = ["--resume", str(out / "last.ckpt")]
        assert main(["train", "--config", cfg, "--out", str(out), *resume]) == 2
        assert "is not a metrics file to resume from" in capsys.readouterr().err

    def test_invalid_config_lists_offending_keys(self, tmp_path, capsys):
        bad = TINY_CFG.format(phase1=1, phase2=0).replace(
            "heads = 2", "heads = two\nwibble = 3"
        )
        path = tmp_path / "bad.cfg"
        path.write_text(bad)
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "wibble" in err and "heads" in err


def edited_cfg(tmp_path, section, changes):
    """TINY_CFG with ``changes`` set in ``[section]`` (None removes a key)."""
    parser = configparser.ConfigParser()
    parser.read_string(TINY_CFG.format(phase1=1, phase2=0))
    for key, value in changes.items():
        if value is None:
            parser.remove_option(section, key)
        else:
            parser.set(section, key, value)
    path = tmp_path / "edited.cfg"
    with path.open("w") as f:
        parser.write(f)
    return str(path)


# (section, changes, text the error must hold): values a config load once let
# through, to crash later in training or to be silently ignored
BAD_VALUES = [
    ("model", {"heads": "0"}, "n_heads must be >= 1"),
    ("model", {"d_model": "0"}, "d_model must be >= 1"),
    ("model", {"d_ff": "0"}, "d_ff must be >= 1"),
    ("model", {"d_model": "31"}, "not divisible by n_heads"),
    ("model", {"d_model": "15", "heads": "1"}, "d_model must be even"),
    ("model", {"dropout": "1.5"}, "dropout must be in [0, 1)"),
    ("model", {"src_vocab": "-5"}, "src_vocab and tgt_vocab must be >= 0"),
    ("train", {"log_every": "0"}, "log_every must be >= 1"),
    ("train", {"clip_norm": "-1"}, "clip_norm must be above 0"),
    ("train", {"clip_norm": "0"}, "clip_norm must be above 0"),
    ("train", {"epochs_phase1": "-1"}, "epochs_phase1"),
    ("train", {"epochs_phase2": "-1"}, "epochs_phase2"),
    ("train", {"restart_lr": "nan"}, "restart_lr"),
    ("train", {"restart_lr": "inf"}, "restart_lr"),
    ("train", {"adam_eps": "nan"}, "adam_eps"),
    ("train", {"adam_eps": "inf"}, "adam_eps"),
    ("data", {"task": "copyy"}, "unknown synthetic task 'copyy'"),
    ("data", {"min_len": "12"}, "min_len <= max_len"),
    ("data", {"task": None, "train_src": "a.txt"}, "train_src and train_tgt"),
    (
        "data",
        {"task": None, "train_src": "a.txt", "train_tgt": "b.txt", "valid_src": "c.txt"},
        "valid_src and valid_tgt",
    ),
    ("data", {"train_src": "a.txt", "train_tgt": "b.txt"}, "either task or file paths"),
    ("data", {"max_sentence_len": "0"}, "max_sentence_len"),
    ("data", {"max_vocab": "0"}, "max_vocab"),
]


class TestConfigTable:
    @pytest.mark.parametrize(
        "section,cls,not_keys",
        [
            ("model", ModelConfig, set()),
            ("fusion", FusionConfig, set()),
            ("train", TrainConfig, {"seed"}),  # the seed is [run]'s
            ("data", DataConfig, set()),
        ],
    )
    def test_keys_are_the_dataclass_fields(self, section, cls, not_keys):
        renamed = {"n_layers": "layers", "n_heads": "heads"} if section == "model" else {}
        fields = {f.name for f in dataclasses.fields(cls)} - not_keys
        assert set(config.section_keys(section)) == {renamed.get(n, n) for n in fields}

    def test_tiny_config_loads_into_its_dataclasses(self, tmp_path):
        assert load_config(write_cfg(tmp_path)) == RunConfig(
            seed=5,
            model=dict(
                n_layers=1, d_model=16, d_ff=32, n_heads=2, max_len=10,
                dropout=0.1, src_vocab=0, tgt_vocab=0,
            ),
            fusion=FusionConfig(side="decoder", dec_kind="self_attention", n_hop=2, d_a=8, d_f=8),
            train=TrainConfig(
                epochs_phase1=2, epochs_phase2=1, batch_phase1=8, batch_phase2=8,
                warmup_steps=50, log_every=1, seed=5,
            ),
            data=DataConfig(task="copy", alphabet=6, min_len=2, max_len=5,
                            train_count=24, valid_count=8),
        )

    @pytest.mark.parametrize("command", ["train", "param-count"])
    @pytest.mark.parametrize(
        "section,changes,text",
        BAD_VALUES,
        ids=[",".join(f"{k}={v}" for k, v in c.items()) for _, c, _ in BAD_VALUES],
    )
    def test_bad_value_is_one_error_line_before_any_data_or_weight(
        self, tmp_path, capsys, monkeypatch, command, section, changes, text
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad config reached data generation or weight init")

        monkeypatch.setattr(config, "generate_synthetic", refuse)
        monkeypatch.setattr(data, "generate_synthetic", refuse)
        monkeypatch.setattr("mlrf.model.init_parameters", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        path = edited_cfg(tmp_path, section, changes)
        argv = ["--config", path] + (["--out", str(tmp_path / "out")] if command == "train" else [])
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"[{section}]" in err[0] and text in err[0]


class TestConfigLengths:
    def test_repo_configs_load(self, tmp_path):
        for path in ("configs/de_en_shaped.cfg", "configs/toy_copy.cfg", write_cfg(tmp_path)):
            load_config(path)

    def test_model_too_short_for_synthetic_data(self, tmp_path):
        # source plus EOS is 13 tokens; before this check training crashed mid-epoch
        path = tmp_path / "short.cfg"
        path.write_text(
            TINY_CFG.format(phase1=1, phase2=0)
            .replace("max_len = 10", "max_len = 12")
            .replace("max_len = 5", "max_len = 12")
        )
        with pytest.raises(ConfigError, match=r"\[model\] max_len = 12 .*\[data\] max_len = 12"):
            load_config(path)

    def test_model_too_short_for_file_data(self, tmp_path):
        path = tmp_path / "files.cfg"
        path.write_text(
            "[model]\nlayers = 1\nd_model = 8\nd_ff = 8\nheads = 2\nmax_len = 50\n"
            "[data]\ntrain_src = a.txt\ntrain_tgt = b.txt\n"
        )
        with pytest.raises(ConfigError, match="max_sentence_len = 50"):
            load_config(path)

    def test_decode_section_is_rejected(self, tmp_path):
        path = write_cfg(tmp_path, phase1=1, phase2=0, extra="\n[decode]\nbeam = 2\n")
        with pytest.raises(ConfigError, match=r"unknown section \[decode\]"):
            load_config(path)


class TestPinnedVocabulary:
    @pytest.mark.parametrize("command", ["train", "param-count"])
    def test_pin_that_differs_from_the_data_is_one_error_line_before_any_weight(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a mismatched vocabulary pin reached weight init")

        monkeypatch.setattr("mlrf.model.init_parameters", refuse)
        path = edited_cfg(tmp_path, "model", {"src_vocab": "50", "tgt_vocab": "50"})
        out = tmp_path / "out"
        argv = ["--config", path] + (["--out", str(out)] if command == "train" else [])
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        # alphabet 6 + 4 reserved tokens
        assert "[model] src_vocab = 50" in err[0] and "the 10 tokens" in err[0]
        assert not list(out.glob("*.ckpt"))

    def test_pin_that_matches_the_data_trains(self, tmp_path, capsys):
        path = edited_cfg(tmp_path, "model", {"src_vocab": "10", "tgt_vocab": "10"})
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert load_checkpoint(tmp_path / "out" / "last.ckpt").model_config.src_vocab == 10


class TestBeamFlags:
    @pytest.mark.parametrize("command", ["translate", "evaluate", "export-attention"])
    @pytest.mark.parametrize(
        "flag,value", [("--beam", "0"), ("--max-len", "0"), ("--alpha", "nan")]
    )
    def test_bad_value_exits_2_before_reading_the_checkpoint(
        self, tmp_path, capsys, command, flag, value
    ):
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        files = [str(inp), str(inp)] if command == "evaluate" else [str(inp)]
        missing = str(tmp_path / "missing.ckpt")
        assert main([command, "--checkpoint", missing, *files, flag, value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid beam flags")

    def test_help_names_the_beam_config_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["translate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        beam = BeamConfig()
        assert f"beam width (default {beam.width})" in text
        assert f"(default {beam.length_alpha})" in text
        assert f"(default {beam.max_len}, capped at the model's max_len - 1)" in text


def _renamed_moment(index):
    """``index`` with the block ``opt.m.output.bias`` renamed to a name that
    is no parameter's, its size kept."""
    renamed = [[name.replace(".output.bias", ".output.bogus"), dims] for name, dims in index]
    assert renamed != index
    return renamed


# header -> its malformed entries, each written into an otherwise whole
# checkpoint with Adam state
BAD_HEADERS = {
    "optimizer_int": lambda header: {"optimizer": 5},
    "optimizer_no_phase": lambda header: {"optimizer": {"t": 1}},
    "meta_list": lambda header: {"meta": []},
    "moments_without_optimizer": lambda header: {"optimizer": None},
    "moment_renamed": lambda header: {"tensors": _renamed_moment(header["tensors"])},
}


def write_broken_checkpoint(path, broken):
    """At ``path``: nothing (``missing``), 100 zero bytes (``zeros``), a toy
    checkpoint saved without vocabularies (``no_vocabs``), or one with them
    and a ``BAD_HEADERS`` entry."""
    if broken == "zeros":
        path.write_bytes(bytes(100))
    if broken in ("missing", "zeros"):
        return
    meta = {"seed": 0}
    if broken != "no_vocabs":
        meta.update(src_vocab_tokens=["s0"], tgt_vocab_tokens=["s0"])
    model = toy_model()
    save_checkpoint(path, model, training.AdamState(model.params), meta=meta)
    if broken in BAD_HEADERS:
        rewrite_header(path, lambda header: header.update(BAD_HEADERS[broken](header)))


class TestCheckpointErrors:
    @pytest.mark.parametrize("command", ["translate", "evaluate", "export-attention", "train"])
    @pytest.mark.parametrize("broken", ["missing", "zeros", "no_vocabs", *BAD_HEADERS])
    def test_unreadable_checkpoint_is_one_error_line(self, tmp_path, capsys, command, broken):
        ckpt = tmp_path / "model.ckpt"
        write_broken_checkpoint(ckpt, broken)
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        if command == "train":
            argv = ["train", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "out"),
                    "--resume", str(ckpt)]
        else:
            files = [str(inp), str(inp)] if command == "evaluate" else [str(inp)]
            argv = [command, "--checkpoint", str(ckpt), *files]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(ckpt) in err[0]
        if broken in BAD_HEADERS:
            assert err[0].startswith(f"error: corrupt checkpoint {ckpt}: ")

    @pytest.mark.parametrize("key,value", [
        ("n_layers", 2.5), ("n_layers", 1e308), ("max_len", 2.5), ("max_len", True),
        ("n_heads", True),
    ])
    def test_mistyped_model_header_is_one_error_line(self, tmp_path, capsys, key, value):
        ckpt = tmp_path / "model.ckpt"
        meta = {"seed": 0, "src_vocab_tokens": ["s0"], "tgt_vocab_tokens": ["s0"]}
        save_checkpoint(ckpt, toy_model(), meta=meta)
        rewrite_header(ckpt, lambda header: header["model"].update({key: value}))
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        assert main(["translate", "--checkpoint", str(ckpt), str(inp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == f"error: corrupt checkpoint {ckpt}: {key} must be an integer, got {value!r}"

    def test_checkpoint_with_zero_heads_is_one_error_line(self, trained, tmp_path, capsys):
        _, out = trained
        blob = (out / "last.ckpt").read_bytes()
        assert blob.count(b'"n_heads":2') == 1
        ckpt = tmp_path / "heads0.ckpt"
        ckpt.write_bytes(blob.replace(b'"n_heads":2', b'"n_heads":0'))
        with pytest.raises(ValueError, match="n_heads must be >= 1"):
            load_checkpoint(ckpt)
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        assert main(["translate", "--checkpoint", str(ckpt), str(inp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(ckpt) in err[0] and "n_heads must be >= 1" in err[0]

    @pytest.mark.parametrize("command", ["translate", "evaluate", "export-attention", "train"])
    @pytest.mark.parametrize("key,value,why", [
        ("seed", [1], "seed must be an integer"),
        ("src_vocab_tokens", 5, "src_vocab_tokens must be a list of strings"),
        ("tgt_vocab_tokens", ["s0", 1], "tgt_vocab_tokens must be a list of strings"),
        ("epochs_done", [2], "epochs_done must be an integer"),
        ("epochs_done", -1, "epochs_done must be >= 0"),
        ("best_valid_loss", "0.5", "best_valid_loss must be a number"),
        ("last_valid_acc", [0.5], "last_valid_acc must be a number"),
    ])
    def test_wrongly_typed_meta_is_a_corrupt_checkpoint(
        self, tmp_path, capsys, command, key, value, why
    ):
        ckpt = tmp_path / "model.ckpt"
        meta = {"seed": 0, "src_vocab_tokens": ["s0"], "tgt_vocab_tokens": ["s0"]}
        save_checkpoint(ckpt, toy_model(), meta=meta)
        with pytest.raises(ValueError, match=why):
            save_checkpoint(tmp_path / "refused.ckpt", toy_model(), meta={**meta, key: value})
        assert not (tmp_path / "refused.ckpt").exists()
        rewrite_header(ckpt, lambda header: header["meta"].update({key: value}))
        with pytest.raises(ValueError, match=f"corrupt checkpoint .*{why}"):
            load_checkpoint(ckpt)
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        if command == "train":
            argv = ["train", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "out"),
                    "--resume", str(ckpt)]
        else:
            files = [str(inp), str(inp)] if command == "evaluate" else [str(inp)]
            argv = [command, "--checkpoint", str(ckpt), *files]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: corrupt checkpoint {ckpt}: {why}")

    @pytest.mark.parametrize("command", ["translate", "evaluate", "export-attention"])
    @pytest.mark.parametrize("side,count", [("tgt", 1), ("src", 8)])
    def test_vocabulary_unlike_the_model_is_a_corrupt_checkpoint(
        self, tmp_path, capsys, command, side, count
    ):
        """The toy model has 11 ids: the 4 reserved ones and 7 tokens.  A
        shorter target or a longer source token list is one error line."""
        meta = {"seed": 0, "src_vocab_tokens": [f"s{i}" for i in range(7)],
                "tgt_vocab_tokens": [f"s{i}" for i in range(7)]}
        meta[f"{side}_vocab_tokens"] = [f"s{i}" for i in range(count)]
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, toy_model(), meta=meta)
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        files = [str(inp), str(inp)] if command == "evaluate" else [str(inp)]
        assert main([command, "--checkpoint", str(ckpt), *files]) == 2
        err = capsys.readouterr().err.splitlines()
        size = len(data.RESERVED) + count
        assert err == [
            f"error: corrupt checkpoint {ckpt}: {side}_vocab_tokens make a vocabulary of "
            f"{size}, but the model's {side}_vocab is 11"
        ]

    def test_deeply_nested_header_is_one_error_line(self, tmp_path, capsys):
        """A header of 100,000 nested lists exhausts the JSON decoder's
        recursion limit: a corrupt checkpoint, not a traceback."""
        header = b"[" * 100_000
        ckpt = tmp_path / "nested.ckpt"
        ckpt.write_bytes(MAGIC.encode("ascii") + b"\n%d\n" % len(header) + header)
        with pytest.raises(ValueError, match="corrupt checkpoint .*recursion"):
            load_checkpoint(ckpt)
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        assert main(["translate", "--checkpoint", str(ckpt), str(inp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: corrupt checkpoint {ckpt}: ")

    def test_counters_of_a_run_without_validation_load(self, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        meta = {"seed": 0, "epochs_done": 2, "best_valid_loss": float("inf"),
                "last_valid_acc": None}
        save_checkpoint(ckpt, toy_model(), meta=meta)
        assert load_checkpoint(ckpt).meta == RunMeta(**meta)

    def test_meta_keys_of_older_runs_are_ignored(self, resumable, tmp_path):
        """Runs once also saved ``dropout_rng`` and ``reserved`` in the meta;
        their checkpoints still load, translate and resume."""
        base, cfg, inp = resumable
        ckpt = tmp_path / "old.ckpt"
        shutil.copyfile(base, ckpt)
        old_keys = {
            "dropout_rng": np.random.default_rng(5).bit_generator.state,
            "reserved": list(data.RESERVED),
        }
        rewrite_header(ckpt, lambda header: header["meta"].update(old_keys))
        assert b'"dropout_rng":' in ckpt.read_bytes() and b'"reserved":' in ckpt.read_bytes()
        assert load_checkpoint(ckpt).meta == load_checkpoint(base).meta
        assert main(["translate", "--checkpoint", str(ckpt), str(inp)]) == 0
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out), "--resume", str(ckpt)]) == 0
        assert load_checkpoint(out / "last.ckpt").meta.epochs_done == 2

    def test_optimizer_keys_no_field_names_are_ignored(self, resumable, tmp_path):
        """An optimizer header key that ``OptimizerHeader`` does not name is
        ignored, as a meta key is; the counters still load and resume."""
        base, cfg, _ = resumable
        ckpt = tmp_path / "extra.ckpt"
        shutil.copyfile(base, ckpt)
        rewrite_header(ckpt, lambda header: header["optimizer"].update({"reserved": [1]}))
        got, want = load_checkpoint(ckpt), load_checkpoint(base)
        assert (got.opt_t, got.phase) == (want.opt_t, want.phase) and got.opt_t > 0
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out), "--resume", str(ckpt)]) == 0


# every field of a checkpoint header, with its annotated type
HEADER_FIELDS = [
    (section, f.name, typing.get_type_hints(cls)[f.name])
    for section, cls in [
        ("model", ModelConfig), ("fusion", FusionConfig), ("train", TrainConfig), ("meta", RunMeta),
        ("optimizer", OptimizerHeader),
    ]
    for f in dataclasses.fields(cls)
]

# type swaps, then extremes
HEADER_VALUES = [
    "x", 2.5, True, None, [1], math.nan, -1, 0, 10**6, 1e308, math.inf, -math.inf,
]


def is_of_type(value, hint) -> bool:
    """``value``, as JSON reads it, is of the annotated type ``hint``: a
    float may be an int, but NaN is no number."""
    if isinstance(hint, types.UnionType):
        return any(is_of_type(value, h) for h in typing.get_args(hint))
    if hint is float:
        return type(value) in (int, float) and not math.isnan(value)
    if hint == list[str]:
        return type(value) is list and all(type(v) is str for v in value)
    return type(value) is hint


@pytest.fixture(scope="module")
def resumable(tmp_path_factory):
    """A tiny run's checkpoint after its first epoch, a config that resumes
    it for a second epoch, and a source file."""
    tmp_path = tmp_path_factory.mktemp("resumable")
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path, "one.cfg", 1, 0), "--out", str(out)]) == 0
    inp = tmp_path / "in.txt"
    inp.write_text("s0 s1 s2\n")
    return out / "last.ckpt", write_cfg(tmp_path, "two.cfg", 1, 1), inp


class TestHeaderFuzz:
    @pytest.mark.parametrize(
        "section,name,hint", HEADER_FIELDS, ids=[f"{s}.{n}" for s, n, _ in HEADER_FIELDS]
    )
    def test_one_edited_header_value_is_exit_0_or_one_error_line(
        self, resumable, section, name, hint
    ):
        """``translate`` and ``train --resume`` on a checkpoint with one
        header value edited end in exit 0, or in exit 2 with one ``error:``
        line, never in another exception; a value of the wrong type is
        always exit 2."""
        base, cfg, inp = resumable
        for value, command in itertools.product(HEADER_VALUES, ["translate", "train"]):
            with tempfile.TemporaryDirectory() as tmp:
                ckpt = Path(tmp) / "m.ckpt"
                shutil.copyfile(base, ckpt)
                rewrite_header(ckpt, lambda header: header[section].update({name: value}))
                if command == "translate":
                    argv = ["translate", "--checkpoint", str(ckpt), str(inp)]
                else:
                    argv = ["train", "--config", cfg, "--out", tmp, "--resume", str(ckpt)]
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert (code, len(errors)) in ((0, 0), (2, 1)), (code, err.getvalue())
            if not is_of_type(value, hint):
                assert code == 2, (value, command)

    @pytest.mark.parametrize("key,value,exit_code", [("max_len", 10**8, 0), ("n_layers", 10**6, 2)])
    def test_huge_header_size_costs_little_memory(
        self, trained, tmp_path, key, value, exit_code
    ):
        """A huge size in the header allocates nothing in proportion: only
        the positions a sentence uses are computed (at 10**8 the whole
        position table would take 12.8 GB), and a depth is compared with the
        tensor index before anything is built per layer.  The child process
        is capped at 1 GiB of address space."""
        _, out = trained
        ckpt = tmp_path / "huge.ckpt"
        shutil.copyfile(out / "last.ckpt", ckpt)
        rewrite_header(ckpt, lambda header: header["model"].update({key: value}))
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1 s2\n")
        code = (
            "import resource, sys; cap = 1 << 30; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "from mlrf.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "translate", "--checkpoint", str(ckpt), str(inp)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == exit_code, proc.stderr
        if exit_code == 0:
            assert len(proc.stdout.splitlines()) == 1
        else:
            assert proc.stderr.startswith(f"error: corrupt checkpoint {ckpt}: model n_layers")
            assert len(proc.stderr.splitlines()) == 1

class TestTranslate:
    def test_writes_one_line_per_input(self, trained, tmp_path):
        _, out = trained
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\ns2 s3 s4\n")
        dest = tmp_path / "out.txt"
        assert main([
            "translate", "--checkpoint", str(out / "last.ckpt"),
            str(inp), "--out", str(dest), "--beam", "2", "--alpha", "1.0",
        ]) == 0
        assert len(dest.read_text().splitlines()) == 2

    def test_empty_input_gives_empty_output(self, trained, tmp_path):
        _, out = trained
        inp = tmp_path / "empty.txt"
        inp.write_text("")
        dest = tmp_path / "empty_out.txt"
        main(["translate", "--checkpoint", str(out / "last.ckpt"), str(inp), "--out", str(dest)])
        assert dest.read_text() == ""

    def test_width_one_alpha_zero_matches_greedy(self, trained, tmp_path):
        _, out = trained
        inp = tmp_path / "g.txt"
        inp.write_text("s1 s2 s3\n")
        dest = tmp_path / "g_out.txt"
        main([
            "translate", "--checkpoint", str(out / "last.ckpt"),
            str(inp), "--out", str(dest), "--beam", "1", "--alpha", "0", "--max-len", "8",
        ])
        ckpt = load_checkpoint(out / "last.ckpt")
        model = build_model(ckpt)
        vocab = Vocabulary(ckpt.meta.tgt_vocab_tokens)
        ids = vocab.encode("s1 s2 s3".split()) + [EOS_ID]
        expect = greedy_decode(SentenceScorer(model, ids), max_len=8)
        assert dest.read_text().splitlines()[0].split() == vocab.decode(expect)

    def test_over_long_line_is_skipped_and_the_run_continues(self, trained, tmp_path, capsys):
        _, out = trained
        ckpt = str(out / "last.ckpt")
        inp, short = tmp_path / "long.txt", tmp_path / "short.txt"
        inp.write_text(f"s0 s1\n{LONG_LINE}\ns2 s3 s4\n")
        short.write_text("s0 s1\ns2 s3 s4\n")
        dest, dest_short = tmp_path / "long_out.txt", tmp_path / "short_out.txt"
        assert main(["translate", "--checkpoint", ckpt, str(inp), "--out", str(dest)]) == 1
        assert "source line 2 has 10 tokens" in capsys.readouterr().err
        assert main(["translate", "--checkpoint", ckpt, str(short), "--out", str(dest_short)]) == 0
        first, skipped, third = dest.read_text().splitlines()
        assert skipped == ""
        assert [first, third] == dest_short.read_text().splitlines()


class TestEvaluate:
    def test_reports_bleu_and_accuracy(self, trained, tmp_path, capsys):
        _, out = trained
        src = tmp_path / "src.txt"
        src.write_text("s0 s1 s2\ns3 s4\n")
        assert main([
            "evaluate", "--checkpoint", str(out / "last.ckpt"), str(src), str(src),
            "--beam", "1", "--alpha", "0",
        ]) == 0
        printed = capsys.readouterr().out
        assert "BLEU = " in printed and "token_accuracy = " in printed

    def test_over_long_lines_are_reported_and_left_out(self, trained, tmp_path, capsys):
        _, out = trained
        src, ref = tmp_path / "src_long.txt", tmp_path / "ref_long.txt"
        src.write_text(f"s0 s1 s2\n{LONG_LINE}\ns3 s4\n")
        ref.write_text(f"s0 s1 s2\ns1 s2\n{LONG_LINE}\n")
        assert main([
            "evaluate", "--checkpoint", str(out / "last.ckpt"), str(src), str(ref),
            "--beam", "1", "--alpha", "0",
        ]) == 1
        captured = capsys.readouterr()
        assert "BLEU = " in captured.out and "token_accuracy = " in captured.out
        assert "source line 2 has 10 tokens" in captured.err
        assert "reference line 3 has 10 tokens" in captured.err


    def test_token_accuracy_does_not_depend_on_the_batching(self, trained, tmp_path, monkeypatch):
        """Teacher forcing runs over length-sorted batches, so they hold less
        padding, and a ragged file scores the accuracy that batches in corpus
        order give."""
        _, out = trained
        ckpt = str(out / "last.ckpt")
        r = np.random.default_rng(4)
        lines = [" ".join(f"s{i}" for i in r.integers(0, 6, size=n)) for n in r.integers(1, 9, 70)]
        src = tmp_path / "ragged.txt"
        src.write_text("".join(line + "\n" for line in lines))
        seen = []

        def spy(model, batches):
            seen.append((model, batches, training.evaluate_teacher_forced(model, batches)))
            return seen[-1][2]

        monkeypatch.setattr("mlrf.cli.evaluate_teacher_forced", spy)
        assert main(["evaluate", "--checkpoint", ckpt, str(src), str(src), "--beam", "1"]) == 0
        ((model, batches, got),) = seen
        widths = [b.src.shape[1] for b in batches]
        assert widths == sorted(widths) and len(set(widths)) > 1
        meta = load_checkpoint(ckpt).meta
        corpus = data.ParallelCorpus([(line.split(), line.split()) for line in lines])
        in_order = data.make_batches(
            corpus, Vocabulary(meta.src_vocab_tokens), Vocabulary(meta.tgt_vocab_tokens), 32
        )
        assert got["accuracy"] == training.evaluate_teacher_forced(model, in_order)["accuracy"]
        assert 0.0 < got["accuracy"] < 1.0


class TestExportAttention:
    def test_trace_file_groups_sum_to_one(self, trained, tmp_path):
        _, out = trained
        inp = tmp_path / "att_in.txt"
        inp.write_text("s0 s1 s2\ns3 s4\n")
        dest = tmp_path / "att.tsv"
        assert main([
            "export-attention", "--checkpoint", str(out / "last.ckpt"),
            str(inp), "--out", str(dest),
        ]) == 0
        rows = read_trace_file(dest)
        assert rows, "no rows exported"
        groups = {}
        for sent, pos, _tok, hop, layer, w in rows:
            groups.setdefault((sent, pos, hop), []).append((layer, w))
        for key, items in groups.items():
            assert abs(sum(w for _, w in items) - 1.0) < 1e-6, key
            assert sorted(l for l, _ in items) == [0, 1]  # embedding + 1 layer

    def test_over_long_line_is_skipped_and_the_run_continues(self, trained, tmp_path, capsys):
        _, out = trained
        inp = tmp_path / "att_long.txt"
        inp.write_text(f"s0 s1 s2\n{LONG_LINE}\ns3 s4\n")
        dest = tmp_path / "att_long.tsv"
        assert main([
            "export-attention", "--checkpoint", str(out / "last.ckpt"),
            str(inp), "--out", str(dest),
        ]) == 1
        assert "source line 2 has 10 tokens" in capsys.readouterr().err
        assert {row[0] for row in read_trace_file(dest)} == {0, 2}

    def test_round_trip_is_lossless(self, trained, tmp_path):
        _, out = trained
        inp = tmp_path / "att_in2.txt"
        inp.write_text("s1 s1\n")
        dest = tmp_path / "att2.tsv"
        main(["export-attention", "--checkpoint", str(out / "last.ckpt"), str(inp), "--out", str(dest)])
        rows = read_trace_file(dest)
        from mlrf.cli import write_trace_file

        second = tmp_path / "att3.tsv"
        write_trace_file(rows, second)
        assert dest.read_bytes() == second.read_bytes()

    def test_non_sa_checkpoint_is_an_informative_error(self, tmp_path, capsys):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text(
            TINY_CFG.format(phase1=1, phase2=0).replace(
                "dec_kind = self_attention", "dec_kind = avg"
            )
        )
        out = tmp_path / "plain_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        capsys.readouterr()
        assert main(["export-attention", "--checkpoint", str(out / "last.ckpt"), str(inp)]) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint has no self-attention fusion")

    def test_side_without_self_attention_is_an_informative_error(self, trained, tmp_path, capsys):
        _, out = trained
        inp = tmp_path / "in.txt"
        inp.write_text("s0 s1\n")
        assert main([
            "export-attention", "--checkpoint", str(out / "last.ckpt"), str(inp),
            "--side", "encoder", "--out", str(tmp_path / "att.tsv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == "error: encoder side does not use self-attention fusion\n"
        assert not (tmp_path / "att.tsv").exists()


class TestParamCount:
    def test_full_scale_config_total(self, capsys):
        assert main(["param-count", "--config", "configs/de_en_shaped.cfg"]) == 0
        out = capsys.readouterr().out
        totals = dict(line.split("\t") for line in out.strip().splitlines())
        assert int(totals["total"]) == 11_898_652  # 3+3 layers, d=256, Dec-SA(4)
        assert int(totals["embeddings"]) == (8389 + 6428) * 256

    def test_draws_no_weights(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("param-count drew random numbers")

        monkeypatch.setattr("mlrf.model.init_parameters", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert main(["param-count", "--config", "configs/de_en_shaped.cfg"]) == 0
        assert capsys.readouterr().out == (
            "total\t11898652\n"
            "embeddings\t3793152\n"
            "encoder\t2369280\n"
            "decoder\t3160320\n"
            "fusion\t923904\n"
            "output\t1651996\n"
        )

    def test_synthetic_vocab_generates_no_corpus(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("param-count generated a corpus")

        monkeypatch.setattr(config, "generate_synthetic", refuse)
        monkeypatch.setattr(data, "generate_synthetic", refuse)
        assert main(["param-count", "--config", "configs/toy_copy.cfg"]) == 0
        assert capsys.readouterr().out == (
            "total\t52728\n"
            "embeddings\t1536\n"
            "encoder\t17088\n"
            "decoder\t25664\n"
            "fusion\t7648\n"
            "output\t792\n"
        )

    def test_derives_vocab_from_data_section(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["param-count", "--config", cfg]) == 0
        out = capsys.readouterr().out
        totals = dict(line.split("\t") for line in out.strip().splitlines())
        assert int(totals["embeddings"]) == 2 * 10 * 16  # alphabet 6 + 4 reserved


# (command, fault): input faults that must stop a run before its checkpoint is read
INPUT_FAULTS = [
    *[(c, f) for c in ("translate", "evaluate", "export-attention")
      for f in ("missing input", "directory as input", "missing --out directory",
                "--out is a directory")],
    ("evaluate", "line-count mismatch"),
]


class TestInputErrors:
    @pytest.mark.parametrize("command,fault", INPUT_FAULTS)
    def test_fault_is_one_error_line_before_reading_the_checkpoint(
        self, tmp_path, capsys, command, fault
    ):
        good = tmp_path / "in.txt"
        good.write_text("s0 s1\ns2\n")
        files = [good, good] if command == "evaluate" else [good]
        out = tmp_path / "out.txt"
        if fault == "missing input":
            files[0] = culprit = tmp_path / "nope.txt"
        elif fault == "directory as input":
            files[-1] = culprit = tmp_path
        elif fault == "line-count mismatch":
            files[1] = culprit = tmp_path / "short.txt"
            culprit.write_text("s0 s1\n")
        elif fault == "missing --out directory":
            out = culprit = tmp_path / "nodir" / "out.txt"
        else:
            out = culprit = tmp_path
        missing = str(tmp_path / "missing.ckpt")
        argv = [command, "--checkpoint", missing, *map(str, files), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(culprit) in err[0] and "checkpoint" not in err[0]

    @pytest.mark.parametrize("command", ["translate", "evaluate", "export-attention"])
    def test_line_that_is_not_utf8_is_skipped_and_the_run_continues(
        self, trained, tmp_path, capsys, command
    ):
        _, out = trained
        ckpt = str(out / "last.ckpt")
        bad, clean = tmp_path / "bad.txt", tmp_path / "clean.txt"
        # a cut-off three-byte sequence right before the newline
        bad.write_bytes(b"s0 s1\ns2 \xe2\x82\ns2 s3 s4\n")
        clean.write_bytes(b"s0 s1\ns2 s3 s4\n")
        outputs = []
        for path in (bad, clean):
            dest = tmp_path / f"{path.stem}.out"
            files = [str(path), str(path)] if command == "evaluate" else [str(path)]
            outputs.append(dest)
            code = main([command, "--checkpoint", ckpt, *files, "--out", str(dest)])
            assert code == (1 if path is bad else 0)
            if path is bad:
                assert "warning: source line 2 is not UTF-8; skipped" in capsys.readouterr().err
        if command == "export-attention":
            rows, clean_rows = (read_trace_file(p) for p in outputs)
            assert {r[0] for r in rows} == {0, 2}
            assert [r for r in rows if r[0] == 0] == [r for r in clean_rows if r[0] == 0]
            assert [r[1:] for r in rows if r[0] == 2] == [r[1:] for r in clean_rows if r[0] == 1]
        else:
            first, skipped, third = outputs[0].read_text().splitlines()
            assert skipped == ""
            assert [first, third] == outputs[1].read_text().splitlines()

    @pytest.mark.parametrize("command", ["train", "param-count"])
    @pytest.mark.parametrize("fault", ["missing file", "line-count mismatch"])
    def test_bad_data_file_is_one_error_line_before_any_weight(
        self, tmp_path, capsys, monkeypatch, command, fault
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad data file reached weight init")

        monkeypatch.setattr("mlrf.model.init_parameters", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        src, tgt = tmp_path / "train.src", tmp_path / "train.tgt"
        src.write_text("s0 s1\ns2\n")
        tgt.write_text("s0 s1\ns2\n" if fault == "missing file" else "s0 s1\n")
        if fault == "missing file":
            src = tmp_path / "nope.src"
        path = edited_cfg(tmp_path, "data", {
            "task": None, "train_src": str(src), "train_tgt": str(tgt), "max_sentence_len": "5",
        })
        argv = ["--config", path] + (["--out", str(tmp_path / "out")] if command == "train" else [])
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(src) in err[0]

    @pytest.mark.parametrize("command", ["train", "param-count"])
    @pytest.mark.parametrize("fault", ["not UTF-8", "directory"])
    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys, command, fault):
        """configparser skips a file it cannot open, which read as a config
        with every required key missing, and a decode error was a traceback."""
        path = tmp_path / "run.cfg"
        if fault == "directory":
            path.mkdir()
        else:
            path.write_bytes(TINY_CFG.format(phase1=1, phase2=0).encode() + b"# caf\xe9\n")
        out = ["--out", str(tmp_path / "out")] if command == "train" else []
        assert main([command, "--config", str(path), *out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config {path}: ")
        assert "missing required key" not in err[0]

    def test_train_out_naming_a_file_is_one_error_line_before_any_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an unwritable --out reached corpus building")

        monkeypatch.setattr("mlrf.cli.build_corpora", refuse)
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        assert main(["train", "--config", write_cfg(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
        assert out.read_text() == "a file, not a directory\n"


class TestOneSourceLinePath:
    @pytest.mark.parametrize("flags", [[], ["--beam", "1", "--alpha", "0"], ["--beam", "3"]])
    def test_export_decodes_what_translate_outputs(self, trained, tmp_path, flags):
        _, out = trained
        ckpt = str(out / "last.ckpt")
        inp = tmp_path / "in.txt"
        inp.write_text(f"s0 s1 s2\n\n{LONG_LINE}\ns3 s4\ns5 s1 s1 s0\n")
        hyps, trace = tmp_path / "hyps.txt", tmp_path / "att.tsv"
        assert main(["translate", "--checkpoint", ckpt, str(inp), "--out", str(hyps), *flags]) == 1
        assert main(
            ["export-attention", "--checkpoint", ckpt, str(inp), "--out", str(trace), *flags]
        ) == 1
        labels = {}
        for sent, pos, tok, hop, _layer, _w in read_trace_file(trace):
            if hop == 1:
                labels.setdefault(sent, {})[pos] = tok
        exported = [""] * 5  # skipped and empty lines export no rows
        for sent, by_pos in labels.items():
            *tokens, last = (by_pos[p] for p in range(len(by_pos)))
            assert last == "<eos>"
            exported[sent] = " ".join(tokens)
        assert exported == hyps.read_text().splitlines()
