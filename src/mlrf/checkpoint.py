"""Self-describing checkpoint container.

Layout: one magic line, one line with the header byte length, a JSON text
header (configs, counters, run metadata, and a tensor index), then the named
raw tensor blocks as little-endian float64 in index order.  The configs and
the run metadata (``RunMeta``) and the optimizer counters (``OptimizerHeader``)
check their fields' types when built, so a save refuses what a load would; a
load ignores a meta or optimizer key that no field names.  A
save pads the header with trailing spaces, inside its declared length, and
writes that length with leading zeros to a width fixed by the header's size,
so the tensor data starts at a multiple of ``ALIGN`` bytes; the file size then
does not change when a counter gains a digit.  Serialization is canonical
(sorted keys, fixed separators), so save -> load -> save is byte-identical.  A
save writes a temporary file beside the target, fsyncs it and renames it over
the target, so the previous file survives a failed write.

A load maps the file copy-on-write, and every block, parameter or Adam
moment, is a view of that mapping, paged in only when read.  Two builders
turn a checkpoint into a model.  ``build_model``, for inference, copies each
parameter block to float32; ``restore_training``, for a resumed run, copies
each to an owned float64 array and adopts the mapped moments.  Each drops a
block's pages once it has copied the block, so a block and its copy are
resident together one block at a time, and translation, which never reads
the moments, never pages them in.  The mapping has two costs: a resumed run
keeps the file it loaded alive on disk until it exits (a save renames a new
file over the name, and the old one stays mapped), and truncating a mapped
checkpoint in place, which mlrf never does, can end the process with SIGBUS.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .autodiff import ParamStore, Tensor
from .fusion import FusionConfig, check_types, field_types
from .model import ModelConfig, Transformer
from .training import AdamState, TrainConfig

MAGIC = "MLRF-CHECKPOINT 1"
ALIGN = 4096


@dataclass
class RunMeta:
    """A run's seed, epochs done, validation scores and vocabulary tokens."""

    seed: int = 0
    epochs_done: int = 0
    best_valid_loss: float = math.inf
    last_valid_acc: float | None = None
    src_vocab_tokens: list[str] | None = None
    tgt_vocab_tokens: list[str] | None = None

    def __post_init__(self):
        check_types(self)
        if self.epochs_done < 0:
            raise ValueError(f"epochs_done must be >= 0, got {self.epochs_done}")


@dataclass
class OptimizerHeader:
    """The Adam step count and schedule phase a checkpoint with moments holds."""

    t: int
    phase: str

    def __post_init__(self):
        check_types(self)
        if self.t < 0:
            raise ValueError(f"optimizer t must be >= 0, got {self.t}")
        if self.phase not in ("warmup_schedule", "restarted"):
            raise ValueError(f"unknown optimizer phase {self.phase!r}")


@dataclass
class Checkpoint:
    model_config: ModelConfig
    fusion_config: FusionConfig
    train_config: TrainConfig | None
    tensors: dict[str, np.ndarray]  # parameters
    opt_m: dict[str, np.ndarray] | None
    opt_v: dict[str, np.ndarray] | None
    opt_t: int
    phase: str
    meta: RunMeta
    mapping: mmap.mmap  # the file, mapped copy-on-write; every block is a view of it


def save_checkpoint(
    path,
    model: Transformer,
    state: AdamState | None = None,
    train_config: TrainConfig | None = None,
    meta: RunMeta | dict[str, Any] | None = None,  # a dict holds RunMeta's keyword arguments
) -> None:
    """Write the model and what is given of its Adam state, config and run to ``path``."""
    params = model.params
    entries = [(name, t.data) for name, t in params.items()]
    opt = None
    if state is not None:
        opt = asdict(OptimizerHeader(state.t, state.phase))
        entries += [(f"opt.m.{name}", state.m[name]) for name in params.names()]
        entries += [(f"opt.v.{name}", state.v[name]) for name in params.names()]
    header = {
        "model": asdict(model.config),
        "fusion": asdict(model.fusion),
        "train": asdict(train_config) if train_config is not None else None,
        "optimizer": opt,
        "meta": asdict(meta if isinstance(meta, RunMeta) else RunMeta(**(meta or {}))),
        "tensors": [[name, list(arr.shape)] for name, arr in entries],
    }
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    magic = MAGIC.encode("ascii") + b"\n"
    digits = len(str(len(body) + ALIGN))  # wide enough for any padded length
    start = len(magic) + digits + 1
    n = -(-(start + len(body)) // ALIGN) * ALIGN - start

    def write(tmp):
        with open(tmp, "wb") as f:
            f.write(magic)
            f.write(b"%0*d\n" % (digits, n))
            f.write(body.ljust(n))
            for _, arr in entries:
                f.write(np.ascontiguousarray(arr, dtype="<f8"))
            f.flush()
            os.fsync(f.fileno())

    _replace(path, write)


def link_checkpoint(src, dst) -> None:
    """Name the saved checkpoint ``src`` also ``dst``, by a hard link renamed
    over ``dst``; saves only rename new files into place, so a later save of
    either name leaves the other as it was.  OSError where links fail."""
    _replace(dst, lambda tmp: os.link(src, tmp))


def _replace(path, make) -> None:
    """``make`` a new file beside ``path``, then rename it over: a failure leaves the old file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.unlink(missing_ok=True)  # a crash can leave it, maybe as a link: never write into it
    try:
        make(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_HEADER_KEYS = ("model", "fusion", "train", "optimizer", "tensors")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``: every block, parameter or Adam moment
    (``opt.m.*``, ``opt.v.*``), a writable float64 copy-on-write view of one
    mapping of the file, paged in only when read; ValueError naming ``path``
    if it is not one whole checkpoint.

    In a file saved before the header was padded, the views are unaligned.
    That costs nothing: the builders copy the parameters into arrays of
    their own, and Adam's elementwise update runs as fast on an unaligned
    moment."""
    with open(path, "rb") as f:
        if f.readline(len(MAGIC) + 1) != MAGIC.encode("ascii") + b"\n":
            raise ValueError(f"not a checkpoint file: {path}")
        try:
            line = f.readline(32)
            if not line.endswith(b"\n"):
                raise ValueError("no header length line")
            n = int(line)
            left = os.fstat(f.fileno()).st_size - f.tell()
            if not 0 < n <= left:
                raise ValueError(f"header length {n}, but {left} bytes follow")
            header = json.loads(f.read(n).decode("utf-8"))
            missing = [k for k in _HEADER_KEYS if k not in header]
            if missing:
                raise ValueError(f"header lacks {missing}")
            index = header["tensors"]
            for name, dims in index:
                if not (isinstance(name, str) and all(type(k) is int and k >= 0 for k in dims)):
                    raise ValueError(f"bad tensor index entry {[name, dims]}")
            counts = [math.prod(dims) for _, dims in index]
            if left - n != 8 * sum(counts):
                raise ValueError(
                    f"{left - n} data bytes, but its tensor index needs {8 * sum(counts)}"
                )
            opt = header["optimizer"]
            if opt is not None:
                if not isinstance(opt, dict):
                    raise ValueError(f"optimizer state is not an object: {opt!r}")
                fields = field_types(OptimizerHeader)
                opt = OptimizerHeader(**{k: v for k, v in opt.items() if k in fields})
            names = [name for name, _ in index]
            moments = sorted(name for name in names if name.startswith("opt."))
            if opt is None and moments:
                raise ValueError(f"no optimizer state, but {len(moments)} moment blocks")
            if opt is not None:
                param_names = [name for name in names if not name.startswith("opt.")]
                if moments != sorted(f"opt.{k}.{name}" for k in "mv" for name in param_names):
                    raise ValueError("the Adam moment blocks are not one m and one v per parameter")
            meta = header.get("meta", {})
            if not isinstance(meta, dict):
                raise ValueError(f"meta is not an object: {meta!r}")
            meta = RunMeta(**{k: v for k, v in meta.items() if k in field_types(RunMeta)})
            model_config = ModelConfig(**header["model"])
            # before anything is built per layer: a huge n_layers would
            # list millions of parameters before they could be compared
            depth = model_config.n_layers
            for side in ("encoder", "decoder"):
                layers = {name.split(".")[1] for name in names if name.startswith(f"{side}.layer")}
                if len(layers) != depth or layers != {f"layer{i}" for i in range(depth)}:
                    raise ValueError(
                        f"model n_layers is {depth}, but the tensor index holds "
                        f"{len(layers)} {side} layers"
                    )
            fusion_config = FusionConfig(**header["fusion"])
            train_config = TrainConfig(**header["train"]) if header["train"] else None
        except (ValueError, TypeError, RecursionError) as exc:  # a deeply nested header recurses
            raise ValueError(f"corrupt checkpoint {path}: {exc}") from exc
        mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
        offset = f.tell()
    tensors = {}
    for (name, dims), count in zip(index, counts):
        tensors[name] = np.frombuffer(mapping, "<f8", count, offset).reshape(dims)
        offset += 8 * count

    params = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
    opt_m = opt_v = None
    if opt is not None:
        opt_m = {k[len("opt.m.") :]: v for k, v in tensors.items() if k.startswith("opt.m.")}
        opt_v = {k[len("opt.v.") :]: v for k, v in tensors.items() if k.startswith("opt.v.")}
    return Checkpoint(
        model_config=model_config,
        fusion_config=fusion_config,
        train_config=train_config,
        tensors=params,
        opt_m=opt_m,
        opt_v=opt_v,
        opt_t=opt.t if opt else 0,
        phase=opt.phase if opt else "warmup_schedule",
        meta=meta,
        mapping=mapping,
    )


def _copied_model(ckpt: Checkpoint, dtype) -> Transformer:
    """The saved model with each parameter block copied to an owned array of
    ``dtype``.  After each copy the pages wholly inside the block are
    dropped, so the block and its copy are never resident together beyond
    one block; reading the block again pages it in from the file."""
    mapping, page = ckpt.mapping, mmap.PAGESIZE
    base = np.frombuffer(mapping, np.uint8, 0).ctypes.data
    params = ParamStore()
    for name, arr in ckpt.tensors.items():
        params.add(name, Tensor(arr.astype(dtype)))
        start = arr.ctypes.data - base
        if not 0 <= start <= len(mapping) - arr.nbytes:
            continue  # not a block of this mapping
        first, end = -(-start // page) * page, (start + arr.nbytes) // page * page
        if end > first and hasattr(mapping, "madvise"):
            mapping.madvise(mmap.MADV_DONTNEED, first, end - first)
    return Transformer(ckpt.model_config, ckpt.fusion_config, params=params, seed=ckpt.meta.seed)


def build_model(ckpt: Checkpoint) -> Transformer:
    """The saved model for inference: its parameters float32 copies of the
    checkpoint's blocks, so every op computes in float32.  It cannot be
    trained (``adam_step`` refuses float32 parameters); the file stays
    float64."""
    return _copied_model(ckpt, np.float32)


def restore_training(ckpt: Checkpoint) -> tuple[Transformer, AdamState]:
    """The saved model and optimizer, to resume training in float64: each
    parameter an owned copy of its block, bit for bit, and Adam state that
    adopts the checkpoint's mapped moment arrays (zeros when it saved none),
    so a resumed run holds them once.  ValueError if a moment's shape
    differs from its parameter's."""
    model = _copied_model(ckpt, np.float64)
    state = AdamState(model.params)
    if ckpt.opt_m is not None:
        for moments, saved in ((state.m, ckpt.opt_m), (state.v, ckpt.opt_v)):
            for name, p in model.params.items():
                if saved[name].shape != p.shape:
                    raise ValueError(
                        f"Adam moment of {name} has shape {saved[name].shape}, not {p.shape}"
                    )
                moments[name] = saved[name]
    state.t = ckpt.opt_t
    state.phase = ckpt.phase
    return model, state
