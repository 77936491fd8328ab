"""Self-describing checkpoint container.

Layout: one magic line, one line with the header byte length, a JSON text
header (configs, counters, RNG states, and a tensor index), then the named
raw tensor blocks as little-endian float64 in index order.  A save pads the
header with trailing spaces, inside its declared length, and writes that
length with leading zeros to a width fixed by the header's size, so the
tensor data starts at a multiple of ``ALIGN`` bytes; the file size then does
not change when a counter gains a digit.  Serialization is canonical (sorted
keys, fixed separators), so save -> load -> save is byte-identical.  A save
writes a temporary file beside the target, fsyncs it and renames it over the
target, so the previous file survives a failed write.

A load reads each parameter block into its own aligned array and maps the
Adam moment blocks copy-on-write, so translation, which never reads the
moments, never pages them in.  The mapping has two costs: a resumed run
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
from .fusion import FusionConfig
from .model import ModelConfig, Transformer
from .training import AdamState, TrainConfig

MAGIC = "MLRF-CHECKPOINT 1"
ALIGN = 4096


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
    meta: dict[str, Any]  # step/epoch counters, vocab info, RNG states


def save_checkpoint(
    path,
    model: Transformer,
    state: AdamState | None = None,
    train_config: TrainConfig | None = None,
    meta: dict[str, Any] | None = None,
) -> None:
    params = model.params
    entries = [(name, t.data) for name, t in params.items()]
    opt = None
    if state is not None:
        opt = {"t": state.t, "phase": state.phase}
        entries += [(f"opt.m.{name}", state.m[name]) for name in params.names()]
        entries += [(f"opt.v.{name}", state.v[name]) for name in params.names()]
    header = {
        "model": asdict(model.config),
        "fusion": asdict(model.fusion),
        "train": asdict(train_config) if train_config is not None else None,
        "optimizer": opt,
        "meta": meta or {},
        "tensors": [[name, list(arr.shape)] for name, arr in entries],
    }
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    magic = MAGIC.encode("ascii") + b"\n"
    digits = len(str(len(body) + ALIGN))  # wide enough for any padded length
    start = len(magic) + digits + 1
    n = -(-(start + len(body)) // ALIGN) * ALIGN - start
    # write beside the target and rename over it, so a crash mid-write
    # leaves the previous file whole
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(magic)
            f.write(b"%0*d\n" % (digits, n))
            f.write(body.ljust(n))
            for _, arr in entries:
                f.write(np.ascontiguousarray(arr, dtype="<f8"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_HEADER_KEYS = ("model", "fusion", "train", "optimizer", "tensors")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``: each parameter read into its own array,
    each Adam moment (``opt.m.*``, ``opt.v.*``) a writable copy-on-write
    view of one mapping of the file, paged in only when read; ValueError
    naming ``path`` if it is not one whole checkpoint.

    Parameters are read, not mapped: in a file saved before the header was
    padded, the data starts after a header of any length, so a mapped view
    is unaligned, and a matmul against an unaligned weight took 4x as long.
    Adam's elementwise update runs as fast on an unaligned moment."""
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
            if opt is not None and not (
                isinstance(opt, dict) and type(opt.get("t")) is int and opt["t"] >= 0
                and opt.get("phase") in ("warmup_schedule", "restarted")
            ):
                raise ValueError(f"bad optimizer state {opt!r}")
            if not isinstance(header.get("meta", {}), dict):
                raise ValueError(f"meta is not an object: {header['meta']!r}")
            model_config = ModelConfig(**header["model"])
            fusion_config = FusionConfig(**header["fusion"])
            train_config = TrainConfig(**header["train"]) if header["train"] else None
        except (ValueError, TypeError) as exc:
            raise ValueError(f"corrupt checkpoint {path}: {exc}") from exc
        mapped = None
        if any(name.startswith("opt.") for name, _ in index):
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
        offset = f.tell()
        tensors = {}
        for (name, dims), count in zip(index, counts):
            if name.startswith("opt."):
                arr = np.frombuffer(mapped, "<f8", count, offset)
            else:
                f.seek(offset)
                arr = np.fromfile(f, "<f8", count)
            tensors[name] = arr.reshape(dims)
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
        opt_t=opt["t"] if opt else 0,
        phase=opt["phase"] if opt else "warmup_schedule",
        meta=header.get("meta", {}),
    )


def build_model(ckpt: Checkpoint) -> Transformer:
    """Reconstruct the saved model; its parameters are the checkpoint's arrays."""
    params = ParamStore()
    for name, arr in ckpt.tensors.items():
        params.add(name, Tensor(arr))
    return Transformer(
        ckpt.model_config, ckpt.fusion_config, params=params,
        seed=int(ckpt.meta.get("seed", 0)),
    )


def restore_optimizer(ckpt: Checkpoint, params: ParamStore) -> AdamState:
    """Adam state for ``params`` that adopts the checkpoint's moment arrays
    (zeros when it saved none), so a resumed run holds them once."""
    state = AdamState(params)
    if ckpt.opt_m is not None:
        for moments, saved in ((state.m, ckpt.opt_m), (state.v, ckpt.opt_v)):
            for name, p in params.items():
                if saved[name].shape != p.shape:
                    raise ValueError(
                        f"Adam moment of {name} has shape {saved[name].shape}, not {p.shape}"
                    )
                moments[name] = saved[name]
    state.t = ckpt.opt_t
    state.phase = ckpt.phase
    return state
