"""Self-describing checkpoint container.

Layout: one magic line, one line with the header byte length, a JSON text
header (configs, counters, RNG states, and a tensor index), then the named
raw tensor blocks as little-endian float64 in index order.  Serialization
is canonical (sorted keys, fixed separators), so save -> load -> save is
byte-identical.  A save writes a temporary file beside the target, fsyncs
it and renames it over the target, so the previous file survives a failed
write.
"""

from __future__ import annotations

import json
import math
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


def _config_dict(cfg) -> dict:
    return asdict(cfg)


def save_checkpoint(
    path,
    model: Transformer,
    state: AdamState | None = None,
    train_config: TrainConfig | None = None,
    meta: dict[str, Any] | None = None,
) -> None:
    params = model.params
    index = [[name, list(t.shape)] for name, t in params.items()]
    blocks = [t.data for _, t in params.items()]
    opt = None
    if state is not None:
        opt = {"t": state.t, "phase": state.phase}
        for name in params.names():
            index.append([f"opt.m.{name}", list(state.m[name].shape)])
            blocks.append(state.m[name])
        for name in params.names():
            index.append([f"opt.v.{name}", list(state.v[name].shape)])
            blocks.append(state.v[name])
    header = {
        "model": _config_dict(model.config),
        "fusion": _config_dict(model.fusion),
        "train": _config_dict(train_config) if train_config is not None else None,
        "optimizer": opt,
        "meta": meta or {},
        "tensors": index,
    }
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # write beside the target and rename over it, so a crash mid-write
    # leaves the previous file whole
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC.encode("ascii") + b"\n")
            f.write(str(len(body)).encode("ascii") + b"\n")
            f.write(body)
            for arr in blocks:
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_HEADER_KEYS = ("model", "fusion", "train", "optimizer", "tensors")


def _read_header(raw: bytes, path) -> tuple[dict, list[int], int]:
    """The header after the magic line, each tensor's element count, and the
    offset of the tensor data; ValueError naming ``path`` if the header is
    cut or malformed.  Works on offsets: the file is not copied."""
    start = len(MAGIC) + 1
    try:
        end = raw.find(b"\n", start)
        if end < 0:
            raise ValueError("no header length line")
        n = int(raw[start:end])
        if not 0 < n <= len(raw) - end - 1:
            raise ValueError(f"header length {n}, but {len(raw) - end - 1} bytes follow")
        header = json.loads(raw[end + 1 : end + 1 + n].decode("utf-8"))
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise ValueError(f"header lacks {missing}")
        counts = [math.prod(int(k) for k in shape) for _, shape in header["tensors"]]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"corrupt checkpoint {path}: {exc}") from exc
    return header, counts, end + 1 + n


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC.encode("ascii") + b"\n"):
        raise ValueError(f"not a checkpoint file: {path}")
    header, counts, offset = _read_header(raw, path)
    if len(raw) - offset != 8 * sum(counts):
        raise ValueError(
            f"corrupt checkpoint {path}: {len(raw) - offset} data bytes, "
            f"but its tensor index needs {8 * sum(counts)}"
        )
    tensors: dict[str, np.ndarray] = {}
    for (name, shape), count in zip(header["tensors"], counts):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8

    params = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
    opt = header.get("optimizer")
    opt_m = opt_v = None
    if opt is not None:
        opt_m = {k[len("opt.m.") :]: v for k, v in tensors.items() if k.startswith("opt.m.")}
        opt_v = {k[len("opt.v.") :]: v for k, v in tensors.items() if k.startswith("opt.v.")}
    try:
        model_config = ModelConfig(**header["model"])
        fusion_config = FusionConfig(**header["fusion"])
        train_config = TrainConfig(**header["train"]) if header["train"] else None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"corrupt checkpoint {path}: {exc}") from exc
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
    state = AdamState(params)
    if ckpt.opt_m is not None:
        for name in params.names():
            state.m[name][:] = ckpt.opt_m[name]
            state.v[name][:] = ckpt.opt_v[name]
    state.t = ckpt.opt_t
    state.phase = ckpt.phase
    return state
