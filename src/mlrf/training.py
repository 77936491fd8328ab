"""Initialization, the warmup/restart Adam recipe, and the training loop.

Initialization draws the tensors of ``model.param_specs`` in table order.
Phase 1 uses the width-scaled warmup schedule; phase 2 restarts Adam
(moments and step zeroed) and trains at a small fixed rate with smaller
mini-batches.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .fusion import FusionConfig
from .model import ModelConfig, ParamSpec, Transformer, param_specs

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs_phase1: int = 1
    epochs_phase2: int = 0
    batch_phase1: int = 80
    batch_phase2: int = 32
    warmup_steps: int = 16000
    restart_lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    clip_norm: float | None = None  # off unless configured
    seed: int = 1
    log_every: int = 10

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in (0, 1)")
        for name in ("warmup_steps", "batch_phase1", "batch_phase2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.restart_lr <= 0 or self.adam_eps <= 0:
            raise ValueError("restart_lr and adam_eps must be positive")


# ---------------------------------------------------------------------------
# parameter initialization


def _draw(rng: np.random.Generator, spec: ParamSpec) -> np.ndarray:
    if spec.init == "uniform":
        bound = 1.0 / math.sqrt(spec.fan_in)
        return rng.uniform(-bound, bound, size=spec.shape)
    if spec.init == "normal":
        return rng.normal(0.0, spec.shape[1] ** -0.5, spec.shape)
    if spec.init == "layer_index":
        return rng.uniform(-0.1, 0.1, size=spec.shape)
    if spec.init == "ones":
        return np.ones(spec.shape)
    if spec.init == "zeros":
        return np.zeros(spec.shape)
    raise ValueError(f"unknown initialization class {spec.init!r} for {spec.name}")


def init_parameters(
    config: ModelConfig, fusion: FusionConfig, seed: int
) -> ParamStore:
    """Draw every tensor of ``param_specs`` in order; bit-identical for equal seeds."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for spec in param_specs(config, fusion):
        store.add(spec.name, Tensor(_draw(rng, spec)))
    return store


# ---------------------------------------------------------------------------
# optimizer


def lr_schedule(t: int, d: int, warmup_steps: int = 16000) -> float:
    """Width-scaled rate: linear warmup, then inverse square-root decay."""
    if t < 1:
        raise ValueError("schedule step starts at 1")
    return d ** -0.5 * min(t ** -0.5, t * warmup_steps ** -1.5)


class AdamState:
    """Per-parameter moments plus the phase marker for the restart."""

    def __init__(self, params: ParamStore):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.t = 0
        self.phase = "warmup_schedule"

    def restarted(self) -> bool:
        return self.phase == "restarted"


def adam_step(
    params: ParamStore,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-9,
) -> None:
    """One bias-corrected Adam update from the accumulated grads."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def restart_adam(state: AdamState) -> None:
    """Zero the moments and step counter and mark phase 2; one-shot."""
    if state.restarted():
        raise RuntimeError("Adam was already restarted once")
    for m in state.m.values():
        m[:] = 0.0
    for v in state.v.values():
        v[:] = 0.0
    state.t = 0
    state.phase = "restarted"


def grad_norm(params: ParamStore) -> float:
    """Global L2 norm of the accumulated grads (inf or nan if any is)."""
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            g = p.grad.ravel()
            total += float(np.dot(g, g))
    return math.sqrt(total)


def clip_gradients(params: ParamStore, max_norm: float, norm: float) -> None:
    """Scale all grads so their global L2 norm ``norm`` (``grad_norm``) is at
    most ``max_norm``."""
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= factor


# ---------------------------------------------------------------------------
# training loop


@dataclass
class StepMetrics:
    step: int
    phase: str
    lr: float
    loss: float
    accuracy: float


def _batch_forward(model: Transformer, batch, train: bool):
    """Logits for the real target tokens of ``batch`` and their gold ids,
    both in row-major order."""
    result = model.forward(batch.src, batch.src_mask, batch.tgt_in, batch.tgt_mask, train)
    return result.logits, batch.tgt_out[batch.tgt_mask]


def train_step(
    model: Transformer,
    batch,
    state: AdamState,
    cfg: TrainConfig,
    pad_id: int = 0,
) -> StepMetrics:
    """Forward, backward, and one optimizer update on a single batch.

    Raises ``FloatingPointError`` before the update if the loss or the
    gradient norm is not finite, naming the parameters with such grads.
    """
    logits, tgt_out = _batch_forward(model, batch, train=True)
    loss = ad.cross_entropy(logits, tgt_out, pad_id=pad_id)
    model.params.zero_grads()
    ad.backward(loss)
    norm = grad_norm(model.params)
    if not (math.isfinite(loss.item()) and math.isfinite(norm)):
        bad = [
            name for name, p in model.params.items()
            if p.grad is not None and not np.isfinite(p.grad).all()
        ]
        raise FloatingPointError(
            f"step {state.t + 1} ({state.phase}): loss {loss.item()}, gradient "
            f"norm {norm}; non-finite gradients in {', '.join(bad) or 'no parameter'}"
        )
    if cfg.clip_norm is not None:
        clip_gradients(model.params, cfg.clip_norm, norm)
    if state.restarted():
        lr = cfg.restart_lr
    else:
        lr = lr_schedule(state.t + 1, model.config.d_model, cfg.warmup_steps)
    adam_step(model.params, state, lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    acc = token_accuracy(logits.data, tgt_out, pad_id)
    return StepMetrics(state.t, state.phase, lr, loss.item(), acc)


def token_accuracy(logits: np.ndarray, targets: np.ndarray, pad_id: int = 0) -> float:
    targets = np.asarray(targets)
    live = targets != pad_id
    if not live.any():
        return 0.0
    pred = logits.argmax(axis=1)
    return float((pred[live] == targets[live]).mean())


def train_epoch(
    model: Transformer,
    batches: Sequence,
    state: AdamState,
    cfg: TrainConfig,
    pad_id: int = 0,
    on_step: Callable[[StepMetrics], None] | None = None,
) -> dict[str, float]:
    """One pass over ``batches``; returns mean loss and token accuracy."""
    if not batches:
        raise ValueError("empty dataset")
    losses, accs = [], []
    for batch in batches:
        metrics = train_step(model, batch, state, cfg, pad_id)
        losses.append(metrics.loss)
        accs.append(metrics.accuracy)
        if on_step is not None:
            on_step(metrics)
    return {"loss": float(np.mean(losses)), "accuracy": float(np.mean(accs))}


def evaluate_teacher_forced(
    model: Transformer, batches: Sequence, pad_id: int = 0
) -> dict[str, float]:
    """Loss and token accuracy with dropout off and no tape."""
    losses, correct, total = [], 0, 0
    with ad.no_grad():
        for batch in batches:
            logits, tgt_out = _batch_forward(model, batch, train=False)
            losses.append(ad.cross_entropy(logits, tgt_out, pad_id).item())
            live = tgt_out != pad_id
            pred = logits.data.argmax(axis=1)
            correct += int((pred[live] == tgt_out[live]).sum())
            total += int(live.sum())
    return {
        "loss": float(np.mean(losses)) if losses else float("nan"),
        "accuracy": correct / total if total else 0.0,
    }
