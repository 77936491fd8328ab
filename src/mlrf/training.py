"""The warmup/restart Adam recipe and the training loop.

Phase 1 uses the width-scaled warmup schedule; phase 2 restarts Adam
(moments and step zeroed) and trains at a small fixed rate with smaller
mini-batches.
"""

from __future__ import annotations

import logging
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .fusion import check_types
from .model import Transformer

log = logging.getLogger(__name__)

PHASES = ("warmup_schedule", "restarted")  # in training order


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
        check_types(self)
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in (0, 1)")
        for name in ("warmup_steps", "batch_phase1", "batch_phase2", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0 < self.restart_lr < math.inf and 0 < self.adam_eps < math.inf):
            raise ValueError("restart_lr and adam_eps must be positive and finite")
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ValueError("epochs_phase1 and epochs_phase2 must be >= 0")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be above 0, got {self.clip_norm}")


# ---------------------------------------------------------------------------
# optimizer


def lr_schedule(t: int, d: int, warmup_steps: int = 16000) -> float:
    """Width-scaled rate: linear warmup, then inverse square-root decay."""
    if t < 1:
        raise ValueError("schedule step starts at 1")
    return d ** -0.5 * min(t ** -0.5, t * warmup_steps ** -1.5)


# Elements per slice of the in-place update: a thread's g, p, m and v
# slices and its two scratch slices take 1.5 MB, within a 2 MB per-core L2.
ADAM_CHUNK = 1 << 15


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


class AdamState:
    """Per-parameter moments plus the phase marker for the restart.

    Each update runs on ``workers`` threads, one per usable core: the
    caller's and ``workers - 1`` from a pool that starts at the first
    update and ends with the state.  Fresh moments are ``np.zeros`` (calloc),
    so no page of them is touched until the first update writes it: saving
    a fresh state, as a checkpoint for translation, never pages them in.
    """

    def __init__(self, params: ParamStore):
        self.m = {name: np.zeros(t.shape) for name, t in params.items()}
        self.v = {name: np.zeros(t.shape) for name, t in params.items()}
        self.t = 0
        self.phase = PHASES[0]
        self.workers = _usable_cores()
        self._pool: ThreadPoolExecutor | None = None

    def restarted(self) -> bool:
        return self.phase == PHASES[1]

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.workers - 1, thread_name_prefix="adam")
        return self._pool


def _flat_views(params: ParamStore, state: AdamState) -> list[tuple[np.ndarray, ...]]:
    """Flat ``(g, p, m, v)`` for every parameter with a grad; raises
    ValueError naming the tensor when a shape differs, when any of the four
    is not float64 (training is float64; a float32 model is for inference),
    or when a parameter or moment is not a writable C-contiguous array (its
    flat view would be a copy, and the update would be lost)."""
    views = []
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if g.dtype != np.float64:
            raise ValueError(f"gradient of {name} is {g.dtype}, not float64")
        targets = {"parameter": p.data, "Adam m of": state.m[name], "Adam v of": state.v[name]}
        for what, a in targets.items():
            if a.shape != g.shape:
                raise ValueError(f"{what} {name} has shape {a.shape}, not {g.shape}")
            if a.dtype != np.float64:
                raise ValueError(f"{what} {name} is {a.dtype}, not float64")
            if not (a.flags.c_contiguous and a.flags.writeable):
                raise ValueError(f"{what} {name} is not a writable C-contiguous array")
        views.append((g.reshape(-1), *(a.reshape(-1) for a in targets.values())))
    return views


def _adam_slices(todo: queue.SimpleQueue, lr, beta1, beta2, eps, bc1, bc2) -> None:
    """``adam_step``'s update on the ``(g, p, m, v)`` slices taken from
    ``todo`` until it is empty, in place, with the operations of
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` in that order, so the
    result equals the whole-array expression bit for bit."""
    scratch_a = np.empty(ADAM_CHUNK)
    scratch_b = np.empty(ADAM_CHUNK)
    while True:
        try:
            g, p, m, v = todo.get_nowait()
        except queue.Empty:
            return
        a = scratch_a[: g.size]
        b = scratch_b[: g.size]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


def adam_step(
    params: ParamStore,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-9,
) -> None:
    """One bias-corrected Adam update from the accumulated grads.

    Every tensor is checked (see ``_flat_views``) before anything changes.
    The update then runs in place on ``ADAM_CHUNK``-element slices, which
    ``state.workers`` threads take from one queue; numpy releases the GIL
    inside each operation.  A shared queue rather than fixed shares lets a
    thread whose core is also busy (BLAS threads spin for a while after a
    matmul) take fewer slices.  Slices are independent and elementwise, so
    the result is the same for any thread count.
    """
    views = _flat_views(params, state)
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for flat in views:
        for i in range(0, flat[0].size, ADAM_CHUNK):
            todo.put(tuple(a[i : i + ADAM_CHUNK] for a in flat))
    args = (todo, lr, beta1, beta2, eps, bc1, bc2)
    helpers = []
    if state.workers > 1:
        pool = state._executor()
        helpers = [pool.submit(_adam_slices, *args) for _ in range(state.workers - 1)]
    _adam_slices(*args)
    for future in helpers:
        future.result()


def restart_adam(state: AdamState) -> None:
    """Zero the moments and step counter and mark phase 2; one-shot."""
    if state.restarted():
        raise RuntimeError("Adam was already restarted once")
    for m in state.m.values():
        m[:] = 0.0
    for v in state.v.values():
        v[:] = 0.0
    state.t = 0
    state.phase = PHASES[1]


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


def _batch_loss(model: Transformer, batch, train: bool) -> tuple[Tensor, int, int]:
    """The mean loss over the real target tokens of ``batch``, how many of
    them the model predicts, and how many there are.

    It clears the parameter grads first: a forward pass, training or
    validation, never runs beside a spent step's gradients."""
    model.params.zero_grads()
    result = model.forward(batch.src, batch.src_mask, batch.tgt_in, batch.tgt_mask, train)
    targets = batch.tgt_out[batch.tgt_mask]
    loss, correct = model.loss(result.rep, targets)
    return loss, correct, targets.size


def train_step(
    model: Transformer,
    batch,
    state: AdamState,
    cfg: TrainConfig,
) -> StepMetrics:
    """Forward, backward, and one optimizer update on a single batch.

    The forward (``_batch_loss``) clears the last step's grads, so they never
    sit beside the tape; on return the grads hold this step's, until the
    next forward, training or validation, clears them.  Raises
    ``FloatingPointError`` before the update if the loss or the gradient
    norm is not finite, naming the parameters with such grads.
    """
    loss, correct, n_tokens = _batch_loss(model, batch, train=True)
    ad.backward(loss)
    norm = grad_norm(model.params)
    loss_value = loss.item()
    if not (math.isfinite(loss_value) and math.isfinite(norm)):
        bad = [
            name for name, p in model.params.items()
            if p.grad is not None and not np.isfinite(p.grad).all()
        ]
        raise FloatingPointError(
            f"step {state.t + 1} ({state.phase}): loss {loss_value}, gradient "
            f"norm {norm}; non-finite gradients in {', '.join(bad) or 'no parameter'}"
        )
    if cfg.clip_norm is not None:
        clip_gradients(model.params, cfg.clip_norm, norm)
    if state.restarted():
        lr = cfg.restart_lr
    else:
        lr = lr_schedule(state.t + 1, model.config.d_model, cfg.warmup_steps)
    adam_step(model.params, state, lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    return StepMetrics(state.t, state.phase, lr, loss_value, correct / n_tokens)


def train_epoch(
    model: Transformer,
    batches: Sequence,
    state: AdamState,
    cfg: TrainConfig,
    on_step: Callable[[StepMetrics], None] | None = None,
) -> dict[str, float]:
    """One pass over ``batches``; returns its loss and accuracy per target token."""
    if not batches:
        raise ValueError("empty dataset")
    stats, tokens = [], []
    for batch in batches:
        metrics = train_step(model, batch, state, cfg)
        stats.append((metrics.loss, metrics.accuracy))
        tokens.append(batch.tgt_mask.sum())
        if on_step is not None:
            on_step(metrics)
    loss, accuracy = np.average(stats, axis=0, weights=tokens)
    return {"loss": float(loss), "accuracy": float(accuracy)}


def evaluate_teacher_forced(model: Transformer, batches: Sequence) -> dict[str, float]:
    """Per-token loss and token accuracy with dropout off and no tape.

    Both are taken over all real target tokens at once, so neither depends
    on how the sentences are batched.  Each batch's forward clears the
    parameter grads (``_batch_loss``), so validation, and a checkpoint save
    after it, runs beside neither a tape nor the last step's gradients."""
    nll, correct, total = 0.0, 0, 0
    with ad.no_grad():
        for batch in batches:
            loss, hits, n_tokens = _batch_loss(model, batch, train=False)
            nll += loss.item() * n_tokens
            correct += hits
            total += n_tokens
    return {
        "loss": nll / total if total else float("nan"),
        "accuracy": correct / total if total else 0.0,
    }
