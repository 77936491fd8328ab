"""Greedy and beam-search decoding with length normalization.

Decoders are written against a batched step function
``step(tokens, parents) -> [k x V]``: row i of a call extends row
``parents[i]`` of the previous call by ``tokens[i]``, and the result holds
each row's next-token log-probs.  ``parents=None`` starts k new prefixes
from empty (a search's first call passes BOS).  Greedy decoding scores one
row per step, beam search every live hypothesis at once.  ``SentenceScorer``
adapts a trained model to that contract: the encoder and the cross-attention
keys and values run once per sentence, and each step runs only the newest
token of every row through the decoder's one stack method,
``Transformer.decode_teacher_forced``, reading the keys and values cached
for its parent row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .data import BOS_ID, EOS_ID
from .fusion import check_types
from .model import KeyValues, Transformer, one_sentence

# step(tokens [k], parents [k] or None) -> next-token log-probs [k x V]
StepFn = Callable[[np.ndarray, "Sequence[int] | None"], np.ndarray]


@dataclass(frozen=True)
class BeamConfig:
    width: int = 8
    length_alpha: float = 1.6
    max_len: int = 50

    def __post_init__(self):
        check_types(self)
        for name in ("width", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"beam {name} must be >= 1")
        if not math.isfinite(self.length_alpha):
            raise ValueError(f"length alpha must be finite, got {self.length_alpha}")


@dataclass(frozen=True)
class Hypothesis:
    """A (partial) output: BOS-prefixed token ids and the summed log-prob."""

    tokens: tuple[int, ...]
    logprob: float
    finished: bool = False

    def output_ids(self) -> list[int]:
        """Token ids without BOS and without the terminating EOS."""
        toks = list(self.tokens[1:])
        if toks and toks[-1] == EOS_ID:
            toks.pop()
        return toks

    def score(self, alpha: float) -> float:
        return length_normalized_score(self.logprob, max(len(self.tokens) - 1, 1), alpha)


def length_normalized_score(logprob: float, length: int, alpha: float) -> float:
    """logprob / length**alpha; alpha=0 ranks by raw probability."""
    return logprob / float(length) ** alpha


def greedy_decode(step_fn: StepFn, max_len: int, bos: int = BOS_ID, eos: int = EOS_ID) -> list[int]:
    """Best-token decoding, ranked by ``top_tokens`` (ties resolve to the
    lowest token id); returns the ids without BOS and EOS."""
    out, tok, parents = [], bos, None
    for _ in range(max_len):
        tok = int(top_tokens(step_fn(np.array([tok]), parents), 1)[0, 0])
        if tok == eos:
            break
        out.append(tok)
        parents = [0]
    return out


def top_tokens(logps: np.ndarray, width: int) -> np.ndarray:
    """Each row's ``width`` best token ids of ``logps`` [k x V], best first.

    Ties go to the lower token id.  At width 1 this is the row ``argmax``,
    which takes the first of tied maxima.  Otherwise one row-wise
    ``argpartition`` keeps each row's best ``width``; only a row where tokens
    tie at the cut is redone, so that the lowest tied ids fill it.  Only the
    kept entries are sorted.
    """
    if width == 1:
        if np.isnan(logps).any():
            raise ValueError("decoding step returned NaN log-probs")
        return logps.argmax(axis=1)[:, None]
    k, v = logps.shape
    width = min(width, v)
    ids = np.argpartition(logps, v - width, axis=1)[:, v - width :]
    vals = np.take_along_axis(logps, ids, axis=1)
    cut = vals.min(axis=1, keepdims=True)
    if np.isnan(cut).any():
        raise ValueError("decoding step returned NaN log-probs")
    for i in np.flatnonzero((logps == cut).sum(axis=1) > (vals == cut).sum(axis=1)):
        above = np.flatnonzero(logps[i] > cut[i])
        tied = np.flatnonzero(logps[i] == cut[i])
        ids[i] = np.concatenate([above, tied[: width - above.size]])
        vals[i] = logps[i, ids[i]]
    order = np.lexsort((ids, -vals), axis=1)
    return np.take_along_axis(ids, order, axis=1)


def beam_search(
    step_fn: StepFn,
    config: BeamConfig,
    bos: int = BOS_ID,
    eos: int = EOS_ID,
) -> list[Hypothesis]:
    """Standard beam search; returns hypotheses ranked by normalized score.

    Each step scores every live hypothesis in one ``step_fn`` call, as the
    child of the previous call's row it grew from.  Live hypotheses expand
    by their top-``width`` tokens each step (``top_tokens``) and the best
    ``width`` by cumulative log-prob survive.  A hypothesis emitting EOS
    moves to the completed pool and stops expanding.  If nothing finishes by
    ``max_len``, the live beam is returned as-is.
    """
    width = config.width
    live = [Hypothesis((bos,), 0.0)]
    parents: list[int] | None = None  # the row each live hypothesis grew from
    done: list[Hypothesis] = []
    for _ in range(config.max_len):
        if not live:
            break
        candidates: list[tuple[Hypothesis, int]] = []
        logps = step_fn(np.array([hyp.tokens[-1] for hyp in live]), parents)
        for row, (hyp, logp, toks) in enumerate(zip(live, logps, top_tokens(logps, width))):
            for tok in toks.tolist():
                candidates.append((
                    Hypothesis(
                        hyp.tokens + (tok,),
                        hyp.logprob + float(logp[tok]),
                        finished=tok == eos,
                    ),
                    row,
                ))
        candidates.sort(key=lambda c: -c[0].logprob)
        live, parents = [], []
        for hyp, row in candidates:
            if hyp.finished:
                done.append(hyp)
            elif len(live) < width:
                live.append(hyp)
                parents.append(row)
            if len(done) >= width and len(live) >= width:
                break
    pool = done if done else live
    return sorted(pool, key=lambda h: -h.score(config.length_alpha))[: width]


class SentenceScorer:
    """Batched next-token log-probabilities for one source sentence.

    Construction runs the encoder (and its fusion, if any) and projects
    every decoder layer's cross-attention keys and values, once.  A call
    takes the ``StepFn`` arguments: it gathers the cached self-attention
    keys and values of rows ``parents`` of the previous call (none when
    ``parents`` is None, which restarts the scorer) and runs one unmasked
    decoder step on ``tokens``; only the new rows reach the decoder-side
    fusion and the output projection.
    """

    def __init__(self, model: Transformer, src_ids: Sequence[int]):
        self.model = model
        src, src_mask = one_sentence(src_ids)
        with ad.no_grad():
            stack = model.encode(src, src_mask)
            enc_rep, _ = model.encoder_output(stack, src_mask)
            self.cross_kv = model.cross_key_values(enc_rep)
        self._past: list[KeyValues] | None = None  # previous call's rows

    def __call__(self, tokens: np.ndarray, parents: Sequence[int] | None) -> np.ndarray:
        ids = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        k = len(ids)
        cross_kv = [
            tuple(np.broadcast_to(a, (k,) + a.shape[1:]) for a in kv) for kv in self.cross_kv
        ]
        with ad.no_grad():
            past = None if parents is None else [
                (key[parents], v[parents]) for key, v in self._past
            ]
            stack, self._past = self.model.decode_teacher_forced(ids, None, cross_kv, None, past=past)
            rep, _ = self.model.decoder_output(stack, np.ones((k, 1), dtype=bool))
            logits = self.model.output_logits(rep)
        z = logits - logits.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def translate_ids(
    model: Transformer,
    src_ids: Sequence[int],
    beam: BeamConfig | None = None,
) -> list[int]:
    """Decode one encoded source sentence to output token ids."""
    scorer = SentenceScorer(model, src_ids)
    max_len = model.config.max_tokens
    if beam is not None:
        max_len = min(beam.max_len, max_len)
    # a width-1 beam holds one hypothesis, so it is greedy for every alpha
    if beam is None or beam.width == 1:
        return greedy_decode(scorer, max_len)
    best = beam_search(scorer, BeamConfig(beam.width, beam.length_alpha, max_len))
    return best[0].output_ids() if best else []
