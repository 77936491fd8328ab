"""Greedy and beam-search decoding with length normalization.

Decoders are written against a step function ``prefix -> log-probs`` so the
search logic can be exercised on hand-built scorers; ``SentenceScorer``
adapts a trained model to that interface (encoder output cached once, the
decoder stack recomputed per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .data import BOS_ID, EOS_ID
from .model import Transformer, one_sentence

StepFn = Callable[[Sequence[int]], np.ndarray]


@dataclass(frozen=True)
class BeamConfig:
    width: int = 8
    length_alpha: float = 1.6
    max_len: int = 50

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("beam width must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


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
    """Argmax decoding (ties resolve to the lowest token id)."""
    prefix = [bos]
    for _ in range(max_len):
        nxt = int(np.argmax(step_fn(prefix)))
        prefix.append(nxt)
        if nxt == eos:
            break
    out = prefix[1:]
    if out and out[-1] == eos:
        out.pop()
    return out


def beam_search(
    step_fn: StepFn,
    config: BeamConfig,
    bos: int = BOS_ID,
    eos: int = EOS_ID,
) -> list[Hypothesis]:
    """Standard beam search; returns hypotheses ranked by normalized score.

    Live hypotheses expand by their top-``width`` tokens each step and the
    best ``width`` by cumulative log-prob survive.  A hypothesis emitting
    EOS moves to the completed pool and stops expanding.  If nothing
    finishes by ``max_len``, the live beam is returned as-is.
    """
    width = config.width
    live = [Hypothesis((bos,), 0.0)]
    done: list[Hypothesis] = []
    for _ in range(config.max_len):
        if not live:
            break
        candidates: list[Hypothesis] = []
        for hyp in live:
            logp = step_fn(hyp.tokens)
            for tok in np.argsort(-logp)[:width]:
                tok = int(tok)
                candidates.append(
                    Hypothesis(
                        hyp.tokens + (tok,),
                        hyp.logprob + float(logp[tok]),
                        finished=tok == eos,
                    )
                )
        candidates.sort(key=lambda h: -h.logprob)
        live = []
        for hyp in candidates:
            if hyp.finished:
                done.append(hyp)
            elif len(live) < width:
                live.append(hyp)
            if len(done) >= width and len(live) >= width:
                break
    pool = done if done else live
    return sorted(pool, key=lambda h: -h.score(config.length_alpha))[: width]


class SentenceScorer:
    """Next-token log-probabilities for one source sentence.

    The encoder (and its fusion, if any) runs once at construction; each
    step re-runs the decoder stack over the whole prefix, trading speed for
    simplicity.
    """

    def __init__(self, model: Transformer, src_ids: Sequence[int]):
        self.model = model
        src, self.src_mask = one_sentence(src_ids)
        with ad.no_grad():
            stack = model.encode(src, self.src_mask)
            self.enc_rep, _ = model.encoder_output(stack, self.src_mask)

    def __call__(self, prefix: Sequence[int]) -> np.ndarray:
        tgt, tgt_mask = one_sentence(prefix)
        with ad.no_grad():
            stack = self.model.decode_teacher_forced(tgt, tgt_mask, self.enc_rep, self.src_mask)
            rep, _ = self.model.decoder_output(stack, tgt_mask)
            logits = self.model.output_logits(rep).data[-1]
        z = logits - logits.max()
        return z - np.log(np.exp(z).sum())


def translate_ids(
    model: Transformer,
    src_ids: Sequence[int],
    beam: BeamConfig | None = None,
) -> list[int]:
    """Decode one encoded source sentence to output token ids."""
    scorer = SentenceScorer(model, src_ids)
    # the decoder prefix includes BOS, so cap one below the model's limit
    cap = model.config.max_len - 1
    if beam is None or (beam.width == 1 and beam.length_alpha == 0.0):
        max_len = min(beam.max_len, cap) if beam is not None else cap
        return greedy_decode(scorer, max_len)
    if beam.max_len > cap:
        beam = BeamConfig(beam.width, beam.length_alpha, cap)
    best = beam_search(scorer, beam)
    return best[0].output_ids() if best else []
