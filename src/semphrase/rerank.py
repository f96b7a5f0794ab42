"""N-best list reranking with the learned phrase-similarity feature.

Each candidate's score is the log-linear total ``H @ lam`` over its row of
the matrix H that ``objective.score`` builds for the corpus: the baseline
features, then the similarity feature (the sum of phrase-pair similarities
over the candidate's derivation), the same score that tuning optimizes.  The
highest-scoring candidate wins, ties going to the lowest candidate index.
Alongside the reranked corpus BLEU the result reports the baseline selection
(similarity feature switched off) and the oracle best/worst selections by
``sbleus``, which bound what any reranker could achieve on the same lists.
The four are ``CompiledCorpus.picks`` (the oracle worst picks ``-sbleus``),
scored from one (4, 10) array of summed ``stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bleu, objective
from .corpus import Vocabulary
from .model import ModelParams


@dataclass(frozen=True)
class Selection:
    sample_id: int
    index: int
    total: float
    feature: float


@dataclass(eq=False)
class RerankResult:
    selections: list[Selection]
    reranked_bleu: float
    baseline_bleu: float
    oracle_best_bleu: float
    oracle_worst_bleu: float


def finite_weights(lam) -> np.ndarray:
    """``lam`` as a float64 array; a NaN or infinite weight is refused, naming the weights."""
    lam = np.asarray(lam, dtype=np.float64)
    if not np.isfinite(lam).all():
        raise ValueError(f"weights must be finite, got {lam.tolist()}")
    return lam


def rerank(samples, params: ModelParams, lam, vocab: Vocabulary) -> RerankResult:
    """Select the argmax candidate per sample and score the selections; a NaN or infinite weight is refused."""
    samples = list(samples)
    lam = finite_weights(lam)
    compiled, h = objective.score(samples, params, vocab, lam.size)
    totals = h @ lam
    picks = np.array([compiled.picks(v) for v in (totals, h[:, :-1] @ lam[:-1], compiled.sbleus, -compiled.sbleus)])
    rows = compiled.offsets[:-1] + picks  # (4, S) candidate rows of the corpus
    ids = [sample.sample_id for sample in samples]
    selections = list(map(Selection, ids, picks[0].tolist(), totals[rows[0]].tolist(), h[rows[0], -1].tolist()))
    reranked, baseline, best, worst = bleu.corpus_bleu_rows(compiled.stats[rows].sum(axis=1)).tolist()
    return RerankResult(selections, reranked, baseline, best, worst)
