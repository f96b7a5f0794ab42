"""N-best list reranking with the learned phrase-similarity feature.

Each candidate's score is the log-linear total ``H @ lam`` over its row of
``objective.feature_matrix``, built once for the compiled corpus: the
baseline features, then the similarity feature (the sum of phrase-pair
similarities over the candidate's derivation), the same score that tuning
optimizes.  The highest-scoring
candidate wins, ties going to the lowest candidate index.  Alongside the
reranked corpus BLEU the result reports the baseline selection (similarity
feature switched off) and the oracle best/worst selections by each sample's
``sbleus``, which bound what any reranker could achieve on the same lists.
Each of the four picks is one row-wise ``argmax`` or ``argmin`` over the
corpus's ``CompiledCorpus.padded`` layout, and all four are scored from one
(4, 10) array that sums the picked candidates' rows of ``stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bleu, model, objective
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
    """Select the argmax candidate per sample and score the selections; a NaN or infinite weight is refused.

    Padding the layout with -inf (+inf for ``argmin``) keeps every pick a
    candidate, and the first index wins ties.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("nothing to rerank")
    lam = finite_weights(lam)
    compiled = objective.compile_corpus(samples)
    sims = objective.pair_similarities(compiled, model.with_projection_table(params), vocab)
    h = objective.feature_matrix(compiled, sims, lam.size)
    totals, bases = h @ lam, h[:, :-1] @ lam[:-1]
    sbleus = np.concatenate([sample.sbleus for sample in samples])
    picks = np.stack([
        np.argmax(compiled.padded(totals, -np.inf), axis=1),
        np.argmax(compiled.padded(bases, -np.inf), axis=1),
        np.argmax(compiled.padded(sbleus, -np.inf), axis=1),
        np.argmin(compiled.padded(sbleus, np.inf), axis=1),
    ])
    rows = compiled.offsets[:-1] + picks  # (4, S) candidate rows of the corpus
    ids = [sample.sample_id for sample in samples]
    selections = list(map(Selection, ids, picks[0].tolist(), totals[rows[0]].tolist(), h[rows[0], -1].tolist()))
    stats = np.concatenate([sample.stats for sample in samples])
    reranked, baseline, best, worst = bleu.corpus_bleu_rows(stats[rows].sum(axis=1)).tolist()
    return RerankResult(selections, reranked, baseline, best, worst)
