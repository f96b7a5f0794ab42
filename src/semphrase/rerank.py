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
All four are scored from one (4, 10) array that sums the picked candidates'
rows of each sample's ``stats``.
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


def rerank(samples, params: ModelParams, lam, vocab: Vocabulary) -> RerankResult:
    """Select the argmax candidate per sample and score the selections."""
    samples = list(samples)
    if not samples:
        raise ValueError("nothing to rerank")
    lam = np.asarray(lam, dtype=np.float64)
    compiled = objective.compile_corpus(samples)
    sims = objective.pair_similarities(compiled, model.with_projection_table(params), vocab)
    h = objective.feature_matrix(compiled, sims, lam.size)
    totals, bases = h @ lam, h[:, :-1] @ lam[:-1]
    bounds = compiled.offsets.tolist()

    selections = []
    picked_rows = []  # per sample: the statistics rows of its four picks
    for sample, a, b in zip(samples, bounds, bounds[1:]):
        idx = a + int(np.argmax(totals[a:b]))  # first maximum wins ties
        selections.append(Selection(sample.sample_id, idx - a, float(totals[idx]), float(h[idx, -1])))
        picks = (idx - a, int(np.argmax(bases[a:b])), int(np.argmax(sample.sbleus)), int(np.argmin(sample.sbleus)))
        picked_rows.append(sample.stats[list(picks)])

    reranked, baseline, best, worst = bleu.corpus_bleu_rows(np.sum(picked_rows, axis=0)).tolist()
    return RerankResult(selections, reranked, baseline, best, worst)
