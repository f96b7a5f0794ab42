"""N-best list reranking with the learned phrase-similarity feature.

Each candidate's score is the log-linear total ``H @ lam`` over the rows of
``objective.feature_matrix``: the baseline features, then the similarity
feature (the sum of phrase-pair similarities over the candidate's
derivation), the same score that tuning optimizes.  The highest-scoring
candidate wins, ties going to the lowest candidate index.  Alongside the
reranked corpus BLEU the result reports the baseline selection (similarity
feature switched off) and the oracle best/worst selections, which bound what
any reranker could achieve on the same lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bleu, model, objective
from .corpus import NBestEntry, Vocabulary
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


def similarity_feature(entry: NBestEntry, params: ModelParams, vocab: Vocabulary) -> float:
    """Sum of phrase-pair similarities over the candidate's derivation."""
    if not entry.derivation:
        raise ValueError("candidate has no derivation")
    return objective.candidate_feature(entry, params, vocab)


def _sentence_bleus(sample) -> list[float]:
    return [
        e.sbleu if e.sbleu is not None else bleu.sentence_bleu(sample.reference, e.tokens)
        for e in sample.candidates
    ]


def rerank(samples, params: ModelParams, lam, vocab: Vocabulary) -> RerankResult:
    """Select the argmax candidate per sample and score the selections."""
    samples = list(samples)
    if not samples:
        raise ValueError("nothing to rerank")
    lam = np.asarray(lam, dtype=np.float64)
    params = model.with_projection_table(params)
    sims = objective.pair_similarities(samples, params, vocab)

    selections = []
    chosen_pairs = []
    baseline_pairs = []
    best_pairs = []
    worst_pairs = []
    for sample in samples:
        h = objective.feature_matrix(sample, params, vocab, sims, lam.size)
        totals = h @ lam
        idx = int(np.argmax(totals))  # first maximum wins ties
        selections.append(Selection(sample.sample_id, idx, float(totals[idx]), float(h[idx, -1])))
        chosen_pairs.append((sample.reference, sample.candidates[idx].tokens))

        base_idx = int(np.argmax(h[:, :-1] @ lam[:-1]))
        baseline_pairs.append((sample.reference, sample.candidates[base_idx].tokens))

        sbleus = _sentence_bleus(sample)
        oracle_best = int(np.argmax(sbleus))
        oracle_worst = int(np.argmin(sbleus))
        best_pairs.append((sample.reference, sample.candidates[oracle_best].tokens))
        worst_pairs.append((sample.reference, sample.candidates[oracle_worst].tokens))

    return RerankResult(
        selections=selections,
        reranked_bleu=bleu.corpus_bleu(chosen_pairs),
        baseline_bleu=bleu.corpus_bleu(baseline_pairs),
        oracle_best_bleu=bleu.corpus_bleu(best_pairs),
        oracle_worst_bleu=bleu.corpus_bleu(worst_pairs),
    )
