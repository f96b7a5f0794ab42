"""Sentence-level and corpus-level BLEU.

Sentence BLEU labels every N-best candidate before training; corpus BLEU is
the evaluation metric for reranking runs.  Both compare tokens
case-insensitively and score n-grams up to order 4.

Sentence scores are smoothed (add-one on numerator and denominator for
orders >= 2) so that any candidate with at least one matching unigram gets a
positive score, while an exact match still scores 1.0 and a candidate with no
unigram overlap scores 0.0.  Corpus BLEU is the standard unsmoothed
aggregate.  The smoothing scheme is identified by ``SMOOTHING_TAG`` and is
recorded in every model file so scores stay comparable across checkpoints.

The statistics of one (reference, candidate) pair are one row of
``2 * MAX_ORDER + 2`` integers: the clipped n-gram matches for n = 1..4, the
candidate's n-gram totals for n = 1..4, the candidate length and the
reference length.  Corpus BLEU reads the column sums of such rows.

The n-grams of every order are counted in one pass over a sentence.  The
reference is folded and counted once per run of calls that share it.  Only
building a ``corpus.TrainingSample`` walks candidates against a reference:
the sample keeps each candidate's row and the sentence BLEU of that row, and
training, tuning and reranking read the kept arrays.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain

import numpy as np

MAX_ORDER = 4

# Identifier of the sentence-level smoothing scheme, stored in model headers.
SMOOTHING_TAG = "add-one-orders-2-plus"


def _fold(tokens) -> list[str]:
    return [t.lower() for t in tokens]


def _ngram_counts(tokens: list[str]) -> Counter:
    """The n-gram tuples of every order 1..MAX_ORDER, counted in one C-level pass."""
    shifted = [tokens[k:] for k in range(MAX_ORDER)]
    return Counter(chain.from_iterable(zip(*shifted[:n]) for n in range(1, MAX_ORDER + 1)))


@lru_cache(maxsize=1)
def _reference_counts(reference: tuple) -> tuple[Counter, int]:
    """The n-gram counts and length of a reference; callers must not mutate the counts."""
    ref = _fold(reference)
    if not ref:
        raise ValueError("reference must be non-empty")
    return _ngram_counts(ref), len(ref)


def bleu_stats(reference, candidate) -> tuple[int, ...]:
    """The statistics row of one sentence pair: matches, totals, candidate and reference length."""
    ref_counts, ref_len = _reference_counts(tuple(reference))
    cand = _fold(candidate)
    cand_counts = _ngram_counts(cand)
    matches = [0] * MAX_ORDER
    for g in cand_counts.keys() & ref_counts.keys():
        matches[len(g) - 1] += min(cand_counts[g], ref_counts[g])
    totals = [max(len(cand) - k, 0) for k in range(MAX_ORDER)]
    return (*matches, *totals, len(cand), ref_len)


def _brevity_penalty(candidate_len: int, reference_len: int) -> float:
    if candidate_len == 0:
        return 0.0
    if candidate_len >= reference_len:
        return 1.0
    return math.exp(1.0 - reference_len / candidate_len)


def sentence_bleu_from_stats(row) -> float:
    """Smoothed sentence-level BLEU in [0, 1] of one ``bleu_stats`` row.

    Candidates shorter than MAX_ORDER tokens are scored with n-gram orders up
    to their own length, so a 2-token candidate is judged on unigrams and
    bigrams only.
    """
    candidate_len, reference_len = row[-2], row[-1]
    if candidate_len == 0 or row[0] == 0:
        return 0.0
    top_order = min(MAX_ORDER, candidate_len)
    log_precision = 0.0
    for n in range(1, top_order + 1):
        m, t = row[n - 1], row[MAX_ORDER + n - 1]
        if n == 1:
            log_precision += math.log(m / t)
        else:
            log_precision += math.log((m + 1.0) / (t + 1.0))
    geo_mean = math.exp(log_precision / top_order)
    return _brevity_penalty(candidate_len, reference_len) * geo_mean


def sentence_bleu(reference, candidate) -> float:
    """Smoothed sentence-level BLEU in [0, 1] of one sentence pair."""
    return sentence_bleu_from_stats(bleu_stats(reference, candidate))


def corpus_bleu_rows(sums) -> np.ndarray:
    """Standard corpus BLEU of each row of summed ``bleu_stats`` rows."""
    sums = np.atleast_2d(np.asarray(sums, dtype=np.float64))
    scores = np.zeros(len(sums))
    ok = (sums[:, : 2 * MAX_ORDER] > 0).all(axis=1)  # a zero count zeroes the geometric mean
    matches, totals = sums[ok, :MAX_ORDER], sums[ok, MAX_ORDER : 2 * MAX_ORDER]
    cand_len, ref_len = sums[ok, -2], sums[ok, -1]
    brevity = np.exp(np.minimum(0.0, 1.0 - ref_len / cand_len))
    scores[ok] = brevity * np.exp(np.log(matches / totals).sum(axis=1) / MAX_ORDER)
    return scores


def corpus_bleu_from_stats(rows) -> float:
    """Standard corpus BLEU from per-sentence ``bleu_stats`` rows."""
    rows = list(rows)
    if not rows:
        raise ValueError("corpus BLEU needs at least one sentence pair")
    return float(corpus_bleu_rows(np.sum(rows, axis=0))[0])


def corpus_bleu(pairs) -> float:
    """Corpus BLEU over (reference, candidate) token-sequence pairs."""
    return corpus_bleu_from_stats(bleu_stats(ref, cand) for ref, cand in pairs)
