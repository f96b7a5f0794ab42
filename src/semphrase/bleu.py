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

``stats_rows`` is the one n-gram counter: it labels every candidate of a
whole corpus in one array pass, folding each distinct token once.
``bleu_stats``, ``sentence_bleu`` and ``corpus_bleu`` call it.  Only
building ``corpus.TrainingSample`` objects walks candidates against their
references: each sample keeps its candidates' rows and the sentence BLEU of
each row, and training, tuning and reranking read the kept arrays.
``sentence_bleus`` scores a corpus's rows through ``math``, once per
distinct row.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, count

import numpy as np

MAX_ORDER = 4

# Identifier of the sentence-level smoothing scheme, stored in model headers.
SMOOTHING_TAG = "add-one-orders-2-plus"


def stats_rows(references, candidate_lists) -> np.ndarray:
    """The ``bleu_stats`` rows of every candidate of every sample, in one array pass.

    ``references[s]`` is sample s's reference and ``candidate_lists[s]`` the
    token sequences of its candidates.  The result is a (C, 10) int64 array,
    one row per candidate in sample order, candidates in list order.

    Each distinct token is folded once and given an id.  For each order n,
    every n-gram that does not span two sentences gets the id of its
    (sample, n-gram) pair, numbered densely so that the next order's codes
    fit int64.  The references' counts of these ids clip each candidate's.
    """
    references = [tuple(r) for r in references]
    candidates = [tuple(c) for cands in candidate_lists for c in cands]
    per_sample = np.array([len(cands) for cands in candidate_lists], dtype=np.int64)
    if len(per_sample) != len(references):
        raise ValueError(f"{len(references)} references for {len(per_sample)} candidate lists")
    if not all(references):
        raise ValueError("reference must be non-empty")
    n_refs, n_cands = len(references), len(candidates)
    sentences = references + candidates
    lens = np.fromiter(map(len, sentences), np.int64, len(sentences))
    sample_of = np.repeat(np.arange(n_refs), per_sample)

    raw_id = defaultdict(count().__next__)  # each distinct token, numbered at its first occurrence
    raw = np.fromiter(map(raw_id.__getitem__, chain.from_iterable(sentences)), np.int64, int(lens.sum()))
    folded: dict[str, int] = {}
    ids = np.fromiter((folded.setdefault(t.lower(), len(folded)) for t in raw_id), np.int64, len(raw_id))[raw]
    # Each position's sentence and the end of that sentence.  The references
    # come first, so candidate positions start at ``ref_tokens``.
    sentence = np.repeat(np.arange(len(sentences)), lens)
    ends = np.cumsum(lens)
    ref_tokens = int(lens[:n_refs].sum())

    rows = np.zeros((n_cands, 2 * MAX_ORDER + 2), dtype=np.int64)
    pos = np.arange(len(ids))
    grams = np.concatenate([np.arange(n_refs), sample_of])[sentence]  # order 0: each position's sample
    for n in range(1, MAX_ORDER + 1):
        keep = pos + n <= ends[sentence[pos]]
        pos = pos[keep]
        grams = grams[keep] * len(folded) + ids[pos + n - 1]
        distinct, grams = np.unique(grams, return_inverse=True)
        n_grams = len(distinct)
        split = np.searchsorted(pos, ref_tokens)
        in_references = np.bincount(grams[:split], minlength=n_grams)
        rows[:, n - 1] = _clipped_matches(sentence[pos[split:]] - n_refs, grams[split:], in_references, n_cands)
        rows[:, MAX_ORDER + n - 1] = np.maximum(lens[n_refs:] - (n - 1), 0)
    rows[:, -2] = lens[n_refs:]
    rows[:, -1] = lens[sample_of]
    return rows


def _clipped_matches(cand, grams, in_references, n_cands) -> np.ndarray:
    """Each candidate's n-gram count clipped by its reference's, summed over its n-grams.

    Position i of a candidate holds n-gram id ``grams[i]`` and belongs to
    candidate ``cand[i]``; the references hold id g ``in_references[g]`` times.
    """
    width = len(in_references)
    keys, counts = np.unique(cand * width + grams, return_counts=True)
    cand, gram = np.divmod(keys, width)
    return np.bincount(cand, weights=np.minimum(counts, in_references[gram]), minlength=n_cands)


def bleu_stats(reference, candidate) -> tuple[int, ...]:
    """The statistics row of one sentence pair: matches, totals, candidate and reference length."""
    return tuple(stats_rows([reference], [[candidate]])[0].tolist())


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


def sentence_bleus(rows) -> np.ndarray:
    """``sentence_bleu_from_stats`` of each row of the (C, 10) array ``rows``, scoring each distinct row once."""
    rows = list(map(tuple, rows.tolist()))
    scores = {row: sentence_bleu_from_stats(row) for row in dict.fromkeys(rows)}
    return np.fromiter(map(scores.__getitem__, rows), np.float64, len(rows))


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
    pairs = list(pairs)
    return corpus_bleu_from_stats(stats_rows([ref for ref, _ in pairs], [[cand] for _, cand in pairs]))
