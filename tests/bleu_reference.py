"""Independent reference implementation of BLEU used only as a test oracle.

Deliberately written in a different style from the library: explicit n-gram
lists, per-order clipping against a plain dict, and a product-based geometric
mean.  Keep this file free of imports from the package under test.
"""

import math


def _lower(tokens):
    return [t.lower() for t in tokens]


def _ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _clipped_matches(cand_ngrams, ref_ngrams):
    ref_counts = {}
    for g in ref_ngrams:
        ref_counts[g] = ref_counts.get(g, 0) + 1
    matched = 0
    cand_counts = {}
    for g in cand_ngrams:
        cand_counts[g] = cand_counts.get(g, 0) + 1
    for g, c in cand_counts.items():
        matched += min(c, ref_counts.get(g, 0))
    return matched


def ref_bleu_stats(reference, candidate):
    """(matches 1..4, totals 1..4, candidate length, reference length) as a tuple of ints."""
    reference = _lower(reference)
    candidate = _lower(candidate)
    if len(reference) == 0:
        raise ValueError("empty reference")
    matches = []
    totals = []
    for n in range(1, 5):
        cand_ngrams = _ngrams(candidate, n)
        matches.append(_clipped_matches(cand_ngrams, _ngrams(reference, n)))
        totals.append(len(cand_ngrams))
    return tuple(matches + totals + [len(candidate), len(reference)])


def ref_sentence_bleu(reference, candidate):
    """Smoothed sentence BLEU: add-one on orders >= 2, orders capped at len(candidate)."""
    reference = _lower(reference)
    candidate = _lower(candidate)
    if len(reference) == 0:
        raise ValueError("empty reference")
    if len(candidate) == 0:
        return 0.0
    unigram_matches = _clipped_matches(_ngrams(candidate, 1), _ngrams(reference, 1))
    if unigram_matches == 0:
        return 0.0
    top = min(4, len(candidate))
    precisions = []
    for n in range(1, top + 1):
        cand_ngrams = _ngrams(candidate, n)
        matches = _clipped_matches(cand_ngrams, _ngrams(reference, n))
        if n == 1:
            precisions.append(matches / len(cand_ngrams))
        else:
            precisions.append((matches + 1) / (len(cand_ngrams) + 1))
    geo = math.prod(precisions) ** (1.0 / top)
    if len(candidate) < len(reference):
        bp = math.exp(1.0 - len(reference) / len(candidate))
    else:
        bp = 1.0
    return bp * geo


def ref_corpus_bleu(pairs):
    """Unsmoothed corpus BLEU over (reference, candidate) pairs."""
    pairs = [(_lower(r), _lower(c)) for r, c in pairs]
    if not pairs:
        raise ValueError("no pairs")
    total_matches = [0, 0, 0, 0]
    total_counts = [0, 0, 0, 0]
    cand_len = 0
    ref_len = 0
    for reference, candidate in pairs:
        cand_len += len(candidate)
        ref_len += len(reference)
        for n in range(1, 5):
            cand_ngrams = _ngrams(candidate, n)
            total_counts[n - 1] += len(cand_ngrams)
            total_matches[n - 1] += _clipped_matches(cand_ngrams, _ngrams(reference, n))
    if 0 in total_counts or 0 in total_matches:
        return 0.0
    precisions = [m / t for m, t in zip(total_matches, total_counts)]
    geo = math.prod(precisions) ** 0.25
    if cand_len < ref_len:
        bp = math.exp(1.0 - ref_len / cand_len)
    else:
        bp = 1.0
    return bp * geo
