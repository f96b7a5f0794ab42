"""Shared builders for random toy corpora and the dense per-pair gradient reference."""

import numpy as np
import pytest

from semphrase import corpus, model, objective, synth


def _random_phrase(rng, tokens, max_len=2):
    length = int(rng.integers(1, max_len + 1))
    return tuple(tokens[int(rng.integers(0, len(tokens)))] for _ in range(length))


def make_random_corpus(
    rng,
    n_samples=3,
    max_candidates=4,
    n_tokens=8,
    max_pairs=3,
    max_phrase_len=2,
    n_features=2,
):
    """Random N-best corpus with consistent derivations, duplicates collapsed as ``load_nbest`` collapses them."""
    tokens = [f"t{i}" for i in range(n_tokens)]
    samples = []
    for sid in range(n_samples):
        n_pairs = int(rng.integers(1, max_pairs + 1))
        src_phrases = [_random_phrase(rng, tokens, max_phrase_len) for _ in range(n_pairs)]
        source = tuple(t for p in src_phrases for t in p)
        reference = _random_phrase(rng, tokens, max_phrase_len * max_pairs + 2)
        candidates = []
        n_cand = int(rng.integers(1, max_candidates + 1))
        for _ in range(n_cand):
            derivation = [
                corpus.PhrasePair(src, _random_phrase(rng, tokens, max_phrase_len))
                for src in src_phrases
            ]
            cand_tokens = tuple(t for p in derivation for t in p.target)
            feats = rng.normal(0.0, 1.0, size=n_features)
            candidates.append(corpus.NBestEntry(cand_tokens, feats, derivation))
        samples.append(corpus.TrainingSample(sid, source, reference, candidates))
    return corpus.dedupe_candidates(samples)


def make_tied_corpus(rng, zero_model=False):
    """Synthetic sentences cut to 1 to 12 candidates, with small integer features so that lines repeat and tie."""
    spec = synth.SynthSpec(sentences=int(rng.integers(1, 25)), candidates=12, seed=int(rng.integers(0, 1000)))
    samples = []
    for sample in corpus.dedupe_candidates(synth.generate(spec)[0]):
        n = int(rng.integers(1, len(sample.candidates) + 1))
        for entry in sample.candidates[:n]:
            entry.features = rng.integers(-5, 6, size=entry.features.size).astype(np.float64)
        samples.append(corpus.TrainingSample(
            sample.sample_id, sample.source, sample.reference, sample.candidates[:n], stats=sample.stats[:n]
        ))
    vocab = corpus.build_vocabulary(samples)
    if zero_model:  # every similarity 0: the similarity weight's lines are all parallel
        return samples, vocab, model.ModelParams(np.zeros((len(vocab), 3)), np.zeros((3, 2)))
    return samples, vocab, model.init_params(len(vocab), 4, 3, seed=int(rng.integers(0, 100)))


def pair_gradient(f_tokens, e_tokens, params, vocab):
    """The pair's similarity gradient in a fresh dense ``pack_params`` vector.

    A forward pass of its own over the pair's two phrases, ``sim_gradient``
    into its rows, carried back by ``backprop``.  The naive references run
    one per occurrence, so they share no accumulator with the two-phase
    ``full_gradient`` they are checked against, and backpropagate each
    occurrence on its own.
    """
    fw = objective.forward((f_tokens, e_tokens), params, vocab)
    objective.sim_gradient(f_tokens, e_tokens, params, vocab, fw, 1.0)
    grad = np.zeros(params.size)
    objective.backprop(fw, params, grad)
    return grad


def random_lambda(rng, n_features=2):
    lam = rng.normal(0.0, 1.0, size=n_features + 1)
    lam[-1] = rng.uniform(0.2, 1.5)
    return lam


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
