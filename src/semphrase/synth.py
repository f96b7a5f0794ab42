"""Synthetic reranking corpora with planted phrase semantics.

Each "concept" owns a synonym set of source phrases and a synonym set of
target phrases.  References translate every source phrase with a
correct-concept target phrase; candidates reuse the reference phrase per slot
but, at the noise rate, swap in a phrase from a wrong concept.  Baseline
features are mildly informative (a noisy corruption signal plus pure noise),
so consistent reranking gains require the learned similarity feature.

The phrase inventory depends only on the counts, not on the seed, so corpora
generated with different seeds share one vocabulary and a model trained on
one corpus transfers to held-out corpora from fresh seeds.  Everything else
is drawn from a single seeded generator, making output files byte-identical
for identical specs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .corpus import (
    NBestEntry,
    PhrasePair,
    TrainingSample,
    label_samples,
    save_lambda,
    save_nbest,
    save_references,
)

N_BASE_FEATURES = 2
DEFAULT_LAMBDA = (1.0, 0.1, 1.0)


@dataclass(frozen=True)
class SynthSpec:
    """Size and noise parameters of a generated corpus."""

    concepts: int = 5
    phrases_per_concept: int = 3
    sentences: int = 200
    phrases_per_sentence: int = 4
    candidates: int = 8
    noise: float = 0.3
    seed: int = 0
    feature_noise: float = 0.35  # stddev of the noise on the corruption signal

    def __post_init__(self):
        for name in ("concepts", "phrases_per_concept", "sentences", "phrases_per_sentence", "candidates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        if not (math.isfinite(self.feature_noise) and self.feature_noise >= 0.0):
            raise ValueError(f"feature_noise must be finite and >= 0, got {self.feature_noise!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _phrase(side: str, concept: int, synonym: int) -> tuple[str, ...]:
    # Phrase length alternates between 1 and 2 tokens; the inventory is a pure
    # function of (side, concept, synonym) so it is identical across seeds.
    head = f"{side}{concept}w{synonym}"
    if (concept + synonym) % 2 == 0:
        return (head,)
    return (head, f"{side}{concept}w{synonym}x")


def source_phrase(concept: int, synonym: int) -> tuple[str, ...]:
    return _phrase("f", concept, synonym)


def target_phrase(concept: int, synonym: int) -> tuple[str, ...]:
    return _phrase("e", concept, synonym)


def generate(spec: SynthSpec) -> tuple[list[TrainingSample], np.ndarray]:
    """Build the samples in memory; returns (samples, default weight vector)."""
    rng = np.random.default_rng(spec.seed)
    parts = []
    for i in range(spec.sentences):
        concepts = rng.integers(0, spec.concepts, size=spec.phrases_per_sentence)
        src_syn = rng.integers(0, spec.phrases_per_concept, size=spec.phrases_per_sentence)
        ref_syn = rng.integers(0, spec.phrases_per_concept, size=spec.phrases_per_sentence)
        src_phrases = [source_phrase(int(c), int(s)) for c, s in zip(concepts, src_syn)]
        ref_phrases = [target_phrase(int(c), int(s)) for c, s in zip(concepts, ref_syn)]
        source = tuple(tok for p in src_phrases for tok in p)
        reference = tuple(tok for p in ref_phrases for tok in p)

        candidates = []
        for _ in range(spec.candidates):
            corrupted = 0
            derivation = []
            for slot in range(spec.phrases_per_sentence):
                concept = int(concepts[slot])
                tgt = ref_phrases[slot]
                if spec.concepts > 1 and rng.random() < spec.noise:
                    corrupted += 1
                    wrong = int(rng.integers(0, spec.concepts - 1))
                    if wrong >= concept:
                        wrong += 1
                    tgt = target_phrase(wrong, int(rng.integers(0, spec.phrases_per_concept)))
                derivation.append(PhrasePair(src_phrases[slot], tgt))
            tokens = tuple(tok for pair in derivation for tok in pair.target)
            signal = -corrupted / spec.phrases_per_sentence + rng.normal(0.0, spec.feature_noise)
            features = np.array([signal, rng.normal(0.0, 1.0)], dtype=np.float64)
            candidates.append(NBestEntry(tokens, features, derivation))
        parts.append((i, source, reference, candidates))
    return label_samples(parts), np.array(DEFAULT_LAMBDA, dtype=np.float64)


def synthgen(spec: SynthSpec, out_dir) -> tuple[str, str, str]:
    """Generate and write the reference, N-best, and weight files."""
    samples, lam = generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    refs_path = os.path.join(out_dir, "refs.txt")
    nbest_path = os.path.join(out_dir, "nbest.txt")
    lambda_path = os.path.join(out_dir, "lambda.txt")
    save_references(samples, refs_path)
    save_nbest(samples, nbest_path)
    save_lambda(lam, lambda_path)
    return refs_path, nbest_path, lambda_path
