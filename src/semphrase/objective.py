"""Expected-BLEU objective and its closed-form gradient.

The loss over a corpus is the negative mean, across samples, of the
expected sentence BLEU of the N-best list, where candidate probabilities
come from a softmax over log-linear scores that include the learned
phrase-similarity feature.

The gradient factors into two independent parts: a scalar error term per
phrase pair (how the loss moves with that pair's similarity score) and the
gradient of the similarity score itself with respect to the projection
matrices.  ``full_gradient`` exploits that separation: phase 1 accumulates
error terms across every sample, keyed by unique phrase pair, and phase 2
evaluates ``sim_gradient`` exactly once per unique pair, so its cost scales
with the phrase-table size rather than the corpus size.

Training, tuning and reranking share one log-linear score: ``feature_matrix``
builds a sample's candidates x (M+1) matrix H and the totals are ``H @ lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .corpus import PhrasePair, TrainingSample, Vocabulary, collect_phrase_pairs
from .model import ModelParams


@dataclass(frozen=True)
class CandidateScore:
    """Log-linear decomposition of one candidate's score."""

    base: float  # dot product of the baseline feature weights with h
    feature: float  # phrase-similarity feature value (sum over the derivation)
    total: float  # base + lambda_feature * feature
    prob: float  # softmax probability within the sample


@dataclass(eq=False)
class ErrorTerms:
    """Per-phrase-pair error terms for one sample, plus the sample expectation."""

    deltas: dict[PhrasePair, float]
    xbleu: float
    u_values: np.ndarray  # sbleu - xbleu per candidate


@dataclass(eq=False)
class GradientAccumulator:
    """Dense gradients matching the model's parameter shapes."""

    d_w1: np.ndarray
    d_w2: np.ndarray | None

    @classmethod
    def zeros(cls, params: ModelParams) -> "GradientAccumulator":
        d_w2 = None if params.w2 is None else np.zeros_like(params.w2)
        return cls(np.zeros_like(params.w1), d_w2)

    def add_scaled(self, other: "GradientAccumulator", coeff: float) -> None:
        self.d_w1 += coeff * other.d_w1
        if self.d_w2 is not None:
            self.d_w2 += coeff * other.d_w2

    def to_vector(self) -> np.ndarray:
        if self.d_w2 is None:
            return self.d_w1.ravel().copy()
        return np.concatenate([self.d_w1.ravel(), self.d_w2.ravel()])

    def max_abs(self) -> float:
        m = float(np.max(np.abs(self.d_w1))) if self.d_w1.size else 0.0
        if self.d_w2 is not None and self.d_w2.size:
            m = max(m, float(np.max(np.abs(self.d_w2))))
        return m


def pair_similarities(samples, params: ModelParams, vocab: Vocabulary) -> dict[PhrasePair, float]:
    """Similarity of every unique phrase pair in the corpus, first-occurrence order."""
    return {
        pair: model.similarity(pair.source, pair.target, params, vocab)
        for pair in collect_phrase_pairs(samples)
    }


def candidate_feature(entry, params: ModelParams, vocab: Vocabulary, sims=None) -> float:
    """Phrase-similarity feature of a candidate: sum over its derivation pairs.

    ``sims`` is an optional precomputed pair-similarity cache.
    """
    if sims is None:
        return math.fsum(
            model.similarity(p.source, p.target, params, vocab) for p in entry.derivation
        )
    return math.fsum(sims[p] for p in entry.derivation)


def feature_matrix(
    sample: TrainingSample, params: ModelParams, vocab: Vocabulary, sims, n_weights: int
) -> np.ndarray:
    """The sample's candidates x (M+1) matrix H; its log-linear totals are ``H @ lam``.

    Columns are the M baseline features, then the phrase-similarity feature
    read from ``sims``, the corpus's ``pair_similarities`` cache.
    """
    h = np.empty((len(sample.candidates), n_weights))
    for i, entry in enumerate(sample.candidates):
        if entry.features.size != n_weights - 1:
            raise ValueError(
                f"candidate has {entry.features.size} baseline features, weights expect {n_weights - 1}"
            )
        h[i, :-1] = entry.features
        h[i, -1] = candidate_feature(entry, params, vocab, sims)
    return h


def score_candidates(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, sims=None
) -> list[CandidateScore]:
    """Log-linear scores and softmax probabilities for one N-best list."""
    lam = np.asarray(lam, dtype=np.float64)
    if sims is None:
        sims = pair_similarities([sample], params, vocab)
    h = feature_matrix(sample, params, vocab, sims, lam.size)
    totals = h @ lam
    bases = h[:, :-1] @ lam[:-1]
    shifted = totals - totals.max()
    exps = np.exp(shifted)
    norm = math.fsum(exps.tolist())
    probs = exps / norm
    return [
        CandidateScore(float(bases[i]), float(h[i, -1]), float(totals[i]), float(probs[i]))
        for i in range(len(sample.candidates))
    ]


def _require_sbleu(sample: TrainingSample) -> np.ndarray:
    vals = []
    for entry in sample.candidates:
        if entry.sbleu is None:
            raise ValueError("candidate is missing its cached sentence BLEU")
        vals.append(entry.sbleu)
    return np.array(vals, dtype=np.float64)


def expected_bleu(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, sims=None
) -> float:
    """Probability-weighted mean sentence BLEU of one N-best list."""
    sbleus = _require_sbleu(sample)
    scores = score_candidates(sample, params, lam, vocab, sims)
    return math.fsum(s.prob * b for s, b in zip(scores, sbleus))


def error_terms(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, sims=None
) -> ErrorTerms:
    """How the sample's expected BLEU moves with each phrase pair's similarity.

    For each pair appearing in any candidate's derivation, the error term is
    the feature weight times the sum over candidates of
    prob * (sbleu - xbleu) * occurrence count.
    """
    lam = np.asarray(lam, dtype=np.float64)
    sbleus = _require_sbleu(sample)
    scores = score_candidates(sample, params, lam, vocab, sims)
    xbleu = math.fsum(s.prob * b for s, b in zip(scores, sbleus))
    u_values = sbleus - xbleu
    deltas: dict[PhrasePair, float] = {}
    for entry, score, u in zip(sample.candidates, scores, u_values):
        occurrences: dict[PhrasePair, int] = {}
        for pair in entry.derivation:
            occurrences[pair] = occurrences.get(pair, 0) + 1
        weight = score.prob * u
        for pair, count in occurrences.items():
            deltas[pair] = deltas.get(pair, 0.0) + weight * count
    for pair in deltas:
        deltas[pair] *= float(lam[-1])
    return ErrorTerms(deltas, xbleu, u_values)


def _cosine_output_grads(u: np.ndarray, v: np.ndarray):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return None  # similarity pinned to 0, no gradient flows
    dot = float(u @ v)
    inv = 1.0 / (nu * nv)
    g_u = v * inv - (dot * inv / (nu * nu)) * u
    g_v = u * inv - (dot * inv / (nv * nv)) * v
    return g_u, g_v


def _backprop_side(grad: GradientAccumulator, x, trace, g_out: np.ndarray, params: ModelParams) -> None:
    if params.arch == model.ARCH_NONLINEAR:
        e2 = g_out * (1.0 - trace.y2 * trace.y2)  # tanh'(z2) = 1 - y2^2
        grad.d_w2 += np.outer(trace.y1, e2)
        e1 = (params.w2 @ e2) * (1.0 - trace.y1 * trace.y1)
        grad.d_w1[x.indices] += x.counts[:, None] * e1[None, :]
    else:
        grad.d_w1[x.indices] += x.counts[:, None] * g_out[None, :]


def _accumulate_pair_gradient(
    grad: GradientAccumulator, f_tokens, e_tokens, params: ModelParams, vocab: Vocabulary, coeff: float
) -> None:
    xf = model.encode(f_tokens, vocab)
    xe = model.encode(e_tokens, vocab)
    tf = model.project(xf, params)
    te = model.project(xe, params)
    u, v = tf.output, te.output
    if params.sim_mode == model.SIM_DOT:
        g_u, g_v = v, u
    else:
        grads = _cosine_output_grads(u, v)
        if grads is None:
            return
        g_u, g_v = grads
    _backprop_side(grad, xf, tf, coeff * g_u, params)
    _backprop_side(grad, xe, te, coeff * g_v, params)


def sim_gradient(f_tokens, e_tokens, params: ModelParams, vocab: Vocabulary) -> GradientAccumulator:
    """Gradient of the pair's similarity score with respect to W1 (and W2).

    For the two-layer network with dot-product similarity this is the
    closed-form backpropagation through both phrase towers; cosine and linear
    variants follow the same chain rule with their own output-layer partials.
    In word-level mode the max over tokens is handled as a subgradient:
    gradient flows only through the argmax token pair, first index on ties.
    """
    grad = GradientAccumulator.zeros(params)
    if not params.word_level:
        _accumulate_pair_gradient(grad, f_tokens, e_tokens, params, vocab, 1.0)
        return grad
    sims = model.token_similarity_matrix(f_tokens, e_tokens, params, vocab)
    nf, ne = sims.shape
    coeffs: dict[tuple[int, int], float] = {}
    for i in range(nf):
        j = int(np.argmax(sims[i]))
        coeffs[(i, j)] = coeffs.get((i, j), 0.0) + 0.5 / nf
    for j in range(ne):
        i = int(np.argmax(sims[:, j]))
        coeffs[(i, j)] = coeffs.get((i, j), 0.0) + 0.5 / ne
    for (i, j), coeff in coeffs.items():
        _accumulate_pair_gradient(grad, (f_tokens[i],), (e_tokens[j],), params, vocab, coeff)
    return grad


def full_gradient(
    samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary
) -> tuple[float, GradientAccumulator]:
    """Corpus loss (negative mean expected BLEU) and its gradient.

    Phase 1 gathers error terms per sample and sums them in sample order;
    phase 2 calls ``sim_gradient`` once per unique phrase pair.  The result
    matches the naive per-occurrence summation to floating-point accuracy.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("corpus is empty")
    sims = pair_similarities(samples, params, vocab)
    total_delta = {pair: 0.0 for pair in sims}
    per_sample = [error_terms(s, params, lam, vocab, sims) for s in samples]
    for terms in per_sample:
        for pair, delta in terms.deltas.items():
            total_delta[pair] += delta
    n = len(samples)
    loss = -math.fsum(t.xbleu for t in per_sample) / n
    grad = GradientAccumulator.zeros(params)
    for pair, delta in total_delta.items():
        pair_grad = sim_gradient(pair.source, pair.target, params, vocab)
        grad.add_scaled(pair_grad, -delta / n)
    return loss, grad


def corpus_xbleu(samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary) -> float:
    """Mean expected BLEU over the corpus (the negated training loss)."""
    samples = list(samples)
    if not samples:
        raise ValueError("corpus is empty")
    sims = pair_similarities(samples, params, vocab)
    return math.fsum(expected_bleu(s, params, lam, vocab, sims) for s in samples) / len(samples)


def finite_difference(fn, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.empty_like(x0)
    for i in range(x0.size):
        x = x0.copy()
        x[i] = x0[i] + step
        f_plus = fn(x)
        x[i] = x0[i] - step
        f_minus = fn(x)
        out[i] = (f_plus - f_minus) / (2.0 * step)
    return out


def gradient_check(
    samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, step: float = 1e-5
) -> float:
    """Max relative error between the analytic corpus gradient and central differences."""
    x0 = model.pack_params(params)

    def loss_at(vec: np.ndarray) -> float:
        return full_gradient(samples, model.unpack_params(params, vec), lam, vocab)[0]

    _, grad = full_gradient(samples, params, lam, vocab)
    analytic = grad.to_vector()
    numeric = finite_difference(loss_at, x0, step)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(rel.max())
