"""Expected-BLEU objective and its closed-form gradient.

The loss over a corpus is the negative mean, across samples, of the
expected sentence BLEU of the N-best list, where candidate probabilities
come from a softmax over log-linear scores that include the learned
phrase-similarity feature.

The gradient factors into two independent parts: a scalar error term per
phrase pair (how the loss moves with that pair's similarity score) and the
gradient of the similarity score itself with respect to the projection
matrices.  ``full_gradient`` exploits that separation, and each phase adds
straight into one of its two accumulators: phase 1 (``error_terms``) adds
every sample's error terms into one dict keyed by unique phrase pair, and
phase 2 adds ``sim_gradient`` of each unique pair, called exactly once per
pair, into one gradient vector, so its cost scales with the phrase-table
size rather than the corpus size.

Training, tuning and reranking share one log-linear score: ``feature_matrix``
builds a sample's candidates x (M+1) matrix H and the totals are ``H @ lam``.

Results are plain arrays: ``candidate_probs`` gives a sample's softmax
probabilities, and ``full_gradient`` one flat float64 vector in the
``model.pack_params`` layout (W1 then W2, row-major), the vector the
optimizer works on and the layout ``sim_gradient`` adds into.

Each phrase is encoded and projected once per ``full_gradient`` or
``corpus_xbleu`` call: the table of ``model.with_projection_table(params)``
lives for that call, and phases 1 and 2 both read it.  The sentence BLEU of
each candidate is the sample's ``sbleus`` array, computed when the sample was
built.
"""

from __future__ import annotations

import math

import numpy as np

from . import model
from .corpus import PhrasePair, TrainingSample, Vocabulary, collect_phrase_pairs
from .model import ModelParams


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


def candidate_probs(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, sims=None
) -> np.ndarray:
    """Softmax probabilities of one N-best list's candidates under the totals ``H @ lam``."""
    lam = np.asarray(lam, dtype=np.float64)
    if sims is None:
        sims = pair_similarities([sample], params, vocab)
    totals = feature_matrix(sample, params, vocab, sims, lam.size) @ lam
    exps = np.exp(totals - totals.max())
    return exps / math.fsum(exps.tolist())


def expected_bleu(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, sims=None
) -> float:
    """Probability-weighted mean sentence BLEU of one N-best list."""
    probs = candidate_probs(sample, params, lam, vocab, sims)
    return math.fsum((probs * sample.sbleus).tolist())


def error_terms(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, deltas, sims=None
) -> float:
    """Add how the sample's expected BLEU moves with each phrase pair's similarity into ``deltas``.

    Each occurrence of a pair in a candidate's derivation adds the feature
    weight times prob * (sbleu - xbleu) to ``deltas[pair]``.  Returns
    ``xbleu``, the sample's expected BLEU.
    """
    probs = candidate_probs(sample, params, lam, vocab, sims)
    xbleu = math.fsum((probs * sample.sbleus).tolist())
    terms = float(lam[-1]) * (probs * (sample.sbleus - xbleu))
    for entry, term in zip(sample.candidates, terms.tolist()):
        for pair in entry.derivation:
            deltas[pair] = deltas.get(pair, 0.0) + term
    return xbleu


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


def _backprop_side(d_w1, d_w2, x, trace, g_out: np.ndarray, params: ModelParams) -> None:
    if params.arch == model.ARCH_NONLINEAR:
        e2 = g_out * (1.0 - trace.y2 * trace.y2)  # tanh'(z2) = 1 - y2^2
        d_w2 += np.outer(trace.y1, e2)
        e1 = (params.w2 @ e2) * (1.0 - trace.y1 * trace.y1)
        d_w1[x.indices] += x.counts[:, None] * e1[None, :]
    else:
        d_w1[x.indices] += x.counts[:, None] * g_out[None, :]


def _accumulate_pair_gradient(
    views, f_tokens, e_tokens, params: ModelParams, vocab: Vocabulary, coeff: float
) -> None:
    xf, tf = model.projection(f_tokens, params, vocab)
    xe, te = model.projection(e_tokens, params, vocab)
    u, v = tf.output, te.output
    if params.sim_mode == model.SIM_DOT:
        g_u, g_v = v, u
    else:
        grads = _cosine_output_grads(u, v)
        if grads is None:
            return
        g_u, g_v = grads
    _backprop_side(*views, xf, tf, coeff * g_u, params)
    _backprop_side(*views, xe, te, coeff * g_v, params)


def sim_gradient(
    f_tokens, e_tokens, params: ModelParams, vocab: Vocabulary, grad: np.ndarray, coeff: float
) -> None:
    """Add ``coeff`` times the pair's similarity gradient into the ``pack_params`` vector ``grad``.

    For the two-layer network with dot-product similarity this is the
    closed-form backpropagation through both phrase towers; cosine and linear
    variants follow the same chain rule with their own output-layer partials.
    In word-level mode the max over tokens is handled as a subgradient:
    gradient flows only through the argmax token pair, first index on ties.
    """
    views = model.param_views(params, grad)
    if not params.word_level:
        _accumulate_pair_gradient(views, f_tokens, e_tokens, params, vocab, coeff)
        return
    sims = model.token_similarity_matrix(f_tokens, e_tokens, params, vocab)
    nf, ne = sims.shape
    coeffs: dict[tuple[int, int], float] = {}
    for i in range(nf):
        j = int(np.argmax(sims[i]))
        coeffs[(i, j)] = coeffs.get((i, j), 0.0) + 0.5 / nf
    for j in range(ne):
        i = int(np.argmax(sims[:, j]))
        coeffs[(i, j)] = coeffs.get((i, j), 0.0) + 0.5 / ne
    for (i, j), weight in coeffs.items():
        _accumulate_pair_gradient(views, (f_tokens[i],), (e_tokens[j],), params, vocab, coeff * weight)


def full_gradient(
    samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary
) -> tuple[float, np.ndarray]:
    """Corpus loss (negative mean expected BLEU) and its gradient in ``pack_params`` layout.

    Phase 1 adds every sample's error terms into one dict in sample order;
    phase 2 adds ``sim_gradient`` of each unique phrase pair into one vector.
    The result matches the naive per-occurrence summation to floating-point accuracy.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("corpus is empty")
    params = model.with_projection_table(params)
    sims = pair_similarities(samples, params, vocab)
    total_delta = dict.fromkeys(sims, 0.0)
    xbleus = [error_terms(sample, params, lam, vocab, total_delta, sims) for sample in samples]
    n = len(samples)
    grad = np.zeros(params.size)
    for pair, delta in total_delta.items():
        sim_gradient(pair.source, pair.target, params, vocab, grad, -delta / n)
    return -math.fsum(xbleus) / n, grad


def corpus_xbleu(samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary) -> float:
    """Mean expected BLEU over the corpus (the negated training loss)."""
    samples = list(samples)
    if not samples:
        raise ValueError("corpus is empty")
    params = model.with_projection_table(params)
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

    analytic = full_gradient(samples, params, lam, vocab)[1]
    numeric = finite_difference(loss_at, x0, step)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(rel.max())
