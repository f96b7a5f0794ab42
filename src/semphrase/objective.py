"""Expected-BLEU objective and its closed-form gradient.

The loss over a corpus is the negative mean, across samples, of the
expected sentence BLEU of the N-best list, where candidate probabilities
come from a softmax over log-linear scores that include the learned
phrase-similarity feature.

The gradient factors into two independent parts: a scalar error term per
phrase pair (how the loss moves with that pair's similarity score) and the
gradient of the similarity score itself with respect to the projection
matrices.  ``full_gradient`` exploits that separation: phase 1
(``error_terms``) adds every sample's error terms into one dict keyed by
unique phrase pair; phase 2 calls ``sim_gradient`` exactly once per unique
pair, which adds the gradient at both tower outputs into one dict keyed by
phrase, and ``backprop`` then runs the backward pass once for all phrases
(as DSSM, Huang et al. 2013, batches its towers).  So phase 2 costs O(k) per
unique pair plus one backward pass per distinct phrase.

Training, tuning and reranking share one log-linear score: ``feature_matrix``
builds a sample's candidates x (M+1) matrix H and the totals are ``H @ lam``.

Results are plain arrays: ``candidate_probs`` gives a sample's softmax
probabilities, and ``full_gradient`` one flat float64 vector in the
``model.pack_params`` layout (W1 then W2, row-major), the vector the
optimizer works on and the layout ``backprop`` adds into.

Each phrase is encoded and projected once per ``full_gradient`` or
``corpus_xbleu`` call: the table of ``model.with_projection_table(params)``
lives for that call, and both phases and ``backprop`` read it.  ``backprop``'s
matrix products go through BLAS, so the gradient's bits are fixed for a given
numpy/BLAS build and BLAS thread count.  Each candidate's sentence BLEU is the
sample's ``sbleus`` array, computed when the sample was built.
"""

from __future__ import annotations

import math

import numpy as np

from . import model
from .corpus import PhrasePair, TrainingSample, Vocabulary, collect_phrase_pairs
from .model import ModelParams


def pair_similarities(samples, params: ModelParams, vocab: Vocabulary, pairs=None) -> dict[PhrasePair, float]:
    """Similarity of every unique phrase pair in the corpus, first-occurrence order.

    ``pairs``, the corpus's ``collect_phrase_pairs``, is collected here if not given.
    """
    pairs = collect_phrase_pairs(samples) if pairs is None else pairs
    return {pair: model.similarity(pair.source, pair.target, params, vocab) for pair in pairs}


def candidate_feature(entry, params: ModelParams, vocab: Vocabulary, sims=None) -> float:
    """Phrase-similarity feature of a candidate: sum over its derivation pairs.

    ``sims`` is an optional precomputed pair-similarity cache.
    """
    if sims is None:
        return math.fsum(model.similarity(p.source, p.target, params, vocab) for p in entry.derivation)
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
            raise ValueError(f"candidate has {entry.features.size} baseline features, weights expect {n_weights - 1}")
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


def _add_output_grads(out_grads, f_key, e_key, params: ModelParams, vocab: Vocabulary, coeff: float) -> None:
    u = model.projection(f_key, params, vocab)[1].output
    v = model.projection(e_key, params, vocab)[1].output
    if params.sim_mode == model.SIM_DOT:
        g_u, g_v = v, u
    else:
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if nu == 0.0 or nv == 0.0:
            return  # similarity pinned to 0, no gradient flows
        dot, inv = float(u @ v), 1.0 / (nu * nv)
        g_u = v * inv - (dot * inv / (nu * nu)) * u
        g_v = u * inv - (dot * inv / (nv * nv)) * v
    for key, g in ((f_key, g_u), (e_key, g_v)):
        out_grads[key] = out_grads.get(key, 0.0) + coeff * g


def sim_gradient(f_tokens, e_tokens, params: ModelParams, vocab: Vocabulary, out_grads, coeff: float) -> None:
    """Add ``coeff`` times the pair's similarity gradient at the tower outputs into ``out_grads``.

    ``out_grads`` maps a phrase's token tuple to a k-vector, the gradient
    with respect to its projected vector; ``backprop`` carries it into the
    matrices.  Dot and cosine similarity have their own output-layer
    partials; a cosine pair with a zero-norm side adds nothing.  In
    word-level mode the max over tokens is handled as a subgradient: gradient
    flows only through the argmax token pair, first index on ties, into
    single-token keys.
    """
    if not params.word_level:
        _add_output_grads(out_grads, tuple(f_tokens), tuple(e_tokens), params, vocab, coeff)
        return
    sims = model.token_similarity_matrix(f_tokens, e_tokens, params, vocab)
    nf, ne = sims.shape
    best = [((i, j), 0.5 / nf) for i, j in enumerate(sims.argmax(axis=1).tolist())]  # first index on ties
    best += [((i, j), 0.5 / ne) for j, i in enumerate(sims.argmax(axis=0).tolist())]
    coeffs: dict[tuple[int, int], float] = {}
    for ij, weight in best:
        coeffs[ij] = coeffs.get(ij, 0.0) + weight
    for (i, j), weight in coeffs.items():
        _add_output_grads(out_grads, (f_tokens[i],), (e_tokens[j],), params, vocab, coeff * weight)


def backprop(out_grads, params: ModelParams, vocab: Vocabulary, grad: np.ndarray) -> None:
    """Backpropagate ``out_grads`` through the towers, adding into the ``pack_params`` vector ``grad``.

    One pass over its phrases, the rows of G, Y1 and Y2: E2 = G * (1 - Y2^2),
    dW2 += Y1^T E2 and E1 = (E2 W2^T) * (1 - Y1^2); each phrase's token counts
    times its row of E1 (of G for the linear map) go into its tokens' W1 rows.
    """
    if not out_grads:
        return
    d_w1, d_w2 = model.param_views(params, grad)
    forward = [model.projection(key, params, vocab) for key in out_grads]
    err = np.array(list(out_grads.values()))
    if params.arch == model.ARCH_NONLINEAR:
        y1 = np.array([trace.y1 for _, trace in forward])
        y2 = np.array([trace.y2 for _, trace in forward])
        err = err * (1.0 - y2 * y2)  # tanh'(z2) = 1 - y2^2
        d_w2 += y1.T @ err
        err = (err @ params.w2.T) * (1.0 - y1 * y1)
    rows = np.repeat(np.arange(len(forward)), [x.indices.size for x, _ in forward])
    counts = np.concatenate([x.counts for x, _ in forward])
    np.add.at(d_w1, np.concatenate([x.indices for x, _ in forward]), counts[:, None] * err[rows])


def full_gradient(
    samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, pairs=None
) -> tuple[float, np.ndarray]:
    """Corpus loss (negative mean expected BLEU) and its gradient in ``pack_params`` layout.

    Phase 1 adds every sample's error terms into one dict in sample order;
    phase 2 adds ``sim_gradient`` of each unique pair into one dict, which
    ``backprop`` carries into one vector.  ``pairs`` is as for ``pair_similarities``.
    The result matches the naive per-occurrence summation to floating-point accuracy.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("corpus is empty")
    params = model.with_projection_table(params)
    sims = pair_similarities(samples, params, vocab, pairs)
    total_delta = dict.fromkeys(sims, 0.0)
    xbleus = [error_terms(sample, params, lam, vocab, total_delta, sims) for sample in samples]
    n = len(samples)
    out_grads = {}
    for pair, delta in total_delta.items():
        sim_gradient(pair.source, pair.target, params, vocab, out_grads, -delta / n)
    grad = np.zeros(params.size)
    backprop(out_grads, params, vocab, grad)
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
