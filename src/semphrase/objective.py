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

Training, tuning and reranking share one log-linear score over one compiled
corpus: ``compile_corpus`` turns the samples and their labels into arrays,
``pair_similarities`` scores every unique pair in one row-wise pass, and
``feature_matrix`` builds the corpus's candidates x (M+1) matrix H, whose
similarity column is one gather and ``bincount`` over the derivation
occurrences; the totals are ``H @ lam``, sample s owning rows
``offsets[s]:offsets[s + 1]``.  ``score`` runs the three for a fixed model,
and ``CompiledCorpus.picks`` is the one rule that picks a candidate per sample.

Results are plain arrays: ``candidate_probs`` gives a sample's softmax
probabilities, and ``full_gradient`` one flat float64 vector in the
``model.pack_params`` layout (W1 then W2, row-major), the vector the
optimizer works on and the layout ``backprop`` adds into.

Only this module fills a projection table: ``projected`` gives every
distinct phrase its output row with one ``model.project`` call per
``full_gradient`` or ``score`` call, and ``pair_similarities`` and phase 2
read it.  ``backprop`` projects its phrases in one batch of its own, so a
pair's gradient takes the same path with or without a table.
``pair_similarities`` scores the stacked rows with ``model.row_similarities``,
the rule ``model.similarity`` applies to one pair, one BLAS dot per pair;
``backprop``'s matrix products go through BLAS, so the gradient's bits are
fixed for a given numpy/BLAS build and BLAS thread count.  ``corpus_xbleu``
is the negated ``full_gradient`` loss.
The labels, each candidate's ``bleu_stats`` row and sentence BLEU, are
computed when a sample is built and stacked once by ``compile_corpus``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import chain, count

import numpy as np

from . import model
from .corpus import TrainingSample, Vocabulary
from .model import ModelParams

SIM_BLOCK = 256  # pair rows gathered per block of row-wise products, bounding their memory


@dataclass(frozen=True, eq=False)
class CompiledCorpus:
    """A corpus as arrays, built once per ``train`` call and once per ``score``.

    ``pairs`` are the unique phrase pairs in order of first occurrence (the
    ``corpus.collect_phrase_pairs`` order) and ``phrases`` the distinct
    phrases among them; pair p joins the phrases of rows ``pair_rows[p]``
    (source, target).  Derivation occurrence o is pair ``occ_pair[o]`` in
    candidate ``occ_cand[o]``.  Candidates are numbered across the corpus:
    sample s owns rows ``offsets[s]:offsets[s + 1]`` of ``features``, the
    stacked baseline features, and of the stacked labels ``stats`` and ``sbleus``.
    """

    pairs: tuple
    phrases: tuple
    pair_rows: np.ndarray  # (P, 2)
    occ_pair: np.ndarray  # (O,)
    occ_cand: np.ndarray  # (O,)
    offsets: np.ndarray  # (S + 1,)
    features: np.ndarray  # (C, M)
    stats: np.ndarray  # (C, 10) bleu_stats rows
    sbleus: np.ndarray  # (C,) sentence BLEU

    def padded(self, values: np.ndarray, fill) -> np.ndarray:
        """Per-candidate ``values`` as one (S, longest list) array: row s holds sample s's, then ``fill``."""
        lengths = np.diff(self.offsets)
        layout = np.full((lengths.size, lengths.max()), fill, dtype=values.dtype)
        layout[np.arange(lengths.max()) < lengths[:, None]] = values
        return layout

    def picks(self, values: np.ndarray) -> np.ndarray:
        """Each sample's pick of per-candidate ``values``: the index of its first largest one."""
        return np.argmax(self.padded(values, -np.inf), axis=1)


def compile_corpus(samples) -> CompiledCorpus:
    """The arrays of ``samples`` in one corpus-wide pass; refuses a sample with no candidates."""
    samples = list(samples)
    if not samples:
        raise ValueError("corpus is empty")
    for sample in samples:
        if not sample.candidates:
            raise ValueError(f"sample {sample.sample_id} has no candidates")
    entries = [entry for sample in samples for entry in sample.candidates]
    derivations = [entry.derivation for entry in entries]
    lengths = np.fromiter(map(len, derivations), dtype=np.intp, count=len(entries))
    pair_id = defaultdict(count().__next__)  # numbers each pair at its first occurrence
    occurrences = chain.from_iterable(derivations)
    occ_pair = np.fromiter(map(pair_id.__getitem__, occurrences), dtype=np.intp, count=int(lengths.sum()))
    phrase_id = defaultdict(count().__next__)
    pair_rows = [(phrase_id[p.source], phrase_id[p.target]) for p in pair_id]
    try:
        features = np.array([entry.features for entry in entries], dtype=np.float64)
    except ValueError:
        raise ValueError("candidates differ in their number of baseline features") from None
    return CompiledCorpus(
        tuple(pair_id),
        tuple(phrase_id),
        np.array(pair_rows, dtype=np.intp).reshape(-1, 2),
        occ_pair,
        np.repeat(np.arange(len(entries)), lengths),
        np.cumsum([0] + [len(sample.candidates) for sample in samples]),
        features,
        np.concatenate([sample.stats for sample in samples]),
        np.concatenate([sample.sbleus for sample in samples]),
    )


def projected(compiled: CompiledCorpus, params: ModelParams, vocab: Vocabulary) -> ModelParams:
    """Params sharing ``params``' arrays, with the projection table of ``compiled``'s phrases.

    One ``model.project`` call gives each distinct phrase's output row
    (each distinct token's, in word-level mode).
    """
    keys = compiled.phrases
    if params.word_level:
        keys = tuple(dict.fromkeys((token,) for phrase in keys for token in phrase))
    return replace(params, projections=dict(zip(keys, model.project(model.encode(keys, vocab), params)[1])))


def pair_similarities(compiled: CompiledCorpus, params: ModelParams, vocab: Vocabulary) -> np.ndarray:
    """The (P,) similarities of ``compiled.pairs``.

    The phrases' outputs come from ``params``' projection table, which is
    ``projected`` here if ``params`` carry none, and ``model.row_similarities``
    scores the pairs' rows ``SIM_BLOCK`` pairs at a time.  Word-level mode
    scores each pair with ``model.similarity``.
    """
    if params.projections is None:
        params = projected(compiled, params, vocab)
    if params.word_level:
        return np.array([model.similarity(p.source, p.target, params, vocab) for p in compiled.pairs], dtype=float)
    rows = np.array(model.outputs(compiled.phrases, params, vocab))
    sims = np.empty(len(compiled.pairs))
    for start in range(0, sims.size, SIM_BLOCK):
        f, e = compiled.pair_rows[start : start + SIM_BLOCK].T
        sims[start : start + SIM_BLOCK] = model.row_similarities(rows[f], rows[e], params.sim_mode)
    return sims


def candidate_feature(entry, params: ModelParams, vocab: Vocabulary) -> float:
    """Phrase-similarity feature of a candidate: sum over its derivation pairs.

    The per-candidate reference for ``feature_matrix``'s last column.
    """
    return math.fsum(model.similarity(p.source, p.target, params, vocab) for p in entry.derivation)


def feature_matrix(compiled: CompiledCorpus, sims: np.ndarray, n_weights: int) -> np.ndarray:
    """The corpus's candidates x (M+1) matrix H; its log-linear totals are ``H @ lam``.

    Columns are the M baseline features, then the phrase-similarity feature:
    the sum of ``sims``, the ``pair_similarities`` array, over each
    candidate's derivation occurrences.
    """
    n_cands, m = compiled.features.shape
    if m != n_weights - 1:
        raise ValueError(f"candidates have {m} baseline features, weights expect {n_weights - 1}")
    h = np.empty((n_cands, n_weights))
    h[:, :-1] = compiled.features
    h[:, -1] = np.bincount(compiled.occ_cand, weights=sims[compiled.occ_pair], minlength=n_cands)
    return h


def score(samples, params: ModelParams, vocab: Vocabulary, n_weights: int) -> tuple[CompiledCorpus, np.ndarray]:
    """``compile_corpus(samples)`` and its ``feature_matrix`` H under ``params``, each phrase projected once."""
    compiled = compile_corpus(samples)
    return compiled, feature_matrix(compiled, pair_similarities(compiled, params, vocab), n_weights)


def candidate_probs(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, totals=None
) -> np.ndarray:
    """Softmax probabilities of one N-best list's candidates under the totals ``H @ lam``.

    ``totals``, the sample's rows of ``H @ lam``, are computed here if not given.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if totals is None:
        totals = score([sample], params, vocab, lam.size)[1] @ lam
    exps = np.exp(totals - totals.max())
    return exps / math.fsum(exps.tolist())


def expected_bleu(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, totals=None
) -> float:
    """Probability-weighted mean sentence BLEU of one N-best list; ``totals`` as for ``candidate_probs``."""
    probs = candidate_probs(sample, params, lam, vocab, totals)
    return math.fsum((probs * sample.sbleus).tolist())


def error_terms(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, deltas, totals=None
) -> float:
    """Add how the sample's expected BLEU moves with each phrase pair's similarity into ``deltas``.

    Each occurrence of a pair in a candidate's derivation adds the feature
    weight times prob * (sbleu - xbleu) to ``deltas[pair]``.  Returns
    ``xbleu``, the sample's expected BLEU; ``totals`` as for ``candidate_probs``.
    """
    probs = candidate_probs(sample, params, lam, vocab, totals)
    xbleu = math.fsum((probs * sample.sbleus).tolist())
    terms = float(lam[-1]) * (probs * (sample.sbleus - xbleu))
    for entry, term in zip(sample.candidates, terms.tolist()):
        for pair in entry.derivation:
            deltas[pair] = deltas.get(pair, 0.0) + term
    return xbleu


def _add_output_grads(out_grads, f_key, e_key, params: ModelParams, vocab: Vocabulary, coeff: float) -> None:
    u, v = model.outputs((f_key, e_key), params, vocab)
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

    One ``model.project`` call over its phrases gives the rows of Y1 and Y2;
    with G the rows of ``out_grads``, E2 = G * (1 - Y2^2), dW2 += Y1^T E2 and
    E1 = (E2 W2^T) * (1 - Y1^2); each phrase's token counts times its row of
    E1 (of G for the linear map) go into its tokens' W1 rows.
    """
    if not out_grads:
        return
    d_w1, d_w2 = model.param_views(params, grad)
    bags = model.encode(list(out_grads), vocab)
    y1, y2 = model.project(bags, params)
    err = np.array(list(out_grads.values()))
    if params.arch == model.ARCH_NONLINEAR:
        err = err * (1.0 - y2 * y2)  # tanh'(z2) = 1 - y2^2
        d_w2 += y1.T @ err
        err = (err @ params.w2.T) * (1.0 - y1 * y1)
    rows = np.repeat(np.arange(len(out_grads)), np.diff(bags.starts))
    np.add.at(d_w1, bags.ids, bags.counts[:, None] * err[rows])


def full_gradient(
    samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, compiled: CompiledCorpus | None = None
) -> tuple[float, np.ndarray]:
    """Corpus loss (negative mean expected BLEU) and its gradient in ``pack_params`` layout.

    Phase 1 adds every sample's error terms into one dict in sample order;
    phase 2 adds ``sim_gradient`` of each unique pair into one dict, which
    ``backprop`` carries into one vector.  ``compiled``, the samples'
    ``compile_corpus``, is built here if not given.  The result matches the
    naive per-occurrence summation to floating-point accuracy.
    """
    samples = list(samples)
    compiled = compile_corpus(samples) if compiled is None else compiled
    lam = np.asarray(lam, dtype=np.float64)
    params = projected(compiled, params, vocab)
    totals = feature_matrix(compiled, pair_similarities(compiled, params, vocab), lam.size) @ lam
    total_delta = dict.fromkeys(compiled.pairs, 0.0)
    bounds = compiled.offsets.tolist()
    xbleus = [
        error_terms(sample, params, lam, vocab, total_delta, totals[a:b])
        for sample, a, b in zip(samples, bounds, bounds[1:])
    ]
    n = len(samples)
    out_grads = {}
    for pair, delta in total_delta.items():
        sim_gradient(pair.source, pair.target, params, vocab, out_grads, -delta / n)
    grad = np.zeros(params.size)
    backprop(out_grads, params, vocab, grad)
    return -math.fsum(xbleus) / n, grad


def corpus_xbleu(samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary) -> float:
    """Mean expected BLEU over the corpus: the negated ``full_gradient`` loss."""
    return -full_gradient(samples, params, lam, vocab)[0]


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
    samples = list(samples)
    compiled = compile_corpus(samples)

    def loss_at(vec: np.ndarray) -> float:
        return full_gradient(samples, model.unpack_params(params, vec), lam, vocab, compiled)[0]

    analytic = full_gradient(samples, params, lam, vocab, compiled)[1]
    numeric = finite_difference(loss_at, x0, step)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(rel.max())
