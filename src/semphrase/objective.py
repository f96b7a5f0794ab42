"""Expected-BLEU objective and its closed-form gradient.

The loss over a corpus is the negative mean, across samples, of the
expected sentence BLEU of the N-best list, where candidate probabilities
come from a softmax over log-linear scores that include the learned
phrase-similarity feature.

The gradient factors into two independent parts: a scalar error term per
phrase pair (how the loss moves with that pair's similarity score) and the
gradient of the similarity score itself with respect to the projection
matrices.  ``full_gradient`` exploits that separation.  One ``forward``
pass encodes and projects the distinct phrases (their distinct tokens, in
word-level mode) in one call each; phase 1 is one corpus pass
(``list_terms``) for every sample's softmax, expected BLEU and per-candidate
error terms, then ``error_terms`` adds each sample's terms, in sample,
candidate and occurrence order, into one dict keyed by unique phrase pair;
phase 2 calls ``sim_gradient`` exactly once per unique pair, adding the
gradient at both tower outputs into the pass's ``grads`` rows, which
``backprop`` carries back through the same pass (as DSSM, Huang et al.
2013, does).  So
phase 2 costs O(k) per unique pair plus one backward pass over the phrases.
In word-level mode the pass also keeps each pair's token similarity matrix,
built by whichever of ``pair_similarities`` and ``sim_gradient`` reaches the
pair first.

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

``score`` runs one ``forward`` pass too.  ``pair_similarities`` scores the
pass's rows with ``model.row_similarities``, the rule ``model.similarity``
applies to one pair, one BLAS dot per pair;
``backprop``'s matrix products go through BLAS, so the gradient's bits are
fixed for a given numpy/BLAS build and BLAS thread count.  ``corpus_xbleu``
is the negated ``full_gradient`` loss.
The labels, each candidate's ``bleu_stats`` row and sentence BLEU, are
computed when a sample is built and stacked once by ``compile_corpus``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import NamedTuple

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
    phrase_id = defaultdict(count().__next__)  # source before target, at first occurrence
    phrases = chain.from_iterable(pair_id)
    pair_rows = np.fromiter(map(phrase_id.__getitem__, phrases), dtype=np.intp, count=2 * len(pair_id))
    try:
        features = np.array([entry.features for entry in entries], dtype=np.float64)
    except ValueError:
        raise ValueError("candidates differ in their number of baseline features") from None
    return CompiledCorpus(
        tuple(pair_id),
        tuple(phrase_id),
        pair_rows.reshape(-1, 2),
        occ_pair,
        np.repeat(np.arange(len(entries)), lengths),
        np.cumsum([0] + [len(sample.candidates) for sample in samples]),
        features,
        np.concatenate([sample.stats for sample in samples]),
        np.concatenate([sample.sbleus for sample in samples]),
    )


class Forward(NamedTuple):
    """One forward pass over distinct keys; key ``k`` owns row ``rows[k]`` of the bags and of each array."""

    rows: dict
    bags: model.Bags
    y1: np.ndarray | None  # hidden layer, None for the linear map
    out: np.ndarray  # output rows
    grads: np.ndarray  # the gradient at each output row, which phase 2 adds into
    grids: dict  # word level: each scored pair's ``_token_grid``, built once per pass


def forward(keys, params: ModelParams, vocab: Vocabulary) -> Forward:
    """One ``model.project`` call over the distinct phrases ``keys``, numbered in first-occurrence order.

    In word-level mode the keys are their distinct tokens, as one-token phrases.
    """
    if params.word_level:
        keys = ((token,) for phrase in keys for token in phrase)
    rows = {key: row for row, key in enumerate(dict.fromkeys(map(tuple, keys)))}
    bags = model.encode(list(rows), vocab)
    y1, out = model.project(bags, params)
    return Forward(rows, bags, y1, out, np.zeros_like(out), {})


def _token_grid(fw: Forward, f_tokens, e_tokens, sim_mode: str):
    """Word level: the rows of a pair's source and target tokens in ``fw``, and their token similarity matrix.

    The first call for a pair builds them and keeps them in ``fw.grids``, so
    scoring a pair and its gradient share one matrix per pass.
    """
    key = (tuple(f_tokens), tuple(e_tokens))
    grid = fw.grids.get(key)
    if grid is None:
        f, e = ([fw.rows[(token,)] for token in phrase] for phrase in key)
        grid = fw.grids[key] = f, e, model.token_similarity_matrix(fw.out[f], fw.out[e], sim_mode)
    return grid


def pair_similarities(compiled: CompiledCorpus, params: ModelParams, fw: Forward) -> np.ndarray:
    """The (P,) similarities of ``compiled.pairs`` from ``fw``, the ``forward`` pass over ``compiled.phrases``.

    ``model.row_similarities`` scores the pairs' rows ``SIM_BLOCK`` pairs at
    a time, or in word-level mode ``model.word_similarity`` each pair's token
    rows: each pair gets the bits ``model.similarity`` gives it.
    """
    if params.word_level:
        return np.array([model.word_similarity(_token_grid(fw, *p, params.sim_mode)[2]) for p in compiled.pairs])
    sims = np.empty(len(compiled.pairs))
    for start in range(0, sims.size, SIM_BLOCK):
        f, e = compiled.pair_rows[start : start + SIM_BLOCK].T
        sims[start : start + SIM_BLOCK] = model.row_similarities(fw.out[f], fw.out[e], params.sim_mode)
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
    sims = pair_similarities(compiled, params, forward(compiled.phrases, params, vocab))
    return compiled, feature_matrix(compiled, sims, n_weights)


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


def list_terms(compiled: CompiledCorpus, totals: np.ndarray, lam: np.ndarray) -> tuple[list, list]:
    """Phase 1 over the whole corpus: each sample's expected BLEU and each candidate's error term.

    ``totals`` are the corpus's ``H @ lam``.  Every sample's softmax, expected
    BLEU and terms lam[-1] * prob * (sbleu - xbleu) come from one numpy pass
    each, with ``math.fsum`` over each sample's slice for the two sums, so
    every value has the bits ``candidate_probs`` and ``expected_bleu`` give
    it.  Returns the per-sample xBLEUs and the per-candidate terms, as lists.
    """
    lengths = np.diff(compiled.offsets)
    bounds = compiled.offsets.tolist()
    spans = list(zip(bounds, bounds[1:]))
    exps = np.exp(totals - np.repeat(np.maximum.reduceat(totals, compiled.offsets[:-1]), lengths))
    flat = exps.tolist()
    probs = exps / np.repeat([math.fsum(flat[a:b]) for a, b in spans], lengths)
    flat = (probs * compiled.sbleus).tolist()
    xbleus = [math.fsum(flat[a:b]) for a, b in spans]
    terms = float(lam[-1]) * (probs * (compiled.sbleus - np.repeat(xbleus, lengths)))
    return xbleus, terms.tolist()


def error_terms(
    sample: TrainingSample, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, deltas, terms=None
) -> float:
    """Add how the sample's expected BLEU moves with each phrase pair's similarity into ``deltas``.

    Each occurrence of a pair in a candidate's derivation adds the candidate's
    term, the feature weight times prob * (sbleu - xbleu), to ``deltas[pair]``,
    in candidate and occurrence order.  ``terms`` is the sample's xbleu and
    its candidates' terms from ``list_terms``; without it, ``list_terms`` runs
    on the sample alone.  Returns ``xbleu``, the sample's expected BLEU.
    """
    if terms is None:
        lam = np.asarray(lam, dtype=np.float64)
        compiled, h = score([sample], params, vocab, lam.size)
        xbleus, flat = list_terms(compiled, h @ lam, lam)
        terms = xbleus[0], flat
    xbleu, flat = terms
    for entry, term in zip(sample.candidates, flat):
        for pair in entry.derivation:
            deltas[pair] = deltas.get(pair, 0.0) + term
    return xbleu


def _add_output_grads(fw: Forward, i: int, j: int, sim_mode: str, coeff: float) -> None:
    u, v = fw.out[i], fw.out[j]
    if sim_mode == model.SIM_DOT:
        g_u, g_v = v, u
    else:
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if nu == 0.0 or nv == 0.0:
            return  # similarity pinned to 0, no gradient flows
        dot, inv = float(u @ v), 1.0 / (nu * nv)
        g_u = v * inv - (dot * inv / (nu * nu)) * u
        g_v = u * inv - (dot * inv / (nv * nv)) * v
    fw.grads[i] += coeff * g_u
    fw.grads[j] += coeff * g_v


def sim_gradient(f_tokens, e_tokens, params: ModelParams, vocab: Vocabulary, fw: Forward, coeff: float) -> None:
    """Add ``coeff`` times the pair's similarity gradient at the tower outputs into ``fw.grads``.

    ``fw`` is a ``forward`` pass holding both phrases (their tokens, in
    word-level mode), so ``vocab`` goes unused.  A cosine pair with a
    zero-norm side adds nothing.  In word-level mode the max over tokens is a
    subgradient: gradient flows only through the argmax token pair, first
    index on ties, into one-token rows.
    """
    if not params.word_level:
        _add_output_grads(fw, fw.rows[tuple(f_tokens)], fw.rows[tuple(e_tokens)], params.sim_mode, coeff)
        return
    f, e, sims = _token_grid(fw, f_tokens, e_tokens, params.sim_mode)
    best = [((i, j), 0.5 / len(f)) for i, j in enumerate(sims.argmax(axis=1).tolist())]  # first index on ties
    best += [((i, j), 0.5 / len(e)) for j, i in enumerate(sims.argmax(axis=0).tolist())]
    coeffs: dict[tuple[int, int], float] = {}
    for ij, weight in best:
        coeffs[ij] = coeffs.get(ij, 0.0) + weight
    for (i, j), weight in coeffs.items():
        _add_output_grads(fw, f[i], e[j], params.sim_mode, coeff * weight)


def backprop(fw: Forward, params: ModelParams, grad: np.ndarray) -> None:
    """Backpropagate ``fw.grads`` through the forward pass ``fw``, adding into the ``pack_params`` vector ``grad``.

    With Y1 and Y2 the pass's hidden and output rows and G its ``grads``,
    E2 = G * (1 - Y2^2), dW2 += Y1^T E2 and E1 = (E2 W2^T) * (1 - Y1^2);
    each key's token counts times its row of E1 (of G for the linear map)
    go into its tokens' W1 rows.  It neither encodes nor projects.
    """
    d_w1, d_w2 = model.param_views(params, grad)
    err = fw.grads
    if params.arch == model.ARCH_NONLINEAR:
        err = err * (1.0 - fw.out * fw.out)  # tanh'(z2) = 1 - y2^2
        d_w2 += fw.y1.T @ err
        err = (err @ params.w2.T) * (1.0 - fw.y1 * fw.y1)
    np.add.at(d_w1, fw.bags.ids, fw.bags.counts[:, None] * np.repeat(err, np.diff(fw.bags.starts), axis=0))


def full_gradient(
    samples, params: ModelParams, lam: np.ndarray, vocab: Vocabulary, compiled: CompiledCorpus | None = None
) -> tuple[float, np.ndarray]:
    """Corpus loss (negative mean expected BLEU) and its gradient in ``pack_params`` layout.

    One ``forward`` pass projects the distinct phrases; phase 1 computes every
    sample's expected BLEU and error terms in one ``list_terms`` pass, then
    ``error_terms`` adds each sample's terms into one dict in sample order;
    phase 2 adds ``sim_gradient`` of each unique pair into the pass's
    ``grads``, which ``backprop`` carries back through the same pass into one
    vector.
    ``compiled``, the samples' ``compile_corpus``, is built here if not
    given.  The result matches the naive per-occurrence summation to
    floating-point accuracy.
    """
    samples = list(samples)
    compiled = compile_corpus(samples) if compiled is None else compiled
    lam = np.asarray(lam, dtype=np.float64)
    fw = forward(compiled.phrases, params, vocab)
    totals = feature_matrix(compiled, pair_similarities(compiled, params, fw), lam.size) @ lam
    total_delta = dict.fromkeys(compiled.pairs, 0.0)
    xbleus, terms = list_terms(compiled, totals, lam)
    bounds = compiled.offsets.tolist()
    for sample, xbleu, a, b in zip(samples, xbleus, bounds, bounds[1:]):
        error_terms(sample, params, lam, vocab, total_delta, (xbleu, terms[a:b]))
    n = len(samples)
    for pair, delta in total_delta.items():
        sim_gradient(pair.source, pair.target, params, vocab, fw, -delta / n)
    grad = np.zeros(params.size)
    backprop(fw, params, grad)
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
