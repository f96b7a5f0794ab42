"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The synthetic task is fixed (5 concepts, 200 sentences,
8 candidates per list, noise 0.3) and all seeds are pinned, so every number
here is reproducible.
"""

import itertools
import math
import time

import numpy as np
import pytest

from semphrase import bleu, cli, corpus, model, objective, rerank, synth, trainer

from bleu_reference import ref_corpus_bleu, ref_sentence_bleu
from conftest import make_random_corpus, pair_gradient, random_lambda

TRAIN_SPEC = synth.SynthSpec(
    concepts=5,
    phrases_per_concept=3,
    sentences=200,
    phrases_per_sentence=4,
    candidates=8,
    noise=0.3,
    seed=7,
)
HELDOUT_SEEDS = (101, 102, 103, 104, 105)
CANONICAL_HELDOUT = HELDOUT_SEEDS[0]
ONE_BLEU_POINT = 0.01  # corpus BLEU is reported in [0, 1]
VARIANT_SLACK = 0.002  # 0.2 BLEU points


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def _heldout(seed):
    samples, _ = synth.generate(
        synth.SynthSpec(
            concepts=TRAIN_SPEC.concepts,
            phrases_per_concept=TRAIN_SPEC.phrases_per_concept,
            sentences=TRAIN_SPEC.sentences,
            phrases_per_sentence=TRAIN_SPEC.phrases_per_sentence,
            candidates=TRAIN_SPEC.candidates,
            noise=TRAIN_SPEC.noise,
            seed=seed,
        )
    )
    return corpus.dedupe_candidates(samples)


@pytest.fixture(scope="module")
def train_corpus():
    samples, lam = synth.generate(TRAIN_SPEC)
    return corpus.dedupe_candidates(samples), lam


@pytest.fixture(scope="module")
def nonlinear_run(train_corpus):
    samples, lam = train_corpus
    config = trainer.TrainConfig(max_iterations=100, seed=3, timing=False)
    start = time.perf_counter()
    result = trainer.train(samples, config, lam)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def linear_run(train_corpus):
    samples, lam = train_corpus
    config = trainer.TrainConfig(max_iterations=100, seed=3, arch=model.ARCH_LINEAR, timing=False)
    result = trainer.train(samples, config, lam)
    return result


def test_criterion_1_gradient_matches_finite_differences():
    """Analytic corpus gradient vs central differences on >= 20 toy configs."""
    rng = np.random.default_rng(1001)
    variants = itertools.cycle(
        [
            (model.ARCH_NONLINEAR, model.SIM_DOT, False),
            (model.ARCH_NONLINEAR, model.SIM_DOT, True),
            (model.ARCH_NONLINEAR, model.SIM_COSINE, False),
            (model.ARCH_LINEAR, model.SIM_COSINE, False),
            (model.ARCH_LINEAR, model.SIM_DOT, True),
        ]
    )
    start = time.perf_counter()
    worst = 0.0
    n_configs = 20
    for i in range(n_configs):
        arch, sim_mode, word_level = next(variants)
        samples = make_random_corpus(
            rng,
            n_samples=int(rng.integers(1, 5)),
            max_candidates=4,
            n_tokens=int(rng.integers(4, 10)),  # vocabulary size stays <= 10
            max_pairs=3,
        )
        vocab = corpus.build_vocabulary(samples)
        assert len(vocab) <= 10
        k1 = int(rng.integers(2, 5))
        k2 = int(rng.integers(2, 5))
        params = model.init_params(
            len(vocab), k1, k2, arch=arch, sim_mode=sim_mode, word_level=word_level,
            seed=int(rng.integers(0, 2**31)),
        )
        lam = random_lambda(rng)
        err = objective.gradient_check(samples, params, lam, vocab, step=1e-5)
        worst = max(worst, err)
        assert err <= 1e-5, f"config {i} ({arch}/{sim_mode}/wl={word_level}): rel err {err:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"{n_configs} toy configs, max relative error {worst:.3e} <= 1e-5, {elapsed:.1f}s")


def test_criterion_2_softmax_and_expectation_invariants():
    """Probability normalization, centering, bounds, and shift invariance."""
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    n_instances = 1000
    params = None
    for i in range(n_instances):
        if i % 100 == 0:
            tokens = int(rng.integers(4, 9))
            samples_pool = make_random_corpus(rng, n_samples=1, max_candidates=6, n_tokens=tokens)
            vocab = corpus.build_vocabulary(samples_pool)
            params = model.init_params(
                len(vocab), 3, 2, seed=int(rng.integers(0, 2**31))
            )
        sample = make_random_corpus(
            rng, n_samples=1, max_candidates=6, n_tokens=len(vocab) - 1
        )[0]
        lam = random_lambda(rng)
        lam[0] = 1.0
        probs = objective.candidate_probs(sample, params, lam, vocab)
        assert abs(math.fsum(probs) - 1.0) <= 1e-12
        assert all(0.0 <= p <= 1.0 for p in probs)

        sbleus = sample.sbleus
        xbleu = objective.expected_bleu(sample, params, lam, vocab)
        assert min(sbleus) - 1e-12 <= xbleu <= max(sbleus) + 1e-12

        centered = math.fsum(p * (s - xbleu) for p, s in zip(probs, sbleus))
        assert abs(centered) <= 1e-12

        offset = float(rng.uniform(-50.0, 50.0))
        for entry in sample.candidates:
            entry.features = entry.features.copy()
            entry.features[0] += offset
        shifted = objective.candidate_probs(sample, params, lam, vocab)
        assert max(abs(a - b) for a, b in zip(probs, shifted)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"{n_instances} random instances, all invariants within 1e-12, {elapsed:.1f}s")


def test_criterion_3_two_phase_gradient_separability(monkeypatch):
    """Two-phase assembly == naive per-occurrence sum; one sim-gradient call per unique pair."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    total_unique = 0
    total_occurrences = 0
    for trial in range(5):
        samples = make_random_corpus(rng, n_samples=5, max_candidates=4, n_tokens=4, max_pairs=3)
        vocab = corpus.build_vocabulary(samples)
        params = model.init_params(len(vocab), 3, 3, seed=trial)
        lam = random_lambda(rng)

        calls = []
        real = objective.sim_gradient

        def counting(f_tokens, e_tokens, p, v, out_grads, coeff):
            calls.append((f_tokens, e_tokens))
            return real(f_tokens, e_tokens, p, v, out_grads, coeff)

        monkeypatch.setattr(objective, "sim_gradient", counting)
        _, two_phase = objective.full_gradient(samples, params, lam, vocab)
        monkeypatch.setattr(objective, "sim_gradient", real)

        unique = corpus.collect_phrase_pairs(samples)
        total_unique += len(unique)
        total_occurrences += sum(unique.values())
        assert len(calls) == len(unique)

        naive = np.zeros(params.size)
        n = len(samples)
        for sample in samples:
            probs = objective.candidate_probs(sample, params, lam, vocab)
            xbleu = objective.expected_bleu(sample, params, lam, vocab)
            for entry, prob, sbleu in zip(sample.candidates, probs, sample.sbleus):
                weight = -(sbleu - xbleu) * prob * lam[-1] / n
                for pair in entry.derivation:
                    naive += weight * pair_gradient(pair.source, pair.target, params, vocab)
        gap = float(np.max(np.abs(two_phase - naive)))
        worst = max(worst, gap)
        assert gap <= 1e-12
    assert total_occurrences > total_unique  # the corpora genuinely repeat pairs
    report(
        3,
        f"5 random corpora, two-phase vs naive max gap {worst:.2e} <= 1e-12; "
        f"{total_unique} unique-pair gradient calls for {total_occurrences} occurrences",
    )


def test_criterion_4_smooth_batch_training(nonlinear_run):
    """Monotone loss under batch optimization and a real expected-BLEU gain."""
    result, elapsed = nonlinear_run
    losses = [r.loss for r in result.log.rows]
    assert all(b <= a for a, b in zip(losses, losses[1:])), "loss sequence must be non-increasing"
    gain = result.log.rows[-1].xbleu - result.log.rows[0].xbleu
    assert gain >= 0.05
    assert elapsed < 180.0
    report(
        4,
        f"loss monotone over {result.log.rows[-1].iteration} iterations, "
        f"xbleu {result.log.rows[0].xbleu:.4f} -> {result.log.rows[-1].xbleu:.4f} "
        f"(gain {gain:.4f} >= 0.05), {elapsed:.0f}s",
    )


def test_criterion_5_heldout_reranking_gain(nonlinear_run, train_corpus):
    """Reranking beats the baseline selection on held-out data, on every seed."""
    result, _ = nonlinear_run
    _, lam = train_corpus
    gains = {}
    for seed in HELDOUT_SEEDS:
        scored = rerank.rerank(_heldout(seed), result.params, lam, result.vocab)
        gains[seed] = scored.reranked_bleu - scored.baseline_bleu
        assert scored.reranked_bleu >= scored.baseline_bleu, f"seed {seed} fell below baseline"
    assert gains[CANONICAL_HELDOUT] >= ONE_BLEU_POINT
    summary = ", ".join(f"{s}:{g * 100:+.1f}" for s, g in gains.items())
    report(5, f"held-out gain (BLEU points x100) {summary}; all >= 0, canonical >= 1 point")


def test_criterion_6_nonlinear_vs_linear_ordering(nonlinear_run, linear_run, train_corpus):
    """Nonlinear/dot model scores at least as well as linear/cosine, with slack."""
    nl_result, _ = nonlinear_run
    _, lam = train_corpus
    held = _heldout(CANONICAL_HELDOUT)
    nl = rerank.rerank(held, nl_result.params, lam, nl_result.vocab).reranked_bleu
    lin = rerank.rerank(held, linear_run.params, lam, linear_run.vocab).reranked_bleu
    assert nl >= lin - VARIANT_SLACK
    report(
        6,
        f"held-out reranked BLEU nonlinear {nl:.4f} vs linear {lin:.4f} "
        f"(slack {VARIANT_SLACK}); ordering holds",
    )


def test_criterion_7_bleu_matches_independent_oracle():
    """Sentence and corpus BLEU agree with the independently written script."""
    rng = np.random.default_rng(1007)
    tokens = [f"w{i}" for i in range(9)]

    def sentence(lo=1, hi=11):
        return tuple(tokens[int(rng.integers(0, len(tokens)))] for _ in range(int(rng.integers(lo, hi))))

    pairs = [(sentence(), sentence()) for _ in range(100)]
    worst = 0.0
    for ref, cand in pairs:
        gap = abs(bleu.sentence_bleu(ref, cand) - ref_sentence_bleu(ref, cand))
        worst = max(worst, gap)
        assert gap <= 1e-12
    corpus_pairs = [(sentence(4, 11), sentence(4, 11)) for _ in range(100)]
    corpus_gap = abs(bleu.corpus_bleu(corpus_pairs) - ref_corpus_bleu(corpus_pairs))
    worst = max(worst, corpus_gap)
    assert corpus_gap <= 1e-12
    report(7, f"100 sentence pairs + corpus aggregate, max gap {worst:.2e} <= 1e-12")


def test_criterion_8_bytewise_reproducibility(tmp_path):
    """Same seed and config give byte-identical models, logs, and rerank output."""
    data = tmp_path / "data"
    assert cli.main(["synthgen", "--out-dir", str(data), "--sentences", "40", "--seed", "6"]) == 0

    def train_once(tag, threads):
        out = tmp_path / f"model-{tag}.bin"
        log = tmp_path / f"train-{tag}.tsv"
        code = cli.main(
            [
                "train",
                "--nbest", str(data / "nbest.txt"),
                "--refs", str(data / "refs.txt"),
                "--weights", str(data / "lambda.txt"),
                "--out-model", str(out),
                "--log", str(log),
                "--iters", "10", "--k1", "10", "--k2", "10", "--seed", "2",
                "--threads", str(threads), "--no-timing",
            ]
        )
        assert code == 0
        return out.read_bytes(), log.read_bytes(), out

    m1, l1, model_path = train_once("a", 1)
    m2, l2, _ = train_once("b", 1)
    m3, l3, _ = train_once("c", 3)
    assert m1 == m2 == m3, "model files must be byte-identical across runs and thread counts"
    assert l1 == l2 == l3, "training logs must be byte-identical across runs and thread counts"

    def rerank_once(tag, threads):
        out = tmp_path / f"chosen-{tag}.txt"
        code = cli.main(
            [
                "rerank",
                "--nbest", str(data / "nbest.txt"),
                "--refs", str(data / "refs.txt"),
                "--model", str(model_path),
                "--vocab", str(model_path) + ".vocab",
                "--weights", str(data / "lambda.txt"),
                "--output", str(out),
                "--threads", str(threads),
            ]
        )
        assert code == 0
        return out.read_bytes()

    assert rerank_once("a", 1) == rerank_once("b", 4)

    # with wall-clock timing on, the numeric columns still reproduce exactly
    def numeric_rows(tag):
        out = tmp_path / f"model-t{tag}.bin"
        log = tmp_path / f"train-t{tag}.tsv"
        code = cli.main(
            [
                "train",
                "--nbest", str(data / "nbest.txt"),
                "--refs", str(data / "refs.txt"),
                "--weights", str(data / "lambda.txt"),
                "--out-model", str(out),
                "--log", str(log),
                "--iters", "5", "--k1", "10", "--k2", "10", "--seed", "2",
            ]
        )
        assert code == 0
        rows = [line.split("\t")[:4] for line in log.read_text().splitlines()[1:]]
        return rows

    assert numeric_rows("a") == numeric_rows("b")
    report(8, "model files, logs, and rerank output byte-identical across runs and --threads")
