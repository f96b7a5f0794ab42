"""Feature matrix, softmax probabilities, expected BLEU, error terms, and the analytic gradient."""

import math

import numpy as np
import pytest

from semphrase import corpus, model, objective

from conftest import make_random_corpus, random_lambda


def _toy_setup(rng, arch=model.ARCH_NONLINEAR, sim_mode=None, word_level=False, **corpus_kw):
    samples = make_random_corpus(rng, **corpus_kw)
    vocab = corpus.build_vocabulary(samples)
    params = model.init_params(
        len(vocab), 4, 3, arch=arch, sim_mode=sim_mode, word_level=word_level,
        seed=int(rng.integers(0, 2**31)),
    )
    lam = random_lambda(rng)
    return samples, vocab, params, lam


def _entry(tokens, feats, derivation, sbleu=None):
    e = corpus.NBestEntry(tuple(tokens), np.asarray(feats, dtype=np.float64), derivation)
    e.sbleu = sbleu
    return e


def _uniform_sample(n_cand, sbleus=None):
    pair = corpus.PhrasePair(("f",), ("e",))
    cands = [
        _entry(("e",), [0.5, -0.5], [pair], None if sbleus is None else sbleus[i])
        for i in range(n_cand)
    ]
    return corpus.TrainingSample(0, ("f",), ("e",), cands)


class TestFeatureMatrix:
    def test_total_decomposition(self, rng):
        samples, vocab, params, lam = _toy_setup(rng)
        sample = samples[0]
        sims = objective.pair_similarities([sample], params, vocab)
        totals = objective.feature_matrix(sample, params, vocab, sims, lam.size) @ lam
        for entry, total in zip(sample.candidates, totals):
            expected = lam[:-1] @ entry.features + lam[-1] * objective.candidate_feature(entry, params, vocab)
            assert total == pytest.approx(expected, abs=1e-12)


class TestCandidateProbs:
    def test_identical_totals_give_uniform_probs(self):
        sample = _uniform_sample(4)
        vocab = corpus.build_vocabulary([sample])
        params = model.init_params(len(vocab), 3, 2, seed=0)
        probs = objective.candidate_probs(sample, params, np.array([1.0, 2.0, 1.0]), vocab)
        assert probs.tolist() == [0.25] * 4

    def test_shift_invariance(self, rng):
        samples, vocab, params, lam = _toy_setup(rng)
        lam[0] = 1.0
        for sample in samples:
            before = objective.candidate_probs(sample, params, lam, vocab)
            shift = float(rng.uniform(-50, 50))
            for entry in sample.candidates:
                entry.features = entry.features.copy()
                entry.features[0] += shift
            after = objective.candidate_probs(sample, params, lam, vocab)
            np.testing.assert_allclose(after, before, atol=1e-12)

    def test_probs_match_direct_normalization(self, rng):
        samples, vocab, params, lam = _toy_setup(rng)
        for sample in samples:
            probs = objective.candidate_probs(sample, params, lam, vocab)
            sims = objective.pair_similarities([sample], params, vocab)
            totals = objective.feature_matrix(sample, params, vocab, sims, lam.size) @ lam
            direct = np.exp(totals) / np.exp(totals).sum()
            np.testing.assert_allclose(probs, direct, atol=1e-12)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_feature_count_mismatch(self, rng):
        samples, vocab, params, _ = _toy_setup(rng)
        with pytest.raises(ValueError, match="baseline features"):
            objective.candidate_probs(samples[0], params, np.array([1.0, 1.0, 1.0, 1.0]), vocab)


class TestExpectedBleu:
    def test_single_candidate_equals_its_sbleu(self):
        sample = _uniform_sample(1, sbleus=[0.73])
        vocab = corpus.build_vocabulary([sample])
        params = model.init_params(len(vocab), 3, 2, seed=1)
        got = objective.expected_bleu(sample, params, np.array([1.0, 0.0, 1.0]), vocab)
        assert got == 0.73

    def test_constant_sbleu_is_fixed_point(self, rng):
        sample = _uniform_sample(5, sbleus=[0.4] * 5)
        vocab = corpus.build_vocabulary([sample])
        for seed in range(3):
            params = model.init_params(len(vocab), 3, 2, seed=seed)
            lam = random_lambda(rng)
            got = objective.expected_bleu(sample, params, lam, vocab)
            assert got == pytest.approx(0.4, abs=1e-15)

    def test_weighted_sum_oracle(self, rng):
        samples, vocab, params, lam = _toy_setup(rng)
        for sample in samples:
            probs = objective.candidate_probs(sample, params, lam, vocab)
            sbleus = np.array([e.sbleu for e in sample.candidates])
            assert objective.expected_bleu(sample, params, lam, vocab) == pytest.approx(
                float(probs @ sbleus), abs=1e-12
            )

    def test_bounded_by_sbleu_range(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=5)
        for sample in samples:
            xbleu = objective.expected_bleu(sample, params, lam, vocab)
            sbleus = [e.sbleu for e in sample.candidates]
            assert min(sbleus) - 1e-12 <= xbleu <= max(sbleus) + 1e-12

    def test_missing_sbleu_rejected(self):
        sample = _uniform_sample(2)
        vocab = corpus.build_vocabulary([sample])
        params = model.init_params(len(vocab), 2, 2, seed=0)
        with pytest.raises(ValueError, match="sentence BLEU"):
            objective.expected_bleu(sample, params, np.array([1.0, 0.0, 1.0]), vocab)


class TestErrorTerms:
    def test_single_candidate_all_zero(self):
        sample = _uniform_sample(1, sbleus=[0.6])
        vocab = corpus.build_vocabulary([sample])
        params = model.init_params(len(vocab), 3, 2, seed=2)
        deltas, xbleu = objective.error_terms(sample, params, np.array([1.0, 0.0, 1.0]), vocab)
        assert all(v == 0.0 for v in deltas.values())
        assert sample.candidates[0].sbleu - xbleu == 0.0

    def test_pair_in_every_candidate_sums_to_zero(self, rng):
        # A pair occurring exactly once per candidate picks up the full
        # sum of prob * (sbleu - xbleu), which is zero by construction.
        shared = corpus.PhrasePair(("f",), ("e",))
        cands = []
        for i in range(4):
            extra = corpus.PhrasePair(("g",), (f"x{i}",))
            cands.append(_entry(("e", f"x{i}"), [float(i), 0.0], [shared, extra], float(rng.uniform(0, 1))))
        sample = corpus.TrainingSample(0, ("f", "g"), ("e", "x0"), cands)
        vocab = corpus.build_vocabulary([sample])
        params = model.init_params(len(vocab), 3, 2, seed=3)
        deltas, _ = objective.error_terms(sample, params, np.array([1.0, 0.0, 0.7]), vocab)
        assert deltas[shared] == pytest.approx(0.0, abs=1e-12)

    def test_term_by_term_oracle(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=2)
        for sample in samples:
            probs = objective.candidate_probs(sample, params, lam, vocab)
            xbleu = objective.expected_bleu(sample, params, lam, vocab)
            deltas, _ = objective.error_terms(sample, params, lam, vocab)
            for pair, delta in deltas.items():
                expected = 0.0
                for entry, prob in zip(sample.candidates, probs):
                    count = sum(1 for p in entry.derivation if p == pair)
                    expected += (entry.sbleu - xbleu) * prob * lam[-1] * count
                assert delta == pytest.approx(expected, abs=1e-12)

    def test_centered_expectation_invariant(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=4)
        for sample in samples:
            _, xbleu = objective.error_terms(sample, params, lam, vocab)
            probs = objective.candidate_probs(sample, params, lam, vocab)
            sbleus = np.array([e.sbleu for e in sample.candidates])
            centered = math.fsum(probs * (sbleus - xbleu))
            assert abs(centered) <= 1e-12


class TestSimGradient:
    def test_identical_phrases_double_single_side(self):
        vocab = corpus.Vocabulary.from_tokens(("a", "b", "c"))
        params = model.init_params(3, 3, 2, seed=4)
        f = ("a", "b")
        trace = model.project(model.encode(f, vocab), params)
        e2 = trace.y2 * (1.0 - trace.y2 * trace.y2)
        single_w2 = np.outer(trace.y1, e2)
        e1 = (params.w2 @ e2) * (1.0 - trace.y1 * trace.y1)
        x = model.encode(f, vocab)
        single_w1 = np.zeros_like(params.w1)
        single_w1[x.indices] += x.counts[:, None] * e1[None, :]
        d_w1, d_w2 = model.param_views(params, objective.sim_gradient(f, f, params, vocab))
        np.testing.assert_allclose(d_w2, 2.0 * single_w2, atol=1e-14)
        np.testing.assert_allclose(d_w1, 2.0 * single_w1, atol=1e-14)

    def test_zero_w1_kills_w2_gradient(self):
        vocab = corpus.Vocabulary.from_tokens(("a", "b"))
        params = model.init_params(2, 3, 2, seed=5)
        params.w1[:] = 0.0
        _, d_w2 = model.param_views(params, objective.sim_gradient(("a",), ("b",), params, vocab))
        assert np.all(d_w2 == 0.0)

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("sim_mode", [model.SIM_DOT, model.SIM_COSINE])
    @pytest.mark.parametrize("word_level", [False, True])
    def test_matches_finite_differences(self, rng, arch, sim_mode, word_level):
        tokens = tuple(f"t{i}" for i in range(6))
        vocab = corpus.Vocabulary.from_tokens((corpus.UNK_TOKEN,) + tokens)
        params = model.init_params(
            len(vocab), 4, 3, arch=arch, sim_mode=sim_mode, word_level=word_level, seed=6
        )
        f = ("t0", "t1", "t2")
        e = ("t3", "t4")
        analytic = objective.sim_gradient(f, e, params, vocab)

        def sim_at(vec):
            return model.similarity(f, e, model.unpack_params(params, vec), vocab)

        numeric = objective.finite_difference(sim_at, model.pack_params(params), step=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() <= 1e-6


class TestFullGradient:
    def test_single_candidate_corpus_zero_gradient(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, max_candidates=1, n_samples=4)
        loss, grad = objective.full_gradient(samples, params, lam, vocab)
        assert np.max(np.abs(grad)) == 0.0

    def test_disabled_feature_zero_gradient(self, rng):
        samples, vocab, params, lam = _toy_setup(rng)
        lam[-1] = 0.0
        _, grad = objective.full_gradient(samples, params, lam, vocab)
        assert np.max(np.abs(grad)) == 0.0

    def test_matches_finite_differences(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=3, max_candidates=4)
        assert objective.gradient_check(samples, params, lam, vocab) <= 1e-5

    def test_two_phase_equals_naive_per_occurrence(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=4, max_candidates=4)
        _, grad = objective.full_gradient(samples, params, lam, vocab)

        naive = np.zeros(params.size)
        n = len(samples)
        for sample in samples:
            probs = objective.candidate_probs(sample, params, lam, vocab)
            xbleu = objective.expected_bleu(sample, params, lam, vocab)
            for entry, prob in zip(sample.candidates, probs):
                weight = -(entry.sbleu - xbleu) * prob * lam[-1] / n
                for pair in entry.derivation:
                    naive += weight * objective.sim_gradient(pair.source, pair.target, params, vocab)
        np.testing.assert_allclose(grad, naive, atol=1e-12)

    def test_phase_two_visits_each_unique_pair_once(self, rng, monkeypatch):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=4, max_candidates=4)
        calls = []
        real = objective.sim_gradient

        def counting(f_tokens, e_tokens, p, v):
            calls.append((f_tokens, e_tokens))
            return real(f_tokens, e_tokens, p, v)

        monkeypatch.setattr(objective, "sim_gradient", counting)
        objective.full_gradient(samples, params, lam, vocab)
        unique = corpus.collect_phrase_pairs(samples)
        assert len(calls) == len(unique)
        assert len(set(calls)) == len(calls)
        occurrences = sum(counts for counts in unique.values())
        assert len(calls) < occurrences or len(unique) == occurrences

    def test_repeated_calls_give_identical_bits(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=6, max_candidates=4)
        loss1, grad1 = objective.full_gradient(samples, params, lam, vocab)
        loss2, grad2 = objective.full_gradient(samples, params, lam, vocab)
        assert loss1 == loss2
        assert np.array_equal(grad1, grad2)

    def test_loss_is_negative_mean_xbleu(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=5)
        loss, _ = objective.full_gradient(samples, params, lam, vocab)
        mean_xbleu = objective.corpus_xbleu(samples, params, lam, vocab)
        assert loss == pytest.approx(-mean_xbleu, abs=1e-15)
