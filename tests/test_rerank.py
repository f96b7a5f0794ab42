"""Candidate selection and reranking diagnostics."""

import numpy as np
import pytest

from semphrase import bleu, corpus, model, objective, rerank, synth, trainer

from conftest import make_random_corpus, make_tied_corpus, random_lambda


def _setup(rng, **kw):
    samples = make_random_corpus(rng, **kw)
    vocab = corpus.build_vocabulary(samples)
    params = model.init_params(len(vocab), 4, 3, seed=21)
    return samples, vocab, params


class TestRerank:
    def test_disabled_feature_matches_baseline(self, rng):
        samples, vocab, params = _setup(rng, n_samples=6)
        lam = random_lambda(rng)
        lam[-1] = 0.0
        result = rerank.rerank(samples, params, lam, vocab)
        assert result.reranked_bleu == result.baseline_bleu
        for sample, sel in zip(samples, result.selections):
            bases = [float(lam[:-1] @ e.features) for e in sample.candidates]
            assert sel.index == int(np.argmax(bases))

    def test_single_candidate_chooses_it(self, rng):
        samples, vocab, params = _setup(rng, n_samples=5, max_candidates=1)
        result = rerank.rerank(samples, params, random_lambda(rng), vocab)
        assert all(sel.index == 0 for sel in result.selections)
        assert result.reranked_bleu == result.baseline_bleu == result.oracle_best_bleu

    def test_selection_is_exhaustive_argmax(self, rng):
        samples, vocab, params = _setup(rng, n_samples=8)
        lam = random_lambda(rng)
        result = rerank.rerank(samples, params, lam, vocab)
        for sample, sel in zip(samples, result.selections):
            totals = [
                float(lam[:-1] @ e.features)
                + lam[-1] * objective.candidate_feature(e, params, vocab)
                for e in sample.candidates
            ]
            best = max(totals)
            assert totals[sel.index] == pytest.approx(best, abs=1e-12)
            # ties break to the lowest index
            first = next(i for i, t in enumerate(totals) if t == pytest.approx(best, abs=1e-12))
            assert sel.index == first

    def test_positive_scaling_invariance(self, rng):
        samples, vocab, params = _setup(rng, n_samples=6)
        lam = random_lambda(rng)
        r1 = rerank.rerank(samples, params, lam, vocab)
        r2 = rerank.rerank(samples, params, 2.5 * lam, vocab)
        assert [s.index for s in r1.selections] == [s.index for s in r2.selections]

    def test_constant_offset_invariance(self, rng):
        samples, vocab, params = _setup(rng, n_samples=4)
        lam = random_lambda(rng)
        lam[0] = 1.0
        before = [s.index for s in rerank.rerank(samples, params, lam, vocab).selections]
        for sample in samples:
            for entry in sample.candidates:
                entry.features = entry.features.copy()
                entry.features[0] += 3.25
        after = [s.index for s in rerank.rerank(samples, params, lam, vocab).selections]
        assert after == before

    def test_zero_model_matches_disabled_feature(self, rng):
        samples, vocab, _ = _setup(rng, n_samples=6)
        lam = random_lambda(rng)
        zero = model.ModelParams(
            np.zeros((len(vocab), 3)), np.zeros((3, 2)), sim_mode=model.SIM_DOT
        )
        with_zero_model = rerank.rerank(samples, zero, lam, vocab)
        lam_off = lam.copy()
        lam_off[-1] = 0.0
        params = model.init_params(len(vocab), 3, 2, seed=1)
        with_feature_off = rerank.rerank(samples, params, lam_off, vocab)
        assert [s.index for s in with_zero_model.selections] == [
            s.index for s in with_feature_off.selections
        ]

    def test_oracle_bounds_hold(self, rng):
        samples, vocab, params = _setup(rng, n_samples=8)
        result = rerank.rerank(samples, params, random_lambda(rng), vocab)
        assert result.oracle_worst_bleu <= result.reranked_bleu <= result.oracle_best_bleu
        assert result.oracle_worst_bleu <= result.baseline_bleu <= result.oracle_best_bleu

    def test_trained_model_beats_baseline_on_planted_task(self):
        spec = synth.SynthSpec(
            concepts=4, phrases_per_concept=2, sentences=40,
            phrases_per_sentence=3, candidates=6, noise=0.35, seed=23,
        )
        samples, lam = synth.generate(spec)
        samples = corpus.dedupe_candidates(samples)
        config = trainer.TrainConfig(max_iterations=30, k1=10, k2=10, seed=2, timing=False)
        result = trainer.train(samples, config, lam)
        scored = rerank.rerank(samples, result.params, lam, result.vocab)
        assert scored.reranked_bleu >= scored.baseline_bleu

    def test_feature_count_mismatch(self, rng):
        samples, vocab, params = _setup(rng)
        with pytest.raises(ValueError, match="baseline features"):
            rerank.rerank(samples, params, np.ones(5), vocab)


def _picks(sample, params, vocab, lam):
    """Reranked, baseline, oracle-best and oracle-worst candidate indices, computed independently."""
    totals = [
        float(lam[:-1] @ e.features) + lam[-1] * objective.candidate_feature(e, params, vocab)
        for e in sample.candidates
    ]
    bases = [float(lam[:-1] @ e.features) for e in sample.candidates]
    sbleus = [bleu.sentence_bleu(sample.reference, e.tokens) for e in sample.candidates]
    return int(np.argmax(totals)), int(np.argmax(bases)), int(np.argmax(sbleus)), int(np.argmin(sbleus))


def _per_sample_rerank(samples, bounds, h, lam):
    """Selections and the four BLEUs with one ``argmax``/``argmin`` per sample: the oracle of the padded picks.

    Sample s owns rows ``bounds[s]:bounds[s + 1]`` of the corpus's feature matrix ``h``.
    """
    totals, bases = h @ lam, h[:, :-1] @ lam[:-1]
    selections, picked_rows = [], []
    for sample, a, b in zip(samples, bounds, bounds[1:]):
        idx = a + int(np.argmax(totals[a:b]))
        selections.append(rerank.Selection(sample.sample_id, idx - a, float(totals[idx]), float(h[idx, -1])))
        picks = (idx - a, int(np.argmax(bases[a:b])), int(np.argmax(sample.sbleus)), int(np.argmin(sample.sbleus)))
        picked_rows.append(sample.stats[list(picks)])
    return selections, bleu.corpus_bleu_rows(np.sum(picked_rows, axis=0)).tolist()


def _tied(values, pick):
    """Whether ``pick`` (``np.max`` or ``np.min``) of ``values`` is reached more than once."""
    return int(np.count_nonzero(values == pick(values)) > 1)


class TestRerankBleu:
    def test_four_values_equal_corpus_bleu_of_each_selection(self, rng):
        for _ in range(20):
            samples, vocab, params = _setup(rng, n_samples=int(rng.integers(1, 9)), max_candidates=5)
            lam = random_lambda(rng)
            result = rerank.rerank(samples, params, lam, vocab)
            picks = [_picks(s, params, vocab, lam) for s in samples]
            assert [sel.index for sel in result.selections] == [p[0] for p in picks]
            got = [result.reranked_bleu, result.baseline_bleu, result.oracle_best_bleu, result.oracle_worst_bleu]
            for k, value in enumerate(got):
                pairs = [(s.reference, s.candidates[p[k]].tokens) for s, p in zip(samples, picks)]
                assert value == bleu.corpus_bleu(pairs)

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("sim_mode", [model.SIM_DOT, model.SIM_COSINE])
    @pytest.mark.parametrize("word_level", [False, True])
    def test_selections_match_picks_with_exact_ties(self, rng, arch, sim_mode, word_level):
        samples = make_random_corpus(rng, n_samples=8, max_candidates=5)
        # Similarity is symmetric, so [ a # b ] and [ b # a ] tie exactly; the first of them must win.
        ab, ba = corpus.PhrasePair(("t0",), ("t1", "t2")), corpus.PhrasePair(("t1", "t2"), ("t0",))
        twice = corpus.PhrasePair(("t3",), ("t3",))
        candidates = [
            corpus.NBestEntry(("t0",), np.array([-50.0, 0.0]), [ba]),
            corpus.NBestEntry(("t1", "t2", "t3", "t3"), np.array([0.5, 0.25]), [ab, twice, twice]),
            corpus.NBestEntry(("t0", "t3", "t3"), np.array([0.5, 0.25]), [ba, twice, twice]),
        ]
        for position in (0, 4, len(samples)):
            samples.insert(position, corpus.TrainingSample(100 + position, ("t0", "t3"), ("t1", "t2"), candidates))
        vocab = corpus.build_vocabulary(samples)
        params = model.init_params(len(vocab), 4, 3, arch=arch, sim_mode=sim_mode, word_level=word_level, seed=22)
        lam = np.array([1.0, 0.5, 0.8])
        result = rerank.rerank(samples, params, lam, vocab)
        assert [sel.index for sel in result.selections] == [_picks(s, params, vocab, lam)[0] for s in samples]
        assert [sel.index for sel in result.selections if sel.sample_id >= 100] == [1, 1, 1]

    @pytest.mark.parametrize("zero_model", [False, True])
    def test_padded_picks_match_a_per_sample_loop(self, zero_model):
        rng = np.random.default_rng(11 + zero_model)
        ties = np.zeros(4, dtype=int)
        for _ in range(30):
            samples, vocab, params = make_tied_corpus(rng, zero_model)
            lam = rng.integers(-2, 3, size=samples[0].candidates[0].features.size + 1).astype(np.float64)
            result = rerank.rerank(samples, params, lam, vocab)
            compiled, h = objective.score(samples, params, vocab, lam.size)
            bounds = compiled.offsets.tolist()
            selections, bleus = _per_sample_rerank(samples, bounds, h, lam)
            fields = [(s.sample_id, s.index, s.total.hex(), s.feature.hex()) for s in result.selections]
            assert fields == [(s.sample_id, s.index, s.total.hex(), s.feature.hex()) for s in selections]
            assert all(type(s.index) is int and type(s.total) is float for s in result.selections)
            got = [result.reranked_bleu, result.baseline_bleu, result.oracle_best_bleu, result.oracle_worst_bleu]
            assert [v.hex() for v in got] == [v.hex() for v in bleus]
            for sample, a, b in zip(samples, bounds, bounds[1:]):
                ties += [_tied(h[a:b] @ lam, np.max), _tied(h[a:b, :-1] @ lam[:-1], np.max),
                         _tied(sample.sbleus, np.max), _tied(sample.sbleus, np.min)]
        assert ties.min() > 5  # every pick met ties

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_weight_that_is_not_finite_is_refused(self, rng, bad):
        samples, vocab, params = _setup(rng, n_samples=4)
        with pytest.raises(ValueError, match=rf"weights must be finite, got \[0\.5, {bad}, 1\.0\]"):
            rerank.rerank(samples, params, np.array([0.5, bad, 1.0]), vocab)

    def test_rerank_and_tune_lambda_make_no_stats_call(self, rng, monkeypatch):
        samples, vocab, params = _setup(rng, n_samples=8, max_candidates=3)
        lam = random_lambda(rng)
        reranked = rerank.rerank(samples, params, lam, vocab)
        tuned = trainer.tune_lambda(samples, params, vocab, lam)

        def refuse(reference, candidate):
            raise AssertionError("BLEU statistics recomputed after labelling")

        monkeypatch.setattr(bleu, "bleu_stats", refuse)
        assert vars(rerank.rerank(samples, params, lam, vocab)) == vars(reranked)
        assert np.array_equal(trainer.tune_lambda(samples, params, vocab, lam), tuned)
