"""Feature matrix, softmax probabilities, expected BLEU, error terms, and the analytic gradient."""

import math

import numpy as np
import pytest

from semphrase import corpus, model, objective, rerank, synth, trainer

from conftest import make_random_corpus, pair_gradient, random_lambda


def _toy_setup(rng, arch=model.ARCH_NONLINEAR, sim_mode=None, word_level=False, **corpus_kw):
    samples = make_random_corpus(rng, **corpus_kw)
    vocab = corpus.build_vocabulary(samples)
    params = model.init_params(
        len(vocab), 4, 3, arch=arch, sim_mode=sim_mode, word_level=word_level,
        seed=int(rng.integers(0, 2**31)),
    )
    lam = random_lambda(rng)
    return samples, vocab, params, lam


def _entry(tokens, feats, derivation):
    return corpus.NBestEntry(tuple(tokens), np.asarray(feats, dtype=np.float64), derivation)


def _uniform_sample(n_cand, sbleus=None):
    """``n_cand`` identical candidates; ``sbleus`` replaces the sentence BLEU the sample computed."""
    pair = corpus.PhrasePair(("f",), ("e",))
    sample = corpus.TrainingSample(0, ("f",), ("e",), [_entry(("e",), [0.5, -0.5], [pair]) for _ in range(n_cand)])
    if sbleus is not None:
        sample.sbleus = np.array(sbleus, dtype=np.float64)
    return sample


class TestFeatureMatrix:
    def test_total_decomposition(self, rng):
        samples, vocab, params, lam = _toy_setup(rng)
        totals = objective.score(samples, params, vocab, lam.size)[1] @ lam
        entries = [entry for sample in samples for entry in sample.candidates]
        for entry, total in zip(entries, totals, strict=True):
            expected = lam[:-1] @ entry.features + lam[-1] * objective.candidate_feature(entry, params, vocab)
            assert total == pytest.approx(expected, abs=1e-12)


def _with_edge_cases(samples):
    """``samples`` plus one N-best list that repeats a pair inside a derivation and uses the phrase ("z",)."""
    twice = corpus.PhrasePair(("t0", "t1"), ("t2",))
    zero = corpus.PhrasePair(("z",), ("t3",))
    other = corpus.PhrasePair(("t4",), ("z",))
    candidates = [
        _entry(("t2", "t2"), [0.3, -0.1], [twice, twice]),
        _entry(("t3", "z"), [0.1, 0.4], [zero, other]),
        _entry(("t2", "t3", "t2"), [-0.2, 0.2], [twice, zero, twice]),
    ]
    return [*samples, corpus.TrainingSample(99, ("t0", "t1", "z"), ("t2", "t3"), candidates)]


class TestCompiledCorpus:
    def test_arrays_reproduce_the_samples(self, rng):
        samples = _with_edge_cases(make_random_corpus(rng, n_samples=6, max_candidates=5))
        compiled = objective.compile_corpus(samples)
        unique = corpus.collect_phrase_pairs(samples)
        assert list(compiled.pairs) == list(unique)
        assert len(set(compiled.phrases)) == len(compiled.phrases)
        assert [(compiled.phrases[f], compiled.phrases[e]) for f, e in compiled.pair_rows.tolist()] == list(unique)
        entries = [entry for sample in samples for entry in sample.candidates]
        assert compiled.offsets.tolist() == np.cumsum([0] + [len(s.candidates) for s in samples]).tolist()
        rebuilt = [[] for _ in entries]
        for pair, cand in zip(compiled.occ_pair.tolist(), compiled.occ_cand.tolist(), strict=True):
            rebuilt[cand].append(compiled.pairs[pair])
        assert rebuilt == [entry.derivation for entry in entries]
        assert np.array_equal(compiled.features, np.array([entry.features for entry in entries]))

    def test_labels_are_the_samples_stacked(self, rng):
        samples = _with_edge_cases(make_random_corpus(rng, n_samples=6, max_candidates=5))
        compiled = objective.compile_corpus(samples)
        bounds = compiled.offsets.tolist()
        for sample, a, b in zip(samples, bounds[:-1], bounds[1:], strict=True):
            assert compiled.stats[a:b].tobytes() == sample.stats.tobytes()
            assert compiled.sbleus[a:b].tobytes() == sample.sbleus.tobytes()
        assert compiled.stats.shape == (bounds[-1], 10) and compiled.stats.dtype == np.int64

    def test_picks_are_each_samples_first_largest_value(self, rng):
        samples = make_random_corpus(rng, n_samples=12, max_candidates=5)
        compiled = objective.compile_corpus(samples)
        values = rng.integers(-2, 3, size=(3, compiled.offsets[-1])).astype(np.float64)  # ties are common
        values[1] = -np.inf  # every candidate at the padding's value
        bounds = compiled.offsets.tolist()
        for row in values:
            assert compiled.picks(row).tolist() == [int(np.argmax(row[a:b])) for a, b in zip(bounds, bounds[1:])]
        assert max(np.diff(bounds)) > min(np.diff(bounds))  # the lists are ragged

    @pytest.mark.parametrize("word_level", [False, True])
    def test_score_is_the_feature_matrix_of_the_compiled_corpus(self, rng, word_level):
        samples = _with_edge_cases(make_random_corpus(rng, n_samples=6, max_candidates=4))
        vocab = corpus.build_vocabulary(samples)
        params = model.init_params(len(vocab), 4, 3, word_level=word_level, seed=10)
        compiled, h = objective.score(samples, params, vocab, 3)
        want = objective.compile_corpus(samples)
        assert compiled.pairs == want.pairs and compiled.offsets.tolist() == want.offsets.tolist()
        sims = objective.pair_similarities(want, params, objective.forward(want.phrases, params, vocab))
        assert h.tobytes() == objective.feature_matrix(want, sims, 3).tobytes()

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("sim_mode", [model.SIM_DOT, model.SIM_COSINE])
    @pytest.mark.parametrize("word_level", [False, True])
    def test_feature_column_matches_candidate_feature(self, rng, monkeypatch, arch, sim_mode, word_level):
        monkeypatch.setattr(objective, "SIM_BLOCK", 3)  # several blocks, the last one partial
        samples = _with_edge_cases(make_random_corpus(rng, n_samples=6, max_candidates=4))
        vocab = corpus.build_vocabulary(samples)
        params = model.init_params(len(vocab), 4, 3, arch=arch, sim_mode=sim_mode, word_level=word_level, seed=10)
        params.w1[vocab.token_id("z")] = 0.0  # ("z",) projects to the zero vector
        compiled = objective.compile_corpus(samples)
        assert len(compiled.pairs) > 2 * objective.SIM_BLOCK
        sims = objective.pair_similarities(compiled, params, objective.forward(compiled.phrases, params, vocab))
        for pair, sim in zip(compiled.pairs, sims.tolist(), strict=True):
            assert sim == model.similarity(pair.source, pair.target, params, vocab)  # one rule, the same bits
        if sim_mode == model.SIM_COSINE and not word_level:
            assert sims[compiled.pairs.index(corpus.PhrasePair(("z",), ("t3",)))] == 0.0
        column = objective.feature_matrix(compiled, sims, 3)[:, -1]
        entries = [entry for sample in samples for entry in sample.candidates]
        reference = [objective.candidate_feature(entry, params, vocab) for entry in entries]
        np.testing.assert_allclose(column, reference, rtol=0.0, atol=1e-12)
        assert np.any(column != 0.0)

    @pytest.mark.parametrize("entry_point", ["full_gradient", "corpus_xbleu", "rerank", "tune_lambda"])
    def test_sample_without_candidates_is_refused_by_id(self, rng, entry_point):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=3)
        samples.insert(1, corpus.TrainingSample(7, ("t0",), ("t1",), []))
        run = {
            "full_gradient": lambda: objective.full_gradient(samples, params, lam, vocab),
            "corpus_xbleu": lambda: objective.corpus_xbleu(samples, params, lam, vocab),
            "rerank": lambda: rerank.rerank(samples, params, lam, vocab),
            "tune_lambda": lambda: trainer.tune_lambda(samples, params, vocab, lam),
        }[entry_point]
        with pytest.raises(ValueError, match=r"^sample 7 has no candidates$"):
            run()


class TestCandidateFeature:
    def test_single_pair_equals_similarity(self, rng):
        _, vocab, params, _ = _toy_setup(rng)
        pair = corpus.PhrasePair(("t0", "t1"), ("t2",))
        entry = corpus.NBestEntry(("t2",), np.zeros(2), [pair])
        got = objective.candidate_feature(entry, params, vocab)
        assert got == pytest.approx(model.similarity(pair.source, pair.target, params, vocab), abs=1e-15)

    def test_duplicate_pair_doubles(self, rng):
        _, vocab, params, _ = _toy_setup(rng)
        pair = corpus.PhrasePair(("t0",), ("t1",))
        single = corpus.NBestEntry(("t1",), np.zeros(2), [pair])
        double = corpus.NBestEntry(("t1", "t1"), np.zeros(2), [pair, pair])
        one = objective.candidate_feature(single, params, vocab)
        two = objective.candidate_feature(double, params, vocab)
        assert two == pytest.approx(2.0 * one, abs=1e-15)

    def test_three_pair_sum_oracle(self, rng):
        _, vocab, params, _ = _toy_setup(rng)
        pairs = [
            corpus.PhrasePair(("t0", "t1"), ("t2",)),
            corpus.PhrasePair(("t3",), ("t4", "t5")),
            corpus.PhrasePair(("t1",), ("t0",)),
        ]
        tokens = tuple(t for p in pairs for t in p.target)
        entry = corpus.NBestEntry(tokens, np.zeros(2), pairs)
        expected = sum(model.similarity(p.source, p.target, params, vocab) for p in pairs)
        assert objective.candidate_feature(entry, params, vocab) == pytest.approx(expected, abs=1e-12)


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
            totals = objective.score([sample], params, vocab, lam.size)[1] @ lam
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
            assert objective.expected_bleu(sample, params, lam, vocab) == pytest.approx(
                float(probs @ sample.sbleus), abs=1e-12
            )

    def test_bounded_by_sbleu_range(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=5)
        for sample in samples:
            xbleu = objective.expected_bleu(sample, params, lam, vocab)
            assert sample.sbleus.min() - 1e-12 <= xbleu <= sample.sbleus.max() + 1e-12


class TestErrorTerms:
    def test_single_candidate_all_zero(self):
        sample = _uniform_sample(1, sbleus=[0.6])
        vocab = corpus.build_vocabulary([sample])
        params = model.init_params(len(vocab), 3, 2, seed=2)
        deltas = {}
        xbleu = objective.error_terms(sample, params, np.array([1.0, 0.0, 1.0]), vocab, deltas)
        assert all(v == 0.0 for v in deltas.values())
        assert sample.sbleus[0] - xbleu == 0.0

    def test_pair_in_every_candidate_sums_to_zero(self, rng):
        # A pair occurring exactly once per candidate picks up the full
        # sum of prob * (sbleu - xbleu), which is zero by construction.
        shared = corpus.PhrasePair(("f",), ("e",))
        cands = []
        for i in range(4):
            extra = corpus.PhrasePair(("g",), (f"x{i}",))
            cands.append(_entry(("e", f"x{i}"), [float(i), 0.0], [shared, extra]))
        sample = corpus.TrainingSample(0, ("f", "g"), ("e", "x0"), cands)
        sample.sbleus = rng.uniform(0, 1, size=4)
        vocab = corpus.build_vocabulary([sample])
        params = model.init_params(len(vocab), 3, 2, seed=3)
        deltas = {}
        objective.error_terms(sample, params, np.array([1.0, 0.0, 0.7]), vocab, deltas)
        assert deltas[shared] == pytest.approx(0.0, abs=1e-12)

    def test_term_by_term_oracle(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=2)
        for sample in samples:
            probs = objective.candidate_probs(sample, params, lam, vocab)
            xbleu = objective.expected_bleu(sample, params, lam, vocab)
            deltas = {}
            objective.error_terms(sample, params, lam, vocab, deltas)
            for pair, delta in deltas.items():
                expected = 0.0
                for entry, prob, sbleu in zip(sample.candidates, probs, sample.sbleus):
                    count = sum(1 for p in entry.derivation if p == pair)
                    expected += (sbleu - xbleu) * prob * lam[-1] * count
                assert delta == pytest.approx(expected, abs=1e-12)

    def test_centered_expectation_invariant(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=4)
        for sample in samples:
            xbleu = objective.error_terms(sample, params, lam, vocab, {})
            probs = objective.candidate_probs(sample, params, lam, vocab)
            centered = math.fsum(probs * (sample.sbleus - xbleu))
            assert abs(centered) <= 1e-12

    def test_adds_into_prefilled_dict(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=3)
        for sample in samples:
            fresh = {}
            xbleu = objective.error_terms(sample, params, lam, vocab, fresh)
            other = corpus.PhrasePair(("elsewhere",), ("unseen",))
            start = {pair: float(rng.normal()) for pair in fresh}
            start[other] = 0.25
            deltas = dict(start)
            assert objective.error_terms(sample, params, lam, vocab, deltas) == xbleu
            assert deltas.keys() == start.keys()
            assert deltas[other] == 0.25
            for pair, delta in fresh.items():
                assert deltas[pair] == pytest.approx(start[pair] + delta, abs=1e-15)


def _spread_totals(rng, compiled):
    """Totals spread by about ±800, so some ``exp`` terms underflow to 0.0, with ties at some maxima."""
    n = int(compiled.offsets[-1])
    totals = np.where(rng.random(n) < 0.5, rng.integers(-4, 5, n) * 200.0, rng.normal(0.0, 3.0, n))
    bounds = compiled.offsets.tolist()
    for a, b in list(zip(bounds, bounds[1:]))[::3]:
        totals[a:b][-1] = totals[a:b].max()
    return totals


class TestListTerms:
    """The corpus pass gives every value the bits of the per-sample references."""

    @staticmethod
    def _corpus(rng, **model_kw):
        samples = [*make_random_corpus(rng, n_samples=15, max_candidates=6), _uniform_sample(1, sbleus=[0.6])]
        vocab = corpus.build_vocabulary(samples)
        params = model.init_params(len(vocab), 4, 3, seed=int(rng.integers(0, 2**31)), **model_kw)
        return samples, vocab, params, random_lambda(rng)

    @pytest.mark.parametrize("trial", range(6))
    def test_each_sample_gets_the_bits_of_candidate_probs_and_expected_bleu(self, trial):
        rng = np.random.default_rng([20261021, trial])
        samples, vocab, params, lam = self._corpus(rng)
        compiled = objective.compile_corpus(samples)
        totals = _spread_totals(rng, compiled)
        xbleus, terms = objective.list_terms(compiled, totals, lam)
        bounds = compiled.offsets.tolist()
        underflows = ties = 0
        for sample, xbleu, a, b in zip(samples, xbleus, bounds[:-1], bounds[1:], strict=True):
            probs = objective.candidate_probs(sample, params, lam, vocab, totals[a:b])
            want = objective.expected_bleu(sample, params, lam, vocab, totals[a:b])
            assert xbleu == want
            assert terms[a:b] == (float(lam[-1]) * (probs * (sample.sbleus - want))).tolist()
            underflows += int(np.count_nonzero(probs == 0.0))
            ties += int(np.count_nonzero(totals[a:b] == totals[a:b].max()) > 1)
        assert len(terms) == bounds[-1]
        assert underflows > 0 and ties > 0 and 1 in np.diff(bounds)

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("word_level", [False, True])
    def test_full_gradient_has_the_bits_of_a_loop_over_error_terms(self, rng, arch, word_level):
        samples, vocab, params, lam = self._corpus(rng, arch=arch, word_level=word_level)
        for entry in (entry for sample in samples for entry in sample.candidates):
            entry.features = entry.features * 400.0  # totals spread by hundreds: some probabilities underflow
        loss, grad = objective.full_gradient(samples, params, lam, vocab)

        compiled = objective.compile_corpus(samples)
        deltas = dict.fromkeys(compiled.pairs, 0.0)
        xbleus = [objective.error_terms(sample, params, lam, vocab, deltas) for sample in samples]
        n = len(samples)
        fw = objective.forward(compiled.phrases, params, vocab)
        for pair, delta in deltas.items():
            objective.sim_gradient(pair.source, pair.target, params, vocab, fw, -delta / n)
        want = np.zeros(params.size)
        objective.backprop(fw, params, want)
        assert np.any(want != 0.0)
        assert loss == -math.fsum(xbleus) / n
        assert grad.tobytes() == want.tobytes()


class TestSimGradient:
    def test_identical_phrases_double_single_side(self):
        vocab = corpus.Vocabulary.from_tokens(("a", "b", "c"))
        params = model.init_params(3, 3, 2, seed=4)
        f = ("a", "b")
        x = model.encode([f], vocab)
        (y1,), (y2,) = model.project(x, params)
        e2 = y2 * (1.0 - y2 * y2)
        single_w2 = np.outer(y1, e2)
        e1 = (params.w2 @ e2) * (1.0 - y1 * y1)
        single_w1 = np.zeros_like(params.w1)
        single_w1[x.ids] += x.counts[:, None] * e1[None, :]
        d_w1, d_w2 = model.param_views(params, pair_gradient(f, f, params, vocab))
        np.testing.assert_allclose(d_w2, 2.0 * single_w2, atol=1e-14)
        np.testing.assert_allclose(d_w1, 2.0 * single_w1, atol=1e-14)

    def test_zero_w1_kills_w2_gradient(self):
        vocab = corpus.Vocabulary.from_tokens(("a", "b"))
        params = model.init_params(2, 3, 2, seed=5)
        params.w1[:] = 0.0
        _, d_w2 = model.param_views(params, pair_gradient(("a",), ("b",), params, vocab))
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
        analytic = pair_gradient(f, e, params, vocab)

        def sim_at(vec):
            return model.similarity(f, e, model.unpack_params(params, vec), vocab)

        numeric = objective.finite_difference(sim_at, model.pack_params(params), step=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() <= 1e-6

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("sim_mode", [model.SIM_DOT, model.SIM_COSINE])
    @pytest.mark.parametrize("word_level", [False, True])
    def test_adds_scaled_gradient_into_prefilled_buffer(self, rng, arch, sim_mode, word_level):
        """``sim_gradient`` adds into a forward pass's prefilled ``grads``, ``backprop`` into a prefilled vector."""
        tokens = tuple(f"t{i}" for i in range(6))
        vocab = corpus.Vocabulary.from_tokens((corpus.UNK_TOKEN,) + tokens)
        params = model.init_params(
            len(vocab), 4, 3, arch=arch, sim_mode=sim_mode, word_level=word_level, seed=7
        )
        f, e = ("t0", "t1", "t2"), ("t3", "t4")
        fw = objective.forward((f, e, ("t5",)), params, vocab)
        assert not fw.grads.any()
        assert objective.sim_gradient(f, e, params, vocab, fw, 1.0) is None
        fresh = fw.grads.copy()
        touched = {key for key, row in fw.rows.items() if fresh[row].any()}
        if word_level:  # the argmax tokens of both sides
            assert touched & {(t,) for t in f} and touched & {(t,) for t in e} and ("t5",) not in touched
        else:
            assert touched == {f, e}
        start = rng.uniform(-1.0, 1.0, size=fw.grads.shape)
        fw.grads[:] = start
        coeff = -0.37
        objective.sim_gradient(f, e, params, vocab, fw, coeff)
        assert np.array_equal(fw.grads[fw.rows[("t5",)]], start[fw.rows[("t5",)]])
        np.testing.assert_allclose(fw.grads, start + coeff * fresh, rtol=0.0, atol=1e-15)

        fw.grads[:] = fresh
        backward = np.zeros(params.size)
        objective.backprop(fw, params, backward)
        assert np.any(backward != 0.0)
        prefilled = rng.uniform(-1.0, 1.0, size=params.size)
        grad = prefilled.copy()
        assert objective.backprop(fw, params, grad) is None
        np.testing.assert_allclose(grad, prefilled + backward, rtol=0.0, atol=1e-15)
        assert np.array_equal(fw.grads, fresh)  # the pass's own arrays are left as they were

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    def test_zero_norm_cosine_pair_passes_no_gradient(self, arch):
        vocab = corpus.Vocabulary.from_tokens((corpus.UNK_TOKEN, "a", "b", "c"))
        params = model.init_params(len(vocab), 4, 3, arch=arch, sim_mode=model.SIM_COSINE, seed=8)
        params.w1[vocab.token_id("b")] = 0.0  # ("b",) projects to the zero vector
        fw = objective.forward((("a",), ("b",)), params, vocab)
        fw.grads[fw.rows[("a",)]] = 0.5
        objective.sim_gradient(("a",), ("b",), params, vocab, fw, 1.0)
        assert np.all(fw.grads[fw.rows[("a",)]] == 0.5) and np.all(fw.grads[fw.rows[("b",)]] == 0.0)

        zero, live = corpus.PhrasePair(("a",), ("b",)), corpus.PhrasePair(("a",), ("c",))
        sample = corpus.TrainingSample(
            0, ("a",), ("c",), [_entry(("b",), [0.1, 0.2], [zero]), _entry(("c",), [0.3, -0.1], [live])]
        )
        lam = np.array([0.5, -0.2, 1.0])
        deltas = {}
        objective.error_terms(sample, params, lam, vocab, deltas)
        assert deltas[zero] != 0.0
        _, grad = objective.full_gradient([sample], params, lam, vocab)
        expected = -deltas[live] * pair_gradient(live.source, live.target, params, vocab)
        np.testing.assert_allclose(grad, expected, rtol=0.0, atol=1e-15)
        d_w1, _ = model.param_views(params, grad)
        assert np.all(d_w1[vocab.token_id("b")] == 0.0) and np.any(d_w1[vocab.token_id("c")] != 0.0)

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("e, first", [(("b", "c"), "b"), (("c", "b"), "c")], ids=["bc", "cb"])
    def test_word_level_tie_goes_to_first_index(self, arch, e, first):
        vocab = corpus.Vocabulary.from_tokens((corpus.UNK_TOKEN, "a", "b", "c"))
        params = model.init_params(len(vocab), 4, 3, arch=arch, sim_mode=model.SIM_DOT, word_level=True, seed=9)
        params.w1[vocab.token_id("c")] = params.w1[vocab.token_id("b")]  # b and c tie as a's best match
        fw = objective.forward((("a",), e), params, vocab)
        u = fw.out[fw.rows[("a",)]]
        sims = model.token_similarity_matrix(u[None], fw.out[[fw.rows[(t,)] for t in e]], params.sim_mode)
        assert sims[0, 0] == sims[0, 1]
        objective.sim_gradient(("a",), e, params, vocab, fw, 1.0)
        second = "c" if first == "b" else "b"
        # a's best match is the first of the tied tokens (weight 0.5); each
        # target token's best match is a (weight 0.25 each)
        assert np.any(fw.grads[fw.rows[("a",)]] != 0.0)
        np.testing.assert_allclose(fw.grads[fw.rows[(first,)]], 0.75 * u, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(fw.grads[fw.rows[(second,)]], 0.25 * u, rtol=0.0, atol=1e-15)


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

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("sim_mode", [model.SIM_DOT, model.SIM_COSINE])
    @pytest.mark.parametrize("word_level", [False, True])
    def test_two_phase_equals_naive_per_occurrence(self, rng, arch, sim_mode, word_level):
        samples, vocab, params, lam = _toy_setup(
            rng, arch=arch, sim_mode=sim_mode, word_level=word_level, n_samples=4, max_candidates=4
        )
        _, grad = objective.full_gradient(samples, params, lam, vocab)

        naive = np.zeros(params.size)
        n = len(samples)
        for sample in samples:
            probs = objective.candidate_probs(sample, params, lam, vocab)
            xbleu = objective.expected_bleu(sample, params, lam, vocab)
            for entry, prob, sbleu in zip(sample.candidates, probs, sample.sbleus):
                weight = -(sbleu - xbleu) * prob * lam[-1] / n
                for pair in entry.derivation:
                    naive += weight * pair_gradient(pair.source, pair.target, params, vocab)
        assert np.any(naive != 0.0)
        np.testing.assert_allclose(grad, naive, atol=1e-12)

    def test_phase_two_visits_each_unique_pair_once(self, rng, monkeypatch):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=4, max_candidates=4)
        calls = []
        real = objective.sim_gradient

        def counting(f_tokens, e_tokens, p, v, out_grads, coeff):
            calls.append((f_tokens, e_tokens))
            return real(f_tokens, e_tokens, p, v, out_grads, coeff)

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

    def test_given_pairs_change_nothing(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=5, max_candidates=4)
        loss, grad = objective.full_gradient(samples, params, lam, vocab)
        given = objective.full_gradient(samples, params, lam, vocab, objective.compile_corpus(samples))
        assert loss == given[0]
        assert np.array_equal(grad, given[1])

    def test_loss_is_negative_mean_xbleu(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=5)
        loss, _ = objective.full_gradient(samples, params, lam, vocab)
        per_sample = [objective.expected_bleu(sample, params, lam, vocab) for sample in samples]
        assert loss == pytest.approx(-math.fsum(per_sample) / len(samples), abs=1e-15)
        assert objective.corpus_xbleu(samples, params, lam, vocab) == -loss


def _distinct_phrases(samples):
    pairs = corpus.collect_phrase_pairs(samples)
    return {p.source for p in pairs} | {p.target for p in pairs}


def _record(monkeypatch, name):
    """The first argument (the phrases, or their bags) of each call of ``model.<name>``."""
    calls = []
    real = getattr(model, name)

    def recording(first, p):
        calls.append(first)
        return real(first, p)

    monkeypatch.setattr(model, name, recording)
    return calls


def _rows(bags):
    """Each row of ``bags`` as (token ids, counts)."""
    bounds = bags.starts.tolist()
    return [(tuple(bags.ids[a:b].tolist()), tuple(bags.counts[a:b].tolist())) for a, b in zip(bounds, bounds[1:])]


def _bag_rows(phrases, vocab):
    return sorted(_rows(model.encode(list(phrases), vocab)))


class TestProjectionTable:
    """One ``model.project`` call per evaluation, its rows the distinct phrases; ``backprop`` projects nothing."""

    @pytest.mark.parametrize(
        "arch, sim_mode", [(model.ARCH_NONLINEAR, None), (model.ARCH_LINEAR, model.SIM_COSINE)]
    )
    def test_full_gradient_projects_once_per_pass(self, rng, monkeypatch, arch, sim_mode):
        samples, vocab, params, lam = _toy_setup(rng, arch=arch, sim_mode=sim_mode, n_samples=6, n_tokens=4)
        phrases = _distinct_phrases(samples)
        assert len(phrases) < 2 * len(corpus.collect_phrase_pairs(samples))  # pairs share phrases
        encoded, calls = _record(monkeypatch, "encode"), _record(monkeypatch, "project")
        objective.full_gradient(samples, params, lam, vocab)
        assert len(encoded) == 1 and sorted(encoded[0]) == sorted(phrases)
        assert len(calls) == 1  # the forward pass; ``backprop`` reuses its arrays
        assert sorted(_rows(calls[0])) == _bag_rows(phrases, vocab)

    def test_word_level_projects_once_per_pass(self, rng, monkeypatch):
        samples, vocab, params, lam = _toy_setup(rng, word_level=True, n_samples=6, n_tokens=5)
        tokens = {(tok,) for phrase in _distinct_phrases(samples) for tok in phrase}
        calls = _record(monkeypatch, "project")
        objective.full_gradient(samples, params, lam, vocab)
        assert len(calls) == 1
        assert sorted(_rows(calls[0])) == _bag_rows(tokens, vocab)

    @pytest.mark.parametrize("sim_mode", [model.SIM_DOT, model.SIM_COSINE])
    def test_word_level_builds_one_token_matrix_per_unique_pair(self, monkeypatch, sim_mode):
        samples, lam = synth.generate(synth.SynthSpec(sentences=20, seed=4))
        vocab = corpus.build_vocabulary(samples)
        params = model.init_params(len(vocab), 4, 3, sim_mode=sim_mode, word_level=True, seed=5)
        built = []
        real = model.token_similarity_matrix
        monkeypatch.setattr(
            model, "token_similarity_matrix", lambda f, e, mode: built.append((len(f), len(e))) or real(f, e, mode)
        )
        objective.full_gradient(samples, params, lam, vocab)
        pairs = corpus.collect_phrase_pairs(samples)
        assert len(pairs) < sum(pairs.values())  # pairs recur, so a per-occurrence build would show
        assert sorted(built) == sorted((len(p.source), len(p.target)) for p in pairs)

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    @pytest.mark.parametrize("word_level", [False, True])
    def test_backprop_neither_encodes_nor_projects(self, rng, monkeypatch, arch, word_level):
        samples, vocab, params, _ = _toy_setup(rng, arch=arch, word_level=word_level, n_samples=4)
        compiled = objective.compile_corpus(samples)
        fw = objective.forward(compiled.phrases, params, vocab)
        for pair in compiled.pairs:
            objective.sim_gradient(pair.source, pair.target, params, vocab, fw, 1.0)
        encoded, calls = _record(monkeypatch, "encode"), _record(monkeypatch, "project")
        grad = np.zeros(params.size)
        objective.backprop(fw, params, grad)
        assert encoded == [] and calls == [] and np.any(grad != 0.0)

    def _projects_each_phrase_once(self, rng, monkeypatch, run):
        calls = _record(monkeypatch, "project")
        for word_level in (False, True):
            samples, vocab, params, lam = _toy_setup(rng, word_level=word_level, n_samples=6, n_tokens=4)
            phrases = _distinct_phrases(samples)
            if word_level:
                phrases = {(tok,) for phrase in phrases for tok in phrase}
            calls.clear()
            run(samples, params, vocab, lam)
            assert len(calls) == 1
            assert sorted(_rows(calls[0])) == _bag_rows(phrases, vocab)

    def test_score_projects_each_phrase_once(self, rng, monkeypatch):
        self._projects_each_phrase_once(rng, monkeypatch, lambda s, p, v, lam: objective.score(s, p, v, lam.size))

    def test_tune_lambda_projects_each_dev_phrase_once(self, rng, monkeypatch):
        self._projects_each_phrase_once(
            rng, monkeypatch, lambda s, p, v, lam: trainer.tune_lambda(s, p, v, lam, max_sweeps=1)
        )

    def test_rerank_projects_each_test_phrase_once(self, rng, monkeypatch):
        self._projects_each_phrase_once(rng, monkeypatch, lambda s, p, v, lam: rerank.rerank(s, p, lam, v))

    def test_in_place_edit_between_calls_matches_fresh_params(self, rng):
        samples, vocab, params, lam = _toy_setup(rng, n_samples=4)
        before = objective.full_gradient(samples, params, lam, vocab)
        params.w1 *= 1.7
        params.w2 -= 0.05
        loss, grad = objective.full_gradient(samples, params, lam, vocab)
        fresh_loss, fresh_grad = objective.full_gradient(samples, params.copy(), lam, vocab)
        assert loss == fresh_loss and loss != before[0]
        assert np.array_equal(grad, fresh_grad)
