"""L-BFGS behavior, training loop guarantees, checkpoints, and weight tuning."""

import numpy as np
import pytest

from semphrase import corpus, model, objective, rerank, synth, trainer

from conftest import make_random_corpus, random_lambda


def quadratic(target):
    def loss_fn(x):
        g = x - target
        return 0.5 * float(g @ g), g

    return loss_fn


class TestLbfgsStep:
    def test_quadratic_converges_fast(self, rng):
        for dim in (2, 5, 12):
            target = rng.normal(size=dim)
            x = rng.normal(size=dim)
            state = trainer.LbfgsState(gtol=1e-12)
            loss_fn = quadratic(target)
            for _ in range(dim + 5):
                x, state = trainer.lbfgs_step(state, x, loss_fn)
                if state.converged:
                    break
            assert np.linalg.norm(x - target) <= 1e-8

    def test_zero_gradient_is_noop(self):
        target = np.array([1.0, -2.0])
        state = trainer.LbfgsState()
        x, state = trainer.lbfgs_step(state, target.copy(), quadratic(target))
        assert state.converged
        assert np.array_equal(x, target)
        assert state.iteration == 0

    def test_first_direction_is_scaled_steepest_descent(self, rng):
        target = rng.normal(size=4)
        x0 = rng.normal(size=4)
        _, g0 = quadratic(target)(x0)
        x1, state = trainer.lbfgs_step(trainer.LbfgsState(), x0.copy(), quadratic(target))
        step = x1 - x0
        # step = -alpha * g0 for some alpha > 0
        alpha = float(step @ -g0) / float(g0 @ g0)
        assert alpha > 0
        np.testing.assert_allclose(step, -alpha * g0, atol=1e-12)

    def test_accepted_steps_strictly_decrease(self, rng):
        # a gentle non-quadratic bowl
        def loss_fn(x):
            f = float(np.sum(x**4) + 0.5 * np.sum(x**2))
            g = 4.0 * x**3 + x
            return f, g

        x = rng.normal(size=6)
        state = trainer.LbfgsState(gtol=1e-10)
        prev = loss_fn(x)[0]
        for _ in range(50):
            x, state = trainer.lbfgs_step(state, x, loss_fn)
            if state.converged or state.failed:
                break
            assert state.f < prev
            prev = state.f
        assert state.converged

    def test_curvature_condition_guards_history(self):
        state = trainer.LbfgsState()
        state.store_pair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))  # s@y < 0: rejected
        assert len(state.s_list) == 0
        state.store_pair(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert len(state.s_list) == 1

    def test_history_window_is_bounded(self, rng):
        state = trainer.LbfgsState(m=3)
        for _ in range(10):
            s = rng.normal(size=4)
            state.store_pair(s, s + rng.uniform(0.1, 0.5, size=4) * s)
        assert len(state.s_list) <= 3


def _small_spec(seed=11, sentences=30):
    return synth.SynthSpec(
        concepts=4, phrases_per_concept=2, sentences=sentences,
        phrases_per_sentence=3, candidates=5, noise=0.35, seed=seed,
    )


def _small_config(**kw):
    defaults = dict(max_iterations=25, k1=8, k2=8, seed=5, timing=False)
    defaults.update(kw)
    return trainer.TrainConfig(**defaults)


class TestTrain:
    def test_zero_iterations_returns_initial_params(self):
        samples, lam = synth.generate(_small_spec())
        samples = corpus.dedupe_candidates(samples)
        result = trainer.train(samples, _small_config(max_iterations=0), lam)
        vocab = corpus.build_vocabulary(samples)
        fresh = model.init_params(len(vocab), 8, 8, seed=5)
        assert np.array_equal(result.params.w1, fresh.w1)
        assert np.array_equal(result.params.w2, fresh.w2)
        assert len(result.log.rows) == 1

    def test_single_candidate_corpus_stops_immediately(self, rng):
        samples = make_random_corpus(rng, n_samples=4, max_candidates=1)
        result = trainer.train(samples, _small_config(), random_lambda(rng))
        assert result.log.rows[-1].iteration == 0
        assert "starting point" in result.log.stop_reason

    def test_training_improves_xbleu_and_loss_monotone(self):
        samples, lam = synth.generate(_small_spec())
        samples = corpus.dedupe_candidates(samples)
        result = trainer.train(samples, _small_config(max_iterations=40), lam)
        losses = [r.loss for r in result.log.rows]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert result.log.rows[-1].xbleu > result.log.rows[0].xbleu

    def test_log_columns_consistent(self):
        samples, lam = synth.generate(_small_spec(sentences=10))
        samples = corpus.dedupe_candidates(samples)
        result = trainer.train(samples, _small_config(max_iterations=5), lam)
        for row in result.log.rows:
            assert row.xbleu == -row.loss
            assert row.seconds == 0.0  # timing disabled
            assert row.grad_norm >= 0.0

    def test_bitwise_reproducible(self):
        samples, lam = synth.generate(_small_spec(sentences=12))
        samples = corpus.dedupe_candidates(samples)
        r1 = trainer.train(samples, _small_config(max_iterations=8), lam)
        r2 = trainer.train(samples, _small_config(max_iterations=8), lam)
        assert np.array_equal(r1.params.w1, r2.params.w1)
        assert np.array_equal(r1.params.w2, r2.params.w2)
        assert [r.loss for r in r1.log.rows] == [r.loss for r in r2.log.rows]

    def test_thread_count_does_not_change_result(self):
        samples, lam = synth.generate(_small_spec(sentences=12))
        samples = corpus.dedupe_candidates(samples)
        r1 = trainer.train(samples, _small_config(max_iterations=6, threads=1), lam)
        r2 = trainer.train(samples, _small_config(max_iterations=6, threads=4), lam)
        assert np.array_equal(r1.params.w1, r2.params.w1)
        assert [r.loss for r in r1.log.rows] == [r.loss for r in r2.log.rows]

    def test_weight_decay_changes_the_loss_surface(self):
        samples, lam = synth.generate(_small_spec(sentences=10))
        samples = corpus.dedupe_candidates(samples)
        plain = trainer.train(samples, _small_config(max_iterations=3), lam)
        decayed = trainer.train(samples, _small_config(max_iterations=3, weight_decay=0.05), lam)
        assert decayed.log.rows[0].loss > plain.log.rows[0].loss  # penalty term is positive
        assert np.all(np.isfinite(decayed.params.w1))

    def test_warm_start_from_linear_model(self, tmp_path):
        samples, lam = synth.generate(_small_spec(sentences=12))
        samples = corpus.dedupe_candidates(samples)
        lin = trainer.train(samples, _small_config(max_iterations=6, arch=model.ARCH_LINEAR), lam)
        pre_path = tmp_path / "linear.bin"
        model.save_model(lin.params, pre_path)
        warm = trainer.train(
            samples, _small_config(max_iterations=2, init_model=str(pre_path)), lam
        )
        # W2 is the seeded random draw; W1 started from the linear model
        assert warm.log.rows[0].loss != pytest.approx(
            trainer.train(samples, _small_config(max_iterations=0), lam).log.rows[0].loss
        )


class TestCheckpoints:
    def _train_with_checkpoints(self, tmp_path, iters, interval=2):
        samples, lam = synth.generate(_small_spec(sentences=12))
        samples = corpus.dedupe_candidates(samples)
        config = _small_config(
            max_iterations=iters,
            checkpoint_dir=str(tmp_path / "ck"),
            checkpoint_interval=interval,
            tolerance=1e-12,
        )
        return samples, lam, trainer.train(samples, config, lam)

    def test_checkpoint_reload_reproduces_xbleu(self, tmp_path):
        samples, lam, result = self._train_with_checkpoints(tmp_path, iters=4)
        path = tmp_path / "ck" / "checkpoint-0002.mdl"
        assert path.exists()
        params = model.load_model(path)  # checkpoints load as plain models
        vocab = result.vocab
        lam_train = lam.copy()
        lam_train[-1] = 1.0
        xbleu = objective.corpus_xbleu(samples, params, lam_train, vocab)
        logged = next(r.xbleu for r in result.log.rows if r.iteration == 2)
        assert xbleu == logged

    def test_resume_matches_uninterrupted_trajectory(self, tmp_path):
        samples, lam, full = self._train_with_checkpoints(tmp_path, iters=8)
        resumed = trainer.train(
            samples,
            _small_config(
                max_iterations=4, tolerance=1e-12, resume=str(tmp_path / "ck" / "checkpoint-0004.mdl")
            ),
            lam,
        )
        full_losses = {r.iteration: r.loss for r in full.log.rows}
        for row in resumed.log.rows[1:]:
            assert row.loss == pytest.approx(full_losses[row.iteration], abs=1e-10)
        assert np.array_equal(
            resumed.params.w1.shape, full.params.w1.shape
        )

    def test_checkpoint_stores_optimizer_state(self, tmp_path):
        _, _, _ = self._train_with_checkpoints(tmp_path, iters=4)
        params, state = trainer.load_checkpoint(tmp_path / "ck" / "checkpoint-0004.mdl")
        assert state["iteration"] == 4
        assert len(state["s_list"]) == len(state["y_list"])
        assert len(state["s_list"]) >= 1
        assert all(np.all(np.isfinite(s)) for s in state["s_list"])

    @pytest.mark.parametrize(
        "field, change",
        [
            ("arch", dict(arch=model.ARCH_LINEAR)),
            ("k1", dict(k1=6)),
            ("k2", dict(k2=6)),
            ("sim_mode", dict(sim_mode=model.SIM_COSINE)),
            ("word_level", dict(word_level=True)),
        ],
    )
    def test_resume_refuses_a_different_shape(self, tmp_path, field, change):
        samples, lam, _ = self._train_with_checkpoints(tmp_path, iters=2)
        config = _small_config(max_iterations=1, resume=str(tmp_path / "ck" / "checkpoint-0002.mdl"), **change)
        with pytest.raises(ValueError, match=f"checkpoint has {field}="):
            trainer.train(samples, config, lam)

    def test_resume_refuses_another_vocabulary(self, tmp_path):
        samples, lam, _ = self._train_with_checkpoints(tmp_path, iters=2)
        vocab = corpus.build_vocabulary(samples)
        bigger = corpus.Vocabulary.from_tokens(vocab.tokens + ("extra",))
        config = _small_config(max_iterations=1, resume=str(tmp_path / "ck" / "checkpoint-0002.mdl"))
        with pytest.raises(ValueError, match="checkpoint has d=.*vocabulary"):
            trainer.train(samples, config, lam, bigger)

    def test_plain_model_refuses_checkpoint_load(self, tmp_path):
        params = model.init_params(4, 3, 2, seed=0)
        path = tmp_path / "m.bin"
        model.save_model(params, path)
        with pytest.raises(model.ModelIOError, match="optimizer state"):
            trainer.load_checkpoint(path)


def _dev_set_for_tuning(rng, n_samples=12):
    """Dev corpus whose best selection genuinely depends on the weights."""
    samples = make_random_corpus(rng, n_samples=n_samples, max_candidates=5, n_features=1)
    vocab = corpus.build_vocabulary(samples)
    params = model.init_params(len(vocab), 4, 3, seed=13)
    return samples, vocab, params


class TestTuneLambda:
    def test_flat_objective_returns_init(self, rng):
        # single candidate per sample: every weight vector selects the same thing
        samples = make_random_corpus(rng, n_samples=5, max_candidates=1)
        vocab = corpus.build_vocabulary(samples)
        params = model.init_params(len(vocab), 3, 2, seed=14)
        lam0 = np.array([0.7, -0.3, 0.5])
        tuned = trainer.tune_lambda(samples, params, vocab, lam0)
        assert np.array_equal(tuned, lam0)

    def test_similarity_once_per_unique_dev_pair(self, rng, monkeypatch):
        samples, vocab, params = _dev_set_for_tuning(rng)
        calls = []
        real = model.similarity

        def counting(f_tokens, e_tokens, p, v):
            calls.append((f_tokens, e_tokens))
            return real(f_tokens, e_tokens, p, v)

        monkeypatch.setattr(model, "similarity", counting)
        trainer.tune_lambda(samples, params, vocab, np.array([0.3, 1.0]))
        unique = corpus.collect_phrase_pairs(samples)
        assert len(calls) == len(unique)
        assert len(set(calls)) == len(calls)
        assert len(calls) < sum(unique.values())

    def test_never_below_init(self, rng):
        samples, vocab, params = _dev_set_for_tuning(rng)
        lam0 = np.array([0.3, 1.0])
        before = rerank.rerank(samples, params, lam0, vocab).reranked_bleu
        tuned = trainer.tune_lambda(samples, params, vocab, lam0)
        after = rerank.rerank(samples, params, tuned, vocab).reranked_bleu
        assert after >= before

    def test_positive_scaling_changes_nothing(self, rng):
        samples, vocab, params = _dev_set_for_tuning(rng)
        lam = np.array([0.4, 0.9])
        r1 = rerank.rerank(samples, params, lam, vocab)
        r2 = rerank.rerank(samples, params, 3.7 * lam, vocab)
        assert [s.index for s in r1.selections] == [s.index for s in r2.selections]
        assert r1.reranked_bleu == r2.reranked_bleu

    def test_matches_grid_search_oracle(self, rng):
        from semphrase import bleu as bleu_mod

        samples, vocab, params = _dev_set_for_tuning(rng, n_samples=10)
        lam0 = np.array([0.0, 0.0])
        tuned = trainer.tune_lambda(samples, params, vocab, lam0)
        tuned_bleu = rerank.rerank(samples, params, tuned, vocab).reranked_bleu

        # exhaustive 100x100 sweep with independently computed selections
        cached = []
        for sample in samples:
            base = np.array([float(e.features[0]) for e in sample.candidates])
            feat = np.array(
                [rerank.similarity_feature(e, params, vocab) for e in sample.candidates]
            )
            stats = [bleu_mod.bleu_stats(sample.reference, e.tokens) for e in sample.candidates]
            cached.append((base, feat, stats))
        grid = np.linspace(-5.0, 5.0, 100)
        best = 0.0
        for a in grid:
            for b in grid:
                chosen = []
                for base, feat, stats in cached:
                    idx = int(np.argmax(a * base + b * feat))
                    chosen.append(stats[idx])
                best = max(best, bleu_mod.corpus_bleu_from_stats(chosen))
        assert tuned_bleu >= best - 1e-9
