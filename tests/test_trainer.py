"""L-BFGS behavior, training loop guarantees, checkpoints, and weight tuning."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from semphrase import bleu, corpus, model, objective, rerank, synth, trainer

from conftest import make_random_corpus, make_tied_corpus, random_lambda


def quadratic(target):
    def loss_fn(x):
        g = x - target
        return 0.5 * float(g @ g), g

    return loss_fn


def _started(loss_fn, x):
    """A state holding ``loss_fn`` at ``x``, as ``train`` makes one before its first step."""
    f, g = loss_fn(x)
    return trainer.LbfgsState(f=f, g=g, n_evals=1)


def _converged(state, tol):
    """``train``'s gradient test."""
    return float(np.max(np.abs(state.g))) <= tol


class TestLbfgsStep:
    def test_quadratic_converges_fast(self, rng):
        for dim in (2, 5, 12):
            target = rng.normal(size=dim)
            x = rng.normal(size=dim)
            loss_fn = quadratic(target)
            state = _started(loss_fn, x)
            for _ in range(dim + 5):
                if _converged(state, 1e-12):
                    break
                x = trainer.lbfgs_step(state, x, loss_fn)
            assert np.linalg.norm(x - target) <= 1e-8

    def test_first_direction_is_scaled_steepest_descent(self, rng):
        target = rng.normal(size=4)
        x0 = rng.normal(size=4)
        loss_fn = quadratic(target)
        state = _started(loss_fn, x0)
        g0 = state.g.copy()
        x1 = trainer.lbfgs_step(state, x0.copy(), loss_fn)
        step = x1 - x0
        # step = -alpha * g0 for some alpha > 0
        alpha = float(step @ -g0) / float(g0 @ g0)
        assert alpha > 0
        np.testing.assert_allclose(step, -alpha * g0, atol=1e-12)
        assert state.iteration == 1 and state.n_evals == 1 + state.last_step.evals

    def test_accepted_steps_strictly_decrease(self, rng):
        # a gentle non-quadratic bowl
        def loss_fn(x):
            f = float(np.sum(x**4) + 0.5 * np.sum(x**2))
            g = 4.0 * x**3 + x
            return f, g

        x = rng.normal(size=6)
        state = _started(loss_fn, x)
        prev = state.f
        for _ in range(50):
            if _converged(state, 1e-10):
                break
            x = trainer.lbfgs_step(state, x, loss_fn)
            assert x is not None
            assert state.f < prev
            prev = state.f
        assert _converged(state, 1e-10)

    def test_curvature_condition_guards_history(self):
        state = trainer.LbfgsState()
        assert not state.store_pair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))  # s@y < 0: rejected
        assert len(state.s_list) == 0
        assert state.store_pair(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert len(state.s_list) == 1

    def test_history_window_is_bounded(self, rng):
        state = trainer.LbfgsState(m=3)
        for _ in range(10):
            s = rng.normal(size=4)
            state.store_pair(s, s + rng.uniform(0.1, 0.5, size=4) * s)
        assert len(state.s_list) <= 3

    def test_a_failed_line_search_counts_its_evaluations(self):
        """A loss falling without bound at a constant slope: 20 doublings never meet the curvature condition."""
        calls = []

        def loss_fn(x):
            calls.append(x.copy())
            return -x[0], np.array([-1.0])

        state = _started(loss_fn, np.zeros(1))
        assert trainer.lbfgs_step(state, np.zeros(1), loss_fn) is None
        assert state.last_step is None and state.iteration == 0 and state.f == 0.0
        assert len(calls) == state.n_evals == 21


def _recording(loss_fn):
    """``loss_fn`` and the list of points it is evaluated at, in order."""
    points = []

    def recorded(x):
        points.append(x.copy())
        return loss_fn(x)

    return recorded, points


def _line(phi, dphi):
    """A loss along the first coordinate, ``phi`` with slope ``dphi``, and its search from 0 along +e1."""

    def loss_fn(x):
        g = np.zeros_like(x)
        g[0] = dphi(x[0])
        return phi(x[0]), g

    x = np.zeros(2)
    f0, g0 = loss_fn(x)
    return loss_fn, x, f0, g0, np.array([1.0, 0.0])


def _meets_strong_wolfe(f0, d0, alpha, f, d):
    return f <= f0 + trainer.C1 * alpha * d0 and abs(d) <= -trainer.C2 * d0


class TestLineSearch:
    def test_first_trial_moves_a_unit_distance_unless_pairs_are_held(self, rng, monkeypatch):
        target, scale = 10.0 * rng.normal(size=5), np.arange(1.0, 6.0)

        def ellipse(x):  # a quadratic L-BFGS does not solve in two steps
            g = scale * (x - target)
            return 0.5 * float((x - target) @ g), g

        loss_fn, points = _recording(ellipse)
        x0 = np.zeros(5)
        state = _started(loss_fn, x0)
        x1 = trainer.lbfgs_step(state, x0, loss_fn)  # the start: no pairs, direction -g
        g0 = scale * (x0 - target)
        assert state.last_step.alpha0 == pytest.approx(1.0 / np.linalg.norm(g0), rel=1e-15)
        np.testing.assert_allclose(points[1], x0 - g0 / np.linalg.norm(g0), rtol=1e-15, atol=0.0)
        assert not state.last_step.restarted and len(state.s_list) == 1

        points.clear()
        p = trainer._two_loop_direction(state, state.g)
        x2 = trainer.lbfgs_step(state, x1, loss_fn)  # a pair held: the scaled two-loop direction, at 1
        assert state.last_step.alpha0 == 1.0 and not state.last_step.restarted
        assert np.array_equal(points[0], x1 + 1.0 * p)

        points.clear()
        monkeypatch.setattr(trainer, "_two_loop_direction", lambda st, g: g.copy())  # an ascent direction
        g2 = state.g.copy()
        trainer.lbfgs_step(state, x2, loss_fn)
        assert state.last_step.restarted
        assert state.last_step.alpha0 == pytest.approx(1.0 / np.linalg.norm(g2), rel=1e-15)
        np.testing.assert_allclose(points[0], x2 - g2 / np.linalg.norm(g2), rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("g", [[np.inf, 1.0], [np.nan, 1.0], [1e200, 1e200]])
    def test_first_trial_falls_back_to_one_when_the_norm_is_not_finite(self, g):
        assert trainer._unit_step(np.array(g)) == 1.0

    def test_cubic_zoom_lands_on_a_quadratics_minimiser_in_one_evaluation(self, rng):
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            hessian = a @ a.T + 0.1 * np.eye(6)
            target = rng.normal(size=6)

            def loss_fn(x):
                g = hessian @ (x - target)
                return 0.5 * float((x - target) @ g), g

            x = rng.normal(size=6)
            f0, g0 = loss_fn(x)
            p = -g0
            d0 = float(g0 @ p)
            minimiser = -d0 / float(p @ hessian @ p)
            # a first trial past 2 * minimiser fails sufficient decrease, so the search zooms on [0, a0]
            a0 = minimiser * rng.uniform(2.1, 3.0)
            alpha, f, g, fell_back, evals = trainer._strong_wolfe(loss_fn, x, f0, g0, p, a0)
            assert evals == 2 and not fell_back  # the trial, then one zoom evaluation
            assert alpha == pytest.approx(minimiser, rel=1e-9)
            assert _meets_strong_wolfe(f0, d0, alpha, f, float(g @ p))

    def test_cubic_minimiser_near_an_end_bisects(self):
        # the cubic through phi at 0 and 1 is phi, whose minimiser 0.05 lies within a tenth of 0
        loss_fn, x, f0, g0, p = _line(lambda a: 0.5 * (a - 0.05) ** 2, lambda a: a - 0.05)
        loss_fn, points = _recording(loss_fn)
        alpha, f, g, _, evals = trainer._strong_wolfe(loss_fn, x, f0, g0, p, 1.0)
        assert [q[0] for q in points[:2]] == [1.0, 0.5]
        assert _meets_strong_wolfe(f0, float(g0 @ p), alpha, f, float(g @ p))

    def test_cubic_minimiser_inside_the_safeguard_is_taken(self):
        loss_fn, x, f0, g0, p = _line(lambda a: 0.5 * (a - 0.3) ** 2, lambda a: a - 0.3)
        loss_fn, points = _recording(loss_fn)
        alpha, *_ = trainer._strong_wolfe(loss_fn, x, f0, g0, p, 1.0)
        assert [q[0] for q in points] == [1.0, alpha] and alpha == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_loss_that_is_not_finite_at_one_end_bisects(self, bad):
        # finite up to 0.8: the cubic through the finite stretch alone would pick 0.3
        loss_fn, x, f0, g0, p = _line(lambda a: 0.5 * (a - 0.3) ** 2 if a <= 0.8 else bad, lambda a: a - 0.3)
        loss_fn, points = _recording(loss_fn)
        alpha, f, g, _, evals = trainer._strong_wolfe(loss_fn, x, f0, g0, p, 1.0)
        assert [q[0] for q in points[:2]] == [1.0, 0.5]
        assert _meets_strong_wolfe(f0, float(g0 @ p), alpha, f, float(g @ p))

    def test_zoom_trial_rules(self):
        lo = (0.0, 0.5 * 0.3**2, None, -0.3)
        assert trainer._zoom_trial(lo, (1.0, 0.5 * 0.7**2, None, 0.7)) == pytest.approx(0.3, rel=1e-12)
        assert trainer._zoom_trial((1.0, 0.5 * 0.7**2, None, 0.7), lo) == pytest.approx(0.3, rel=1e-12)
        assert trainer._zoom_trial(lo, (1.0, np.inf, None, 0.7)) == 0.5
        assert trainer._zoom_trial(lo, (0.2, 0.0, None, np.nan)) == 0.1  # no finite minimiser
        # phi = -a^3 + a: phi'(0) = 1 and phi'(1) = -2 bracket a maximum; the cubic has no minimiser between
        assert trainer._zoom_trial((0.0, 0.0, None, 1.0), (1.0, 0.0, None, -2.0)) == 0.5


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

    def test_a_failed_line_search_halts_training_at_the_start(self, monkeypatch):
        """A loss falling without bound at a constant slope: the first search fails after 20 doublings."""
        samples, lam = synth.generate(_small_spec(sentences=10))
        samples = corpus.dedupe_candidates(samples)

        def unbounded(samples, params, lam, vocab, compiled=None):
            vec = model.pack_params(params)
            return -float(vec.sum()), -np.ones_like(vec)

        monkeypatch.setattr(objective, "full_gradient", unbounded)
        result = trainer.train(samples, _small_config(), lam)
        assert result.log.stop_reason == "halted: line search failed to find an acceptable step"
        fresh = model.init_params(len(result.vocab), 8, 8, seed=5)
        assert np.array_equal(result.params.w1, fresh.w1) and np.array_equal(result.params.w2, fresh.w2)
        assert len(result.log.rows) == 1 and result.state.iteration == 0
        assert result.state.n_evals == 21

    def test_a_gradient_below_tolerance_after_a_step_stops_training(self, monkeypatch):
        samples, lam = synth.generate(_small_spec(sentences=10))
        samples = corpus.dedupe_candidates(samples)
        target = model.pack_params(model.init_params(len(corpus.build_vocabulary(samples)), 8, 8, seed=6))

        def bowl(samples, params, lam, vocab, compiled=None):
            g = model.pack_params(params) - target
            return 0.5 * float(g @ g), g

        monkeypatch.setattr(objective, "full_gradient", bowl)
        result = trainer.train(samples, _small_config(), lam)
        assert result.log.stop_reason == "gradient below tolerance"
        assert result.state.iteration >= 1 and len(result.log.rows) == result.state.iteration + 1
        assert result.log.rows[-1].grad_norm <= 1e-6 < result.log.rows[-2].grad_norm

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

    def test_collects_the_phrase_pairs_once(self, monkeypatch):
        """One compile, which numbers the phrase pairs, per ``train`` call, however many evaluations."""
        samples, lam = synth.generate(_small_spec(sentences=10))
        samples = corpus.dedupe_candidates(samples)
        calls, compiles = [], []
        real_collect, real_compile = corpus.collect_phrase_pairs, objective.compile_corpus

        def counting(s):
            calls.append(len(s))
            return real_collect(s)

        def compiling(s):
            compiles.append(len(s))
            return real_compile(s)

        monkeypatch.setattr(corpus, "collect_phrase_pairs", counting)
        monkeypatch.setattr(objective, "compile_corpus", compiling)
        result = trainer.train(samples, _small_config(max_iterations=5), lam)
        assert result.state.n_evals > 1
        assert compiles == [len(samples)] and calls == []

    def test_weight_decay_changes_the_loss_surface(self):
        samples, lam = synth.generate(_small_spec(sentences=10))
        samples = corpus.dedupe_candidates(samples)
        plain = trainer.train(samples, _small_config(max_iterations=3), lam)
        decayed = trainer.train(samples, _small_config(max_iterations=3, weight_decay=0.05), lam)
        assert decayed.log.rows[0].loss > plain.log.rows[0].loss  # penalty term is positive
        assert np.all(np.isfinite(decayed.params.w1))

    def test_weight_decay_logs_the_undecayed_xbleu(self):
        """The loss column is the decayed objective; the xbleu column is the corpus expected BLEU alone."""
        samples, lam = synth.generate(synth.SynthSpec(sentences=20, seed=4))
        samples = corpus.dedupe_candidates(samples)
        config = trainer.TrainConfig(max_iterations=3, k1=8, k2=6, weight_decay=0.5, timing=False)
        result = trainer.train(samples, config, lam)
        assert len(result.log.rows) == 4
        assert all(0.0 <= row.xbleu <= 1.0 for row in result.log.rows)
        assert result.log.rows[0].loss > 1.0  # the penalty dominates the starting loss
        lam = np.array(lam, dtype=np.float64)
        lam[-1] = config.lambda_feature
        xbleu = objective.corpus_xbleu(samples, result.params, lam, result.vocab)
        assert result.log.rows[-1].xbleu == pytest.approx(xbleu, rel=0.0, abs=1e-12)

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


BENCHMARK_WORKLOADS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json").read_text())


@pytest.mark.parametrize("name, most", [("small-reuse", 4), ("phrase-table", 6), ("long-nbest", 3)])
def test_evaluations_at_the_benchmark_caps(tmp_path, name, most):
    """Set 0 of a benchmark workload at seed 301 (its train corpus), trained with the benchmark's model to its cap.

    Doubling from a unit first step and bisecting took 6 / 11 / 5 evaluations here.
    """
    workload, cfg = BENCHMARK_WORKLOADS["workloads"][name], BENCHMARK_WORKLOADS["model"]
    refs, nbest, weights = synth.synthgen(synth.SynthSpec(seed=301, **workload["spec"]), tmp_path)
    config = trainer.TrainConfig(
        max_iterations=workload["iterations"],
        k1=cfg["k1"],
        k2=cfg["k2"],
        arch=cfg["arch"],
        sim_mode=cfg["sim_mode"],
        seed=cfg["seed"],
        timing=False,
    )
    result = trainer.train(corpus.load_samples(nbest, refs), config, corpus.load_lambda(weights))
    assert result.log.stop_reason == "reached max iterations"
    assert result.state.n_evals <= most


class TestTrace:
    def test_records_account_for_every_evaluation(self, tmp_path):
        samples, lam = synth.generate(_small_spec(sentences=12))
        result = trainer.train(samples, _small_config(max_iterations=8), lam)
        path = tmp_path / "trace.jsonl"
        result.log.write_trace(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        steps = result.log.rows[1:]
        assert len(records) == len(steps) == result.state.iteration == 8
        assert sum(r["evals"] for r in records) + 1 == result.state.n_evals  # plus the starting point's
        for record, row in zip(records, steps):
            assert record == {"iteration": row.iteration, "loss": row.loss, "xbleu": row.xbleu,
                              "grad_norm": row.grad_norm, **vars(row.step)}
            assert record["evals"] >= 1 and 0.0 < record["alpha"]
        assert records[0]["alpha0"] != 1.0 and records[1]["alpha0"] == 1.0  # no pairs at the start, one after

    def test_a_zoom_fallback_and_a_rejected_pair_are_recorded(self):
        def loss_fn(x):  # a constant slope up to a wall: the curvature condition never holds
            return (-float(x[0]) if x[0] <= 1.5 else np.inf), np.array([-1.0])

        state = _started(loss_fn, np.zeros(1))
        x = trainer.lbfgs_step(state, np.zeros(1), loss_fn)
        assert x[0] == pytest.approx(1.5) and state.f < 0.0
        # the zoom bisects toward the wall, then takes its best sufficient decrease; y = 0 there, so s @ y = 0
        assert state.last_step == trainer.StepInfo(1.0, x[0], 42, True, True, False)
        assert state.s_list == [] and state.n_evals == 43


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

    def test_resumed_steps_match_the_uninterrupted_run(self, tmp_path):
        """The checkpoint restores the curvature pairs, so the resumed run's first trial step is 1, as it was."""
        samples, lam, full = self._train_with_checkpoints(tmp_path, iters=8)
        config = _small_config(max_iterations=4, tolerance=1e-12, resume=str(tmp_path / "ck" / "checkpoint-0004.mdl"))
        resumed = trainer.train(samples, config, lam)
        assert resumed.log.rows[0].step is None and resumed.log.rows[1].step.alpha0 == 1.0
        assert [r.step for r in resumed.log.rows[1:]] == [r.step for r in full.log.rows[5:]]

    def test_resume_stops_where_the_uninterrupted_run_stops(self, tmp_path):
        spec = synth.SynthSpec(
            concepts=2, phrases_per_concept=2, sentences=8, phrases_per_sentence=2, candidates=3, noise=0.3, seed=4
        )
        samples, lam = synth.generate(spec)
        samples = corpus.dedupe_candidates(samples)

        def config(**kw):
            return trainer.TrainConfig(max_iterations=200, tolerance=1e-14, k1=4, k2=3, seed=1, **kw)

        full = trainer.train(samples, config(checkpoint_dir=str(tmp_path), checkpoint_interval=1), lam)
        stop = full.log.rows[-1].iteration
        assert full.log.stop_reason.startswith("relative loss change")  # the rule a resumed run must not trip early
        for at in range(stop - 3, stop + 1):
            resumed = trainer.train(samples, config(resume=str(tmp_path / f"checkpoint-{at:04d}.mdl")), lam)
            assert resumed.log.rows[-1].iteration == stop
            assert resumed.log.stop_reason == full.log.stop_reason
            assert resumed.params.w1.tobytes() == full.params.w1.tobytes()
            assert resumed.params.w2.tobytes() == full.params.w2.tobytes()

    def test_checkpoint_stores_optimizer_state(self, tmp_path):
        _, _, _ = self._train_with_checkpoints(tmp_path, iters=4)
        params, state = model.read_model(tmp_path / "ck" / "checkpoint-0004.mdl")
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

    def test_resume_with_init_model_is_refused(self):
        with pytest.raises(ValueError, match="^resume and init_model exclude each other"):
            _small_config(resume="ck/checkpoint-0002.mdl", init_model="missing.bin")

    def test_plain_model_refuses_checkpoint_load(self, tmp_path):
        samples, lam = synth.generate(_small_spec(sentences=4))
        samples = corpus.dedupe_candidates(samples)
        path = tmp_path / "m.bin"
        model.save_model(model.init_params(4, 3, 2, seed=0), path)
        with pytest.raises(model.ModelIOError, match="carries no optimizer state"):
            trainer.train(samples, _small_config(max_iterations=1, resume=str(path)), lam)


def _dev_set_for_tuning(rng, n_samples=12):
    """Dev corpus whose best selection genuinely depends on the weights."""
    samples = make_random_corpus(rng, n_samples=n_samples, max_candidates=5, n_features=1)
    vocab = corpus.build_vocabulary(samples)
    params = model.init_params(len(vocab), 4, 3, seed=13)
    return samples, vocab, params


def _narrow_optimum_set():
    """Dev set whose only perfect selection needs weight 0 in (0.31, 0.34), between grid points 0.05 apart.

    Each candidate's total is ``x * f0 + f1`` at weights ``[x, 1, 0]``; the
    similarity weight is 0 and the zero model makes every similarity 0.
    """

    def sample(sid, reference, candidates):
        reference = tuple(reference.split())
        entries = []
        for text, feats in candidates:
            tokens = tuple(text.split())
            entries.append(corpus.NBestEntry(tokens, np.array(feats), [corpus.PhrasePair(("src",), tokens)]))
        return corpus.TrainingSample(sid, ("src",), reference, entries)

    samples = [
        # the reference wins for x > 0.31
        sample(0, "a b c d e", [("v w x y z", [0.0, 0.31]), ("a b c d e", [1.0, 0.0])]),
        # the reference wins for x < 0.34
        sample(1, "f g h i j", [("q r s t u", [1.0, 0.0]), ("f g h i j", [0.0, 0.34])]),
        # the reference wins on (-0.5, 0.6); the other lines cross each other elsewhere
        sample(2, "k l m n o", [("k l m n p", [3.0, -1.5]), ("k l p p p", [-2.0, 0.0]),
                                ("k l m n o", [0.0, 1.0]), ("k p p p p", [0.5, 0.7])]),
    ]
    vocab = corpus.build_vocabulary(samples)
    params = model.ModelParams(np.zeros((len(vocab), 3)), np.zeros((3, 2)))
    return samples, vocab, params


def _envelope(a, b):
    """Upper envelope of the lines ``a + x * b`` over (-SPAN, SPAN), one sentence at a time: the oracle of ``_envelopes``.

    Returns the points where the argmax changes and the argmax on each piece
    between them (one more piece than points).  Identical lines resolve to the
    lowest index, as ``np.argmax`` does.
    """
    flattest = np.flatnonzero(b == b.min())
    top = int(flattest[np.argmax(a[flattest])])  # the argmax as x -> -inf
    x, points, rows = -np.inf, [], [top]
    while (steeper := np.flatnonzero(b > b[top])).size:
        cross = (a[top] - a[steeper]) / (b[steeper] - b[top])
        x = max(x, float(cross.min()))  # rounding must not walk the envelope backwards
        if x >= trainer.SPAN:
            break
        tied = steeper[cross <= x]
        top = int(tied[np.argmax(b[tied])])  # the steepest line leaves last
        if x > -trainer.SPAN:
            points.append(x)
        rows[len(points) :] = [top]  # a change at or before -SPAN replaces the first piece
    return points, rows


def _tune_lambda_per_sentence(dev_samples, params, vocab, lam_init, max_sweeps=20):
    """``trainer.tune_lambda`` with one ``_envelope`` call per dev sentence per weight: the oracle of the lockstep walk."""
    lam = np.asarray(lam_init, dtype=np.float64).copy()
    compiled, h = objective.score(dev_samples, params, vocab, lam.size)
    bounds = compiled.offsets.tolist()
    feature_rows = [h[a:b] for a, b in zip(bounds, bounds[1:])]
    stats = [s.stats for s in dev_samples]

    def picked_bleu():
        return float(bleu.corpus_bleu_rows(sum(st[np.argmax(h @ lam)] for h, st in zip(feature_rows, stats)))[0])

    best = picked_bleu()
    for _ in range(max_sweeps):
        improved = False
        for j in range(lam.size):
            start, points, deltas = 0, [], []
            for h, st in zip(feature_rows, stats):
                xs, rows = _envelope(h @ lam - lam[j] * h[:, j], h[:, j])
                start = start + st[rows[0]]
                points += xs
                deltas += [st[new] - st[old] for old, new in zip(rows, rows[1:])]
            order = np.argsort(points, kind="stable")
            xs = np.asarray(points)[order]
            sums = start + np.cumsum(np.reshape(deltas, (-1, start.size))[order], axis=0)
            last = np.diff(xs, append=np.inf) != 0
            edges = np.concatenate(([-trainer.SPAN], xs[last], [trainer.SPAN]))
            scores = bleu.corpus_bleu_rows(np.vstack([start, sums[last]]))
            ties = np.flatnonzero(scores == scores.max())
            k = ties[np.argmin(np.abs(np.clip(lam[j], edges[ties], edges[ties + 1]) - lam[j]))]
            if scores[k] > best + trainer.MIN_GAIN:
                kept, lam[j] = lam[j], 0.5 * (edges[k] + edges[k + 1])
                gained = picked_bleu()
                if gained > best + trainer.MIN_GAIN:
                    best, improved = gained, True
                else:
                    lam[j] = kept
        if not improved:
            break
    return lam


def _layout(lengths):
    """A ``CompiledCorpus`` that only lays out candidates: sample s has ``lengths[s]`` of them, unlabelled."""
    offsets = np.cumsum([0, *lengths])
    empty = np.empty(0, dtype=np.intp)
    n = offsets[-1]
    return objective.CompiledCorpus(
        (), (), empty.reshape(0, 2), empty, empty, offsets, np.empty((n, 0)), np.zeros((n, 10), np.int64), np.zeros(n)
    )


def _ragged_lines(rng, n_samples):
    """Lines ``a + x * b`` of 1 to 12 per sample, drawn so that ties are common.

    Small integer grids give duplicate lines, equal slopes and crossings
    exactly at +-SPAN; some samples are all parallel, some fan out from one
    point at +-SPAN, some are random reals, and some fan out from a random
    point, where rounding would walk an envelope backwards.
    """
    lengths, a, b = [], [], []
    for s in range(n_samples):
        n = int(rng.integers(1, 13))
        kind = s % 5
        if kind == 0:
            la, lb = rng.integers(-10, 11, n), rng.integers(-3, 4, n)
        elif kind == 1:
            la, lb = rng.integers(-3, 4, n), np.full(n, rng.integers(-2, 3))
        elif kind == 2:
            lb = rng.integers(-3, 4, n)
            la = rng.integers(-2, 3) - rng.choice([-trainer.SPAN, trainer.SPAN]) * lb
            la[: n // 3] = rng.integers(-10, 11, n // 3)
        elif kind == 3:
            la, lb = rng.normal(0.0, 3.0, n), rng.normal(0.0, 1.0, n)
        else:  # through one point, so rounding scatters the crossings around it
            lb = rng.normal(0.0, 1.0, n)
            la = rng.normal() - rng.uniform(-trainer.SPAN, trainer.SPAN) * lb
        lengths.append(n)
        a.append(np.asarray(la, dtype=np.float64))
        b.append(np.asarray(lb, dtype=np.float64))
    return lengths, np.concatenate(a), np.concatenate(b)


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
        """One ``pair_similarities`` array per call, one entry per unique dev pair, each its pair's similarity."""
        samples, vocab, params = _dev_set_for_tuning(rng)
        calls = []
        real = objective.pair_similarities

        def recording(compiled, p, fw):
            sims = real(compiled, p, fw)
            calls.append((compiled.pairs, sims))
            return sims

        monkeypatch.setattr(objective, "pair_similarities", recording)
        trainer.tune_lambda(samples, params, vocab, np.array([0.3, 1.0]))
        assert len(calls) == 1
        pairs, sims = calls[0]
        unique = corpus.collect_phrase_pairs(samples)
        assert list(pairs) == list(unique)
        assert sims.shape == (len(unique),)
        assert len(unique) < sum(unique.values())
        for pair, sim in zip(pairs, sims.tolist()):
            assert sim == pytest.approx(model.similarity(pair.source, pair.target, params, vocab), rel=0.0, abs=1e-15)

    def test_lands_in_interval_narrower_than_grid_step(self):
        samples, vocab, params = _narrow_optimum_set()
        lam0 = np.array([0.0, 1.0, 0.0])

        def dev_bleu(x):
            return rerank.rerank(samples, params, np.array([x, 1.0, 0.0]), vocab).reranked_bleu

        assert max(dev_bleu(x) for x in np.linspace(-5.0, 5.0, 201)) < 1.0  # no grid point sees it
        tuned = trainer.tune_lambda(samples, params, vocab, lam0)
        assert 0.31 < tuned[0] < 0.34
        tuned_bleu = rerank.rerank(samples, params, tuned, vocab).reranked_bleu
        assert tuned_bleu == 1.0

        # brute force over the midpoints between every pair of lines' crossings
        crossings = set()
        for sample in samples:
            lines = [(e.features[1], e.features[0]) for e in sample.candidates]
            for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
                if b1 != b2 and -5.0 < (a2 - a1) / (b1 - b2) < 5.0:
                    crossings.add((a2 - a1) / (b1 - b2))
        edges = [-5.0, *sorted(crossings), 5.0]
        assert len(edges) > 6
        assert tuned_bleu == max(dev_bleu(0.5 * (lo + hi)) for lo, hi in zip(edges, edges[1:]))

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

    def test_lockstep_envelopes_match_the_per_sentence_oracle(self):
        rng = np.random.default_rng(20261020)
        at_span = 0
        for _ in range(60):
            lengths, a, b = _ragged_lines(rng, int(rng.integers(1, 30)))
            offsets = np.cumsum([0, *lengths])
            rows, points, count = trainer._envelopes(_layout(lengths), a, b)
            for s, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
                want_points, want_rows = _envelope(a[lo:hi], b[lo:hi])
                assert points[s, : count[s]].tobytes() == np.array(want_points, dtype=np.float64).tobytes()
                assert rows[s, : count[s] + 1].tolist() == want_rows
                da, db = np.subtract.outer(a[lo:hi], a[lo:hi]), np.subtract.outer(b[lo:hi], b[lo:hi])
                at_span += np.any((db != 0) & (np.abs(da) == trainer.SPAN * np.abs(db)))
        assert at_span > 100  # lines that cross exactly at -SPAN or SPAN were drawn

    @pytest.mark.parametrize("zero_model", [False, True])
    def test_tuned_weights_match_the_per_sentence_oracle(self, zero_model):
        rng = np.random.default_rng(7 + zero_model)
        moved = 0
        for _ in range(25):
            samples, vocab, params = make_tied_corpus(rng, zero_model)
            lam0 = rng.integers(-4, 5, size=samples[0].candidates[0].features.size + 1) / 2.0
            for sweeps in (1, 20):
                tuned = trainer.tune_lambda(samples, params, vocab, lam0, max_sweeps=sweeps)
                assert tuned.tobytes() == _tune_lambda_per_sentence(samples, params, vocab, lam0, sweeps).tobytes()
                moved += not np.array_equal(tuned, lam0)
        assert moved > 10

    @pytest.mark.parametrize("zero_model", [False, True])
    def test_tune_reports_the_reranked_bleu_before_and_after(self, zero_model):
        # On some tied sets the interval that tuning scores best is a rounding sliver between two crossing points
        # that are equal in exact arithmetic, and the BLEU it scores there is not the one its weights rerank to.
        rng = np.random.default_rng(31 + zero_model)
        moved = 0
        for _ in range(20):
            samples, vocab, params = make_tied_corpus(rng, zero_model)
            lam0 = rng.integers(-4, 5, size=samples[0].candidates[0].features.size + 1) / 2.0
            scored = objective.score(samples, params, vocab, lam0.size)
            for sweeps in (1, 20):
                tuned, before, after = trainer.tune(*scored, lam0, sweeps)
                assert tuned.tobytes() == trainer.tune_lambda(samples, params, vocab, lam0, sweeps).tobytes()
                assert before.hex() == rerank.rerank(samples, params, lam0, vocab).reranked_bleu.hex()
                assert after.hex() == rerank.rerank(samples, params, tuned, vocab).reranked_bleu.hex()
                moved += after != before
        assert moved > 5

    def test_tied_sets_never_end_below_their_start(self):
        # Seeds 62, 75, 165 and 172 score best on a rounding sliver whose picks score below the start.
        below, moved = [], 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            samples, vocab, params = make_tied_corpus(rng, zero_model=True)
            lam0 = random_lambda(rng)
            tuned, before, after = trainer.tune(*objective.score(samples, params, vocab, lam0.size), lam0, 20)
            assert after.hex() == rerank.rerank(samples, params, tuned, vocab).reranked_bleu.hex()
            if after < before:
                below.append(seed)
            moved += not np.array_equal(tuned, lam0)
        assert below == []
        assert moved > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_weight_that_is_not_finite_is_refused(self, rng, bad):
        samples, vocab, params = _dev_set_for_tuning(rng)
        with pytest.raises(ValueError, match=rf"weights must be finite, got \[0\.3, {bad}\]"):
            trainer.tune_lambda(samples, params, vocab, np.array([0.3, bad]))

    def test_matches_grid_search_oracle(self, rng):
        samples, vocab, params = _dev_set_for_tuning(rng, n_samples=10)
        lam0 = np.array([0.0, 0.0])
        tuned = trainer.tune_lambda(samples, params, vocab, lam0)
        tuned_bleu = rerank.rerank(samples, params, tuned, vocab).reranked_bleu

        # exhaustive 100x100 sweep with independently computed selections
        cached = []
        for sample in samples:
            base = np.array([float(e.features[0]) for e in sample.candidates])
            feat = np.array(
                [objective.candidate_feature(e, params, vocab) for e in sample.candidates]
            )
            stats = [bleu.bleu_stats(sample.reference, e.tokens) for e in sample.candidates]
            cached.append((base, feat, stats))
        grid = np.linspace(-5.0, 5.0, 100)
        best = 0.0
        for a in grid:
            for b in grid:
                chosen = []
                for base, feat, stats in cached:
                    idx = int(np.argmax(a * base + b * feat))
                    chosen.append(stats[idx])
                best = max(best, bleu.corpus_bleu_from_stats(chosen))
        assert tuned_bleu >= best - 1e-9
