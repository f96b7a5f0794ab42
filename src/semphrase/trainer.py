"""Batch training of the projection matrices and tuning of the log-linear weights.

The projection matrices are fit with limited-memory BFGS over the whole
corpus, on the flat ``model.pack_params`` vector that ``objective.full_gradient``
returns its gradient in: two-loop recursion over the last ``HISTORY`` curvature
pairs and a strong-Wolfe line search (``C1`` = 1e-4, ``C2`` = 0.9).  Every
accepted step strictly lowers the loss, so the logged loss sequence is
non-increasing.
The feature weights are tuned afterwards by deterministic coordinate ascent
on dev-set corpus BLEU, a light-weight stand-in for a full error-rate trainer.

Tuning scores candidates with ``objective.feature_matrix``, the same
``H @ lam`` totals that reranking selects by.

Training is bitwise reproducible for a fixed seed and configuration: every
pass runs single-threaded in sample order, and checkpoints are written
atomically by ``model.save_model``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import bleu, model, objective
from .corpus import Vocabulary, build_vocabulary
from .model import ModelParams

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
HISTORY = 10  # curvature pairs kept by L-BFGS
REL_LOSS_TOLERANCE = 1e-9  # per-iteration relative loss change, 3 in a row, stops training
C1 = 1e-4  # strong-Wolfe sufficient decrease
C2 = 0.9  # strong-Wolfe curvature


@dataclass
class LbfgsState:
    """Optimizer memory: displacement/gradient-difference pairs and stopping tolerance."""

    m: int = HISTORY
    gtol: float = 1e-6
    s_list: list = field(default_factory=list)
    y_list: list = field(default_factory=list)
    rho_list: list = field(default_factory=list)
    iteration: int = 0
    f: float | None = None
    g: np.ndarray | None = None
    n_evals: int = 0
    converged: bool = False
    failed: bool = False
    fail_reason: str = ""

    def store_pair(self, s: np.ndarray, y: np.ndarray) -> None:
        curvature = float(s @ y)
        if curvature <= 0.0:  # keep the inverse-Hessian estimate positive definite
            return
        self.s_list.append(s)
        self.y_list.append(y)
        self.rho_list.append(1.0 / curvature)
        if len(self.s_list) > self.m:
            self.s_list.pop(0)
            self.y_list.pop(0)
            self.rho_list.pop(0)


def _two_loop_direction(state: LbfgsState, g: np.ndarray) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(state.s_list), reversed(state.y_list), reversed(state.rho_list)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if state.y_list:
        s, y = state.s_list[-1], state.y_list[-1]
        gamma = float(s @ y) / float(y @ y)
    else:
        gamma = 1.0
    r = gamma * q
    for (s, y, rho), a in zip(
        zip(state.s_list, state.y_list, state.rho_list), reversed(alphas)
    ):
        b = rho * float(y @ r)
        r += (a - b) * s
    return -r


def _zoom(evaluate, f0, d0, a_lo, f_lo, g_lo, a_hi, max_iter=40):
    for _ in range(max_iter):
        if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
            break
        a = 0.5 * (a_lo + a_hi)
        f, g, d = evaluate(a)
        if not np.isfinite(f) or f > f0 + C1 * a * d0 or f >= f_lo:
            a_hi = a
            continue
        if abs(d) <= -C2 * d0:
            return a, f, g
        if d * (a_hi - a_lo) >= 0.0:
            a_hi = a_lo
        a_lo, f_lo, g_lo = a, f, g
    # The interval collapsed before the curvature condition held; fall back to
    # the best point satisfying sufficient decrease, if any.
    if a_lo > 0.0 and g_lo is not None:
        return a_lo, f_lo, g_lo
    return None


def _strong_wolfe(loss_fn, x, f0, g0, p, max_iter=20):
    """Line search returning (alpha, f, g, evals) or None on failure."""
    d0 = float(g0 @ p)
    if d0 >= 0.0:
        return None
    evals = 0

    def evaluate(a: float):
        nonlocal evals
        evals += 1
        f, g = loss_fn(x + a * p)
        return f, g, float(g @ p)

    a_prev, f_prev, g_prev = 0.0, f0, g0
    a = 1.0
    for i in range(max_iter):
        f, g, d = evaluate(a)
        if not np.isfinite(f) or f > f0 + C1 * a * d0 or (i > 0 and f >= f_prev):
            result = _zoom(evaluate, f0, d0, a_prev, f_prev, g_prev, a)
            return None if result is None else (*result, evals)
        if abs(d) <= -C2 * d0:
            return a, f, g, evals
        if d >= 0.0:
            result = _zoom(evaluate, f0, d0, a, f, g, a_prev)
            return None if result is None else (*result, evals)
        a_prev, f_prev, g_prev = a, f, g
        a *= 2.0
    return None


def lbfgs_step(state: LbfgsState, x: np.ndarray, loss_fn) -> tuple[np.ndarray, LbfgsState]:
    """One quasi-Newton update of the flat parameter vector.

    ``loss_fn`` maps a vector to ``(loss, gradient)`` and must be
    deterministic.  When the gradient is already below the state's tolerance
    the step is a no-op and the state is marked converged; a failed line
    search marks the state failed and leaves the parameters at their last
    good value.
    """
    if state.f is None or state.g is None:
        state.f, state.g = loss_fn(x)
        state.n_evals += 1
    if float(np.max(np.abs(state.g))) <= state.gtol:
        state.converged = True
        return x, state
    p = _two_loop_direction(state, state.g)
    if float(state.g @ p) >= 0.0:  # stale curvature info: restart from steepest descent
        state.s_list.clear()
        state.y_list.clear()
        state.rho_list.clear()
        p = -state.g.copy()
    result = _strong_wolfe(loss_fn, x, state.f, state.g, p)
    if result is None:
        state.failed = True
        state.fail_reason = "line search failed to find an acceptable step"
        return x, state
    alpha, f_new, g_new, evals = result
    state.n_evals += evals
    x_new = x + alpha * p
    state.store_pair(x_new - x, g_new - state.g)
    state.f, state.g = f_new, g_new
    state.iteration += 1
    if float(np.max(np.abs(g_new))) <= state.gtol:
        state.converged = True
    return x_new, state


@dataclass
class TrainConfig:
    """Training hyperparameters and bookkeeping options."""

    max_iterations: int = 100
    tolerance: float = 1e-6  # infinity norm of the gradient
    k1: int = 100
    k2: int = 100
    arch: str = model.ARCH_NONLINEAR
    sim_mode: str | None = None  # None picks the architecture default
    word_level: bool = False
    seed: int = 0
    lambda_feature: float = 1.0  # weight of the similarity feature during training
    weight_decay: float = 0.0
    threads: int = 1  # accepted and ignored: every pass is single-threaded
    checkpoint_dir: str | None = None
    checkpoint_interval: int = 0  # 0 disables checkpoints
    init_model: str | None = None  # warm-start W1 from this model file
    resume: str | None = None  # checkpoint file to resume from
    timing: bool = True  # False logs 0.0 in the seconds column

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.lambda_feature):
            raise ValueError(f"lambda_feature must be finite, got {self.lambda_feature!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")


@dataclass(frozen=True)
class LogRow:
    iteration: int
    loss: float
    xbleu: float
    grad_norm: float
    seconds: float


@dataclass
class TrainingLog:
    rows: list[LogRow] = field(default_factory=list)
    stop_reason: str = ""

    def add(self, iteration, loss, xbleu, grad_norm, seconds) -> None:
        self.rows.append(LogRow(iteration, loss, xbleu, grad_norm, seconds))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter\tloss\txbleu\tgradnorm\tseconds\n")
            for r in self.rows:
                fh.write(
                    f"{r.iteration}\t{r.loss!r}\t{r.xbleu!r}\t{r.grad_norm!r}\t{r.seconds:.6f}\n"
                )


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocabulary
    log: TrainingLog
    state: LbfgsState


def save_checkpoint(path, params: ModelParams, state: LbfgsState, loss_window) -> None:
    """Model file with the optimizer history appended after the matrices."""
    trainer_state = {
        "iteration": state.iteration,
        "s_list": state.s_list,
        "y_list": state.y_list,
        "loss_window": loss_window,
    }
    model.save_model(params, path, trainer=trainer_state)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint: parameters plus optimizer history and loss window."""
    params, trainer_state = model.read_model(path)
    if trainer_state is None:
        raise model.ModelIOError(f"{path}: model file carries no optimizer state")
    return params, trainer_state


def _check_resume(path, params: ModelParams, config: TrainConfig, vocab: Vocabulary) -> None:
    """Refuse a checkpoint whose shape or similarity settings differ from the run's."""
    wanted = {
        "arch": config.arch,
        "d": len(vocab),
        "k1": config.k1,
        "k2": config.k2 if config.arch == model.ARCH_NONLINEAR else 0,
        "sim_mode": config.sim_mode or model.default_sim_mode(config.arch),
        "word_level": config.word_level,
    }
    for name, want in wanted.items():
        got = getattr(params, name)
        if got != want:
            what = "the corpus vocabulary size" if name == "d" else "the configuration"
            raise ValueError(f"{path}: checkpoint has {name}={got!r}, but {what} gives {want!r}")


def _initial_params(config: TrainConfig, vocab: Vocabulary) -> ModelParams:
    w1_init = None
    if config.init_model is not None:
        pre = model.load_model(config.init_model)
        if pre.w1.shape != (len(vocab), config.k1):
            raise ValueError(
                f"initial model W1 has shape {pre.w1.shape}, "
                f"expected {(len(vocab), config.k1)}"
            )
        w1_init = pre.w1
    return model.init_params(
        len(vocab),
        config.k1,
        config.k2,
        config.arch,
        config.sim_mode,
        config.word_level,
        config.seed,
        w1_init=w1_init,
    )


def train(samples, config: TrainConfig, lam, vocab: Vocabulary | None = None) -> TrainResult:
    """Fit the projection matrices on an N-best corpus with cached sentence BLEU.

    The similarity-feature weight is pinned to ``config.lambda_feature``
    (default 1.0) for the duration of training; the remaining weights are
    taken from ``lam`` unchanged.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no training samples")
    if vocab is None:
        vocab = build_vocabulary(samples)
    lam = np.asarray(lam, dtype=np.float64).copy()
    lam[-1] = config.lambda_feature

    loss_window: list[float] = []
    if config.resume is not None:
        params, ck = load_checkpoint(config.resume)
        _check_resume(config.resume, params, config, vocab)
        state = LbfgsState(gtol=config.tolerance, iteration=ck["iteration"])
        for s, y in zip(ck["s_list"], ck["y_list"]):
            state.store_pair(s, y)
        loss_window = list(ck["loss_window"])
    else:
        params = _initial_params(config, vocab)
        state = LbfgsState(gtol=config.tolerance)

    template = params
    x = model.pack_params(params)

    def loss_fn(vec: np.ndarray):
        p = model.unpack_params(template, vec)
        loss, g = objective.full_gradient(samples, p, lam, vocab)
        if config.weight_decay != 0.0:
            loss = loss + 0.5 * config.weight_decay * float(vec @ vec)
            g = g + config.weight_decay * vec
        return loss, g

    log = TrainingLog()
    start = time.perf_counter()
    last_mark = start

    def elapsed() -> float:
        nonlocal last_mark
        if not config.timing:
            return 0.0
        now = time.perf_counter()
        seconds = now - last_mark
        last_mark = now
        return seconds

    state.f, state.g = loss_fn(x)
    state.n_evals += 1
    log.add(state.iteration, state.f, -state.f, float(np.max(np.abs(state.g))), elapsed())
    loss_window.append(state.f)

    def maybe_checkpoint():
        if config.checkpoint_dir and config.checkpoint_interval > 0:
            if state.iteration % config.checkpoint_interval == 0:
                os.makedirs(config.checkpoint_dir, exist_ok=True)
                path = os.path.join(config.checkpoint_dir, f"checkpoint-{state.iteration:04d}.mdl")
                save_checkpoint(
                    path, model.unpack_params(template, x), state, loss_window[-4:]
                )

    stop = ""
    if float(np.max(np.abs(state.g))) <= config.tolerance:
        stop = "gradient below tolerance at the starting point"
    steps_taken = 0
    while not stop:
        if steps_taken >= config.max_iterations:
            stop = "reached max iterations"
            break
        x, state = lbfgs_step(state, x, loss_fn)
        if state.failed:
            stop = f"halted: {state.fail_reason}"
            break
        steps_taken += 1
        log.add(state.iteration, state.f, -state.f, float(np.max(np.abs(state.g))), elapsed())
        loss_window.append(state.f)
        maybe_checkpoint()
        if state.converged:
            stop = "gradient below tolerance"
            break
        if len(loss_window) >= 4:
            recent = loss_window[-4:]
            small = all(
                abs(recent[i + 1] - recent[i]) <= REL_LOSS_TOLERANCE * max(1.0, abs(recent[i]))
                for i in range(3)
            )
            if small:
                stop = "relative loss change below tolerance for 3 iterations"
                break

    log.stop_reason = stop
    return TrainResult(model.unpack_params(template, x), vocab, log, state)


def _selection_stats(dev_samples):
    """Cache per-candidate feature rows and BLEU statistics for fast tuning sweeps."""
    cached = []
    for sample in dev_samples:
        stats = [bleu.bleu_stats(sample.reference, e.tokens) for e in sample.candidates]
        cached.append(stats)
    return cached


def _dev_bleu(feature_rows, stats_cache, lam: np.ndarray) -> float:
    chosen = []
    for rows, stats in zip(feature_rows, stats_cache):
        idx = int(np.argmax(rows @ lam))  # ties resolve to the lowest index
        chosen.append(stats[idx])
    return bleu.corpus_bleu_from_stats(chosen)


def tune_lambda(
    dev_samples,
    params: ModelParams,
    vocab: Vocabulary,
    lam_init,
    span: float = 5.0,
    min_gain: float = 1e-6,
    max_sweeps: int = 20,
) -> np.ndarray:
    """Coordinate ascent on dev corpus BLEU of the argmax selection.

    Each coordinate is scanned over [-span, span] and the best bracket is
    refined by golden-section search; a new value is kept only when it
    improves corpus BLEU by more than ``min_gain``.  Sweeps repeat in a fixed
    coordinate order until none improves, so the result never scores below
    ``lam_init``.
    """
    dev_samples = list(dev_samples)
    if not dev_samples:
        raise ValueError("no dev samples")
    lam = np.asarray(lam_init, dtype=np.float64).copy()
    sims = objective.pair_similarities(dev_samples, params, vocab)
    feature_rows = [objective.feature_matrix(s, params, vocab, sims, lam.size) for s in dev_samples]
    stats_cache = _selection_stats(dev_samples)

    def score_with(j: int, value: float) -> float:
        trial = lam.copy()
        trial[j] = value
        return _dev_bleu(feature_rows, stats_cache, trial)

    best = _dev_bleu(feature_rows, stats_cache, lam)
    for _ in range(max_sweeps):
        improved = False
        for j in range(lam.size):
            grid = np.linspace(-span, span, 201)
            values = [score_with(j, v) for v in grid]
            k = int(np.argmax(values))
            cand_value, cand_score = float(grid[k]), values[k]
            # golden-section refinement inside the winning bracket
            lo = float(grid[max(k - 1, 0)])
            hi = float(grid[min(k + 1, grid.size - 1)])
            a, b = lo, hi
            for _ in range(30):
                x1 = b - GOLDEN * (b - a)
                x2 = a + GOLDEN * (b - a)
                f1, f2 = score_with(j, x1), score_with(j, x2)
                if f1 > cand_score:
                    cand_value, cand_score = x1, f1
                if f2 > cand_score:
                    cand_value, cand_score = x2, f2
                if f1 >= f2:
                    b = x2
                else:
                    a = x1
            if cand_score > best + min_gain:
                lam[j] = cand_value
                best = cand_score
                improved = True
        if not improved:
            break
    return lam
