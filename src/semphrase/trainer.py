"""Batch training of the projection matrices and tuning of the log-linear weights.

The projection matrices are fit with limited-memory BFGS over the whole
corpus, on the flat ``model.pack_params`` vector that ``objective.full_gradient``
returns its gradient in: two-loop recursion over the last ``HISTORY`` curvature
pairs and a strong-Wolfe line search (``C1`` = 1e-4, ``C2`` = 0.9).  With no
curvature pairs held (at the start, and after a restart to steepest descent)
the first trial step is 1/‖g‖₂, a unit move along -g; otherwise it is 1 on the
two-loop direction, which sᵀy/yᵀy already scales (Nocedal & Wright 2006, §3.5
and §7.2).  The search doubles the trial step until it brackets an acceptable
one; the zoom then picks each trial by the cubic that matches the loss and its
slope at both ends of the bracket (N&W eq. 3.59), and bisects when that
cubic's minimiser is not finite or lies within a tenth of the bracket's width
of an end, or when an end's loss is not finite.  Every accepted step strictly
lowers the loss, so the logged loss sequence is non-increasing.  ``train``
makes every stopping decision, before each step: the gradient's infinity norm
against the tolerance, then the relative loss change over three steps, then
the iteration cap.  ``lbfgs_step`` takes one step, or returns None when its
line search fails, which halts training.  Each step's ``StepInfo`` (trial and
accepted step length, evaluations, zoom fallback, rejected curvature pair,
restart) rides on its log row, and ``TrainingLog.write_trace`` writes them as
JSON lines (``train --trace``).
The feature weights are tuned afterwards by deterministic coordinate ascent
on dev-set corpus BLEU of the ``H @ lam`` argmax that reranking selects by,
with the exact line search of minimum error rate training (Och 2003): each
weight moves to the best interval of (-``SPAN``, ``SPAN``) between the points
where a sentence's selection changes, if that gains more than ``MIN_GAIN``.
``train`` compiles its corpus once (``objective.compile_corpus``) and passes
it to every evaluation.  ``tune`` works on a dev corpus that
``objective.score`` compiled and scored once: it lays the totals and the
searched column of H out as (sentences x longest list) arrays
(``CompiledCorpus.padded``) and walks every dev sentence's upper envelope in
lockstep over them, one array step per envelope edge (``_envelopes``).

Training is bitwise reproducible for a fixed seed, configuration, numpy/BLAS
build and BLAS thread count: every pass runs in sample order, and checkpoints
are written atomically by ``model.save_model``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bleu, model, objective, rerank
from .corpus import Vocabulary, atomic_writer, build_vocabulary
from .model import ModelParams

HISTORY = 10  # curvature pairs kept by L-BFGS
REL_LOSS_TOLERANCE = 1e-9  # per-iteration relative loss change, 3 in a row, stops training
C1 = 1e-4  # strong-Wolfe sufficient decrease
C2 = 0.9  # strong-Wolfe curvature
SPAN = 5.0  # tuning searches each weight over (-SPAN, SPAN)
MIN_GAIN = 1e-6  # dev corpus BLEU gain a tuned weight must bring


@dataclass(frozen=True)
class StepInfo:
    """What one L-BFGS step did, as ``train --trace`` records it."""

    alpha0: float  # the first trial step length
    alpha: float  # the accepted step length
    evals: int  # objective evaluations the line search made
    zoom_fallback: bool  # the zoom took its best sufficient decrease, the curvature condition unmet
    pair_rejected: bool  # ``store_pair`` refused the step's curvature pair
    restarted: bool  # the two-loop direction was not a descent direction: the step restarted from -g


@dataclass
class LbfgsState:
    """L-BFGS memory: the last ``m`` curvature pairs, and the loss ``f`` and gradient ``g`` at the current point.

    ``iteration`` counts accepted steps, ``n_evals`` evaluations (a failed line search's among them).
    """

    m: int = HISTORY
    s_list: list = field(default_factory=list)
    y_list: list = field(default_factory=list)
    iteration: int = 0
    f: float | None = None
    g: np.ndarray | None = None
    n_evals: int = 0
    last_step: StepInfo | None = None

    def store_pair(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Keep the pair unless its curvature sᵀy is not > 0; returns whether it was kept."""
        if float(s @ y) <= 0.0:  # keep the inverse-Hessian estimate positive definite
            return False
        self.s_list.append(s)
        self.y_list.append(y)
        if len(self.s_list) > self.m:
            self.s_list.pop(0)
            self.y_list.pop(0)
        return True


def _two_loop_direction(state: LbfgsState, g: np.ndarray) -> np.ndarray:
    pairs = [(s, y, 1.0 / float(s @ y)) for s, y in zip(state.s_list, state.y_list)]
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        gamma = float(s @ y) / float(y @ y)
    else:
        gamma = 1.0
    r = gamma * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ r)
        r += (a - b) * s
    return -r


def _unit_step(g: np.ndarray) -> float:
    """1/‖g‖₂, the trial step that moves the parameters a unit distance along -g; 1.0 if that is not finite and > 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sqrt(g @ g))
    a0 = 1.0 / norm if norm > 0.0 else math.inf
    return a0 if 0.0 < a0 < math.inf else 1.0


def _cubic_minimizer(lo, hi) -> float:
    """The minimiser of the cubic matching f and φ′ at both ends (Nocedal & Wright eq. 3.59); NaN if it has none."""
    (a, fa, _, da), (b, fb, _, db) = lo, hi
    fa, fb = float(fa), float(fb)  # Python floats: an overflow gives inf, not a numpy warning
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    radicand = d1 * d1 - da * db
    if not radicand >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(radicand), b - a)
    denominator = db - da + 2.0 * d2
    return b - (b - a) * (db + d2 - d1) / denominator if denominator != 0.0 else math.nan


def _zoom_trial(lo, hi) -> float:
    """The zoom's next trial step: the cubic minimiser, or the midpoint when it is unsafe.

    The midpoint is taken when an end's loss is not finite, or when the
    minimiser is not finite or lies within a tenth of the bracket's width of
    either end.
    """
    a_lo, a_hi = lo[0], hi[0]
    if math.isfinite(lo[1]) and math.isfinite(hi[1]):
        a = _cubic_minimizer(lo, hi)
        margin = 0.1 * abs(a_hi - a_lo)
        if min(a_lo, a_hi) + margin <= a <= max(a_lo, a_hi) - margin:
            return a
    return 0.5 * (a_lo + a_hi)


def _zoom(evaluate, f0, d0, lo, hi, max_iter=40):
    """Shrink the bracket between the points ``lo`` and ``hi``, each ``(alpha, f, g, dphi)``, to a strong-Wolfe step.

    ``lo`` always satisfies sufficient decrease with the lowest loss seen.
    Returns ``(alpha, f, g, fell_back)``, or None on failure: when the
    bracket collapses (or ``max_iter`` trials pass) before the curvature
    condition holds, it falls back to ``lo`` if that moved off 0.
    """
    for _ in range(max_iter):
        if abs(hi[0] - lo[0]) < 1e-16 * max(1.0, abs(lo[0])):
            break
        point = evaluate(_zoom_trial(lo, hi))
        a, f, g, d = point
        if not np.isfinite(f) or f > f0 + C1 * a * d0 or f >= lo[1]:
            hi = point
            continue
        if abs(d) <= -C2 * d0:
            return a, f, g, False
        if d * (hi[0] - lo[0]) >= 0.0:
            hi = lo
        lo = point
    return (*lo[:3], True) if lo[0] > 0.0 else None


def _strong_wolfe(loss_fn, x, f0, g0, p, a0, max_iter=20):
    """Line search from the trial step ``a0``, doubled until it brackets a strong-Wolfe step.

    Returns ``(alpha, f, g, fell_back, evals)``, ``fell_back`` telling
    whether ``_zoom`` fell back to its best sufficient decrease.  On failure
    ``alpha``, ``f`` and ``g`` are None and ``evals`` still counts the
    evaluations made.
    """
    failed = (None, None, None, False)
    d0 = float(g0 @ p)
    if d0 >= 0.0:
        return (*failed, 0)
    evals = 0

    def evaluate(a: float):
        nonlocal evals
        evals += 1
        f, g = loss_fn(x + a * p)
        return a, f, g, float(g @ p)

    prev = (0.0, f0, g0, d0)
    a = a0
    for i in range(max_iter):
        point = evaluate(a)
        _, f, g, d = point
        if not np.isfinite(f) or f > f0 + C1 * a * d0 or (i > 0 and f >= prev[1]):
            return (*(_zoom(evaluate, f0, d0, prev, point) or failed), evals)
        if abs(d) <= -C2 * d0:
            return a, f, g, False, evals
        if d >= 0.0:
            return (*(_zoom(evaluate, f0, d0, point, prev) or failed), evals)
        prev = point
        a *= 2.0
    return (*failed, evals)


def lbfgs_step(state: LbfgsState, x: np.ndarray, loss_fn) -> np.ndarray | None:
    """One quasi-Newton step from ``x``; ``state.f`` and ``state.g`` must be the loss and gradient there.

    ``loss_fn`` maps a vector to ``(loss, gradient)`` and must be deterministic.
    Returns the new parameters (``state`` moved there, ``state.last_step``
    recording the step), or None when the line search finds no acceptable
    step.  ``state.n_evals`` counts the search's evaluations either way.
    """
    p = _two_loop_direction(state, state.g)
    restarted = float(state.g @ p) >= 0.0
    if restarted:  # stale curvature info: restart from steepest descent
        state.s_list.clear()
        state.y_list.clear()
        p = -state.g.copy()
    alpha0 = 1.0 if state.s_list else _unit_step(state.g)  # sᵀy/yᵀy already scales the two-loop direction
    alpha, f_new, g_new, fell_back, evals = _strong_wolfe(loss_fn, x, state.f, state.g, p, alpha0)
    state.n_evals += evals
    if alpha is None:
        return None
    x_new = x + alpha * p
    stored = state.store_pair(x_new - x, g_new - state.g)
    state.last_step = StepInfo(alpha0, alpha, evals, fell_back, not stored, restarted)
    state.f, state.g = f_new, g_new
    state.iteration += 1
    return x_new


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
    threads: int = 1  # accepted and ignored: every pass runs in one thread, BLAS aside
    checkpoint_dir: str | None = None
    checkpoint_interval: int = 0  # 0 disables checkpoints; a positive one needs checkpoint_dir
    init_model: str | None = None  # warm-start W1 from this model file
    resume: str | None = None  # checkpoint file to resume from
    timing: bool = True  # False logs 0.0 in the seconds column

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance!r}")
        if not math.isfinite(self.lambda_feature):
            raise ValueError(f"lambda_feature must be finite, got {self.lambda_feature!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if self.checkpoint_interval < 0:
            raise ValueError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")
        if self.checkpoint_interval > 0 and not self.checkpoint_dir:
            raise ValueError(f"checkpoint_interval {self.checkpoint_interval} needs a checkpoint_dir")
        if self.resume is not None and self.init_model is not None:
            raise ValueError("resume and init_model exclude each other: a resumed run starts from its checkpoint")


@dataclass(frozen=True)
class LogRow:
    iteration: int
    loss: float
    xbleu: float
    grad_norm: float
    seconds: float
    step: StepInfo | None = None  # the L-BFGS step that reached this row; None at the starting point


@dataclass
class TrainingLog:
    rows: list[LogRow] = field(default_factory=list)
    stop_reason: str = ""

    def add(self, iteration, loss, xbleu, grad_norm, seconds, step=None) -> None:
        self.rows.append(LogRow(iteration, loss, xbleu, grad_norm, seconds, step))

    def write(self, path) -> None:
        with atomic_writer(path) as fh:
            fh.write("iter\tloss\txbleu\tgradnorm\tseconds\n")
            for r in self.rows:
                fh.write(
                    f"{r.iteration}\t{r.loss!r}\t{r.xbleu!r}\t{r.grad_norm!r}\t{r.seconds:.6f}\n"
                )

    def write_trace(self, path) -> None:
        """One JSON line per L-BFGS step: the row's loss, xBLEU and gradient infinity norm, then its ``StepInfo``."""
        with atomic_writer(path) as fh:
            for r in self.rows:
                if r.step is not None:
                    row = {"iteration": r.iteration, "loss": r.loss, "xbleu": r.xbleu, "grad_norm": r.grad_norm}
                    fh.write(json.dumps({**row, **asdict(r.step)}) + "\n")


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocabulary
    log: TrainingLog
    state: LbfgsState


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
                f"{config.init_model}: initial model W1 has shape {pre.w1.shape}, "
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

    if config.resume is not None:
        params, ck = model.read_model(config.resume)
        if ck is None:
            raise model.ModelIOError(f"{config.resume}: model file carries no optimizer state")
        _check_resume(config.resume, params, config, vocab)
        state = LbfgsState(iteration=ck["iteration"])
        for s, y in zip(ck["s_list"], ck["y_list"]):
            state.store_pair(s, y)
    else:
        params = _initial_params(config, vocab)
        state = LbfgsState()

    x = model.pack_params(params)
    compiled = objective.compile_corpus(samples)

    def penalty(vec: np.ndarray) -> float:
        return 0.5 * config.weight_decay * float(vec @ vec) if config.weight_decay else 0.0

    def loss_fn(vec: np.ndarray):
        p = model.unpack_params(params, vec)
        loss, g = objective.full_gradient(samples, p, lam, vocab, compiled)
        if config.weight_decay != 0.0:
            loss = loss + penalty(vec)
            g = g + config.weight_decay * vec
        return loss, g

    log = TrainingLog()
    last_mark = time.perf_counter()

    def elapsed() -> float:
        nonlocal last_mark
        if not config.timing:
            return 0.0
        now = time.perf_counter()
        seconds = now - last_mark
        last_mark = now
        return seconds

    def log_row() -> None:
        grad_norm = float(np.max(np.abs(state.g)))
        log.add(state.iteration, state.f, -(state.f - penalty(x)), grad_norm, elapsed(), state.last_step)

    state.f, state.g = loss_fn(x)
    state.n_evals += 1
    log_row()
    # A checkpoint's loss window already ends with the loss at its iteration.
    loss_window = [state.f] if config.resume is None else list(ck["loss_window"])

    def maybe_checkpoint():
        if config.checkpoint_interval and state.iteration % config.checkpoint_interval == 0:
            os.makedirs(config.checkpoint_dir, exist_ok=True)
            path = os.path.join(config.checkpoint_dir, f"checkpoint-{state.iteration:04d}.mdl")
            history = {
                "iteration": state.iteration,
                "s_list": state.s_list,
                "y_list": state.y_list,
                "loss_window": loss_window[-4:],
            }
            model.save_model(model.unpack_params(params, x), path, trainer=history)

    stop = ""
    steps_taken = 0
    while not stop:
        # Checked before each step, so a run resumed from the checkpoint it stopped at stops there too.
        recent = loss_window[-4:]
        if float(np.max(np.abs(state.g))) <= config.tolerance:
            stop = "gradient below tolerance" + ("" if steps_taken else " at the starting point")
        elif len(recent) == 4 and all(
            abs(b - a) <= REL_LOSS_TOLERANCE * max(1.0, abs(a)) for a, b in zip(recent, recent[1:])
        ):
            stop = "relative loss change below tolerance for 3 iterations"
        elif steps_taken >= config.max_iterations:
            stop = "reached max iterations"
        elif (x_new := lbfgs_step(state, x, loss_fn)) is None:
            stop = "halted: line search failed to find an acceptable step"
        else:
            x = x_new
            steps_taken += 1
            log_row()
            loss_window.append(state.f)
            maybe_checkpoint()

    log.stop_reason = stop
    return TrainResult(model.unpack_params(params, x), vocab, log, state)


def _envelopes(compiled: objective.CompiledCorpus, a: np.ndarray, b: np.ndarray):
    """Upper envelopes of every sample's lines ``a + x * b`` over (-SPAN, SPAN), walked in lockstep.

    ``a`` and ``b`` hold one entry per candidate of ``compiled``.  Returns
    ``(rows, points, count)``: sample s's argmax changes ``count[s]`` times,
    at ``points[s, :count[s]]``, and is candidate ``rows[s, k]`` of the
    sample on piece k (entries past those are unused).  Each step of the
    walk moves every sample that has not reached SPAN to a strictly steeper
    line, so it takes fewer steps than the longest list has candidates.
    Padding is compared, never computed with.  Identical lines resolve to
    the lowest index, as ``np.argmax`` does.
    """
    lines_a = compiled.padded(a, -np.inf)
    lines_b = compiled.padded(b, -np.inf)  # padding is never steeper, nor the flattest
    n_samples, longest = lines_b.shape
    flattest = lines_b == compiled.padded(b, np.inf).min(axis=1, keepdims=True)
    top = np.argmax(np.where(flattest, lines_a, -np.inf), axis=1)  # the argmax as x -> -inf
    rows = np.zeros((n_samples, longest), dtype=np.intp)
    rows[:, 0] = top
    points = np.empty((n_samples, longest - 1))
    count = np.zeros(n_samples, dtype=np.intp)
    x = np.full(n_samples, -np.inf)
    walking = np.arange(n_samples)
    while walking.size:
        b_top = lines_b[walking, top[walking]]
        steeper = lines_b[walking] > b_top[:, None]
        left = steeper.any(axis=1)
        walking, steeper, b_top = walking[left], steeper[left], b_top[left]
        i, j = np.nonzero(steeper)
        s = walking[i]
        cross = np.full(steeper.shape, np.inf)
        cross[i, j] = (lines_a[s, top[s]] - lines_a[s, j]) / (lines_b[s, j] - b_top[i])
        at = np.maximum(x[walking], cross.min(axis=1))  # rounding must not walk an envelope backwards
        left = at < SPAN
        walking, cross, at = walking[left], cross[left], at[left]
        # the steepest line leaves last; a line that is not steeper crosses at +inf
        new = np.argmax(np.where(cross <= at[:, None], lines_b[walking], -np.inf), axis=1)
        inside = at > -SPAN
        points[walking[inside], count[walking[inside]]] = at[inside]
        count[walking] += inside
        rows[walking, count[walking]] = new  # a change at or before -SPAN replaces the first piece
        top[walking], x[walking] = new, at
    return rows, points, count


def tune_lambda(
    dev_samples, params: ModelParams, vocab: Vocabulary, lam_init, max_sweeps: int = 20
) -> np.ndarray:
    """The weights ``tune`` returns for the ``objective.score`` of ``dev_samples`` under ``params``."""
    lam = rerank.finite_weights(lam_init)
    return tune(*objective.score(dev_samples, params, vocab, lam.size), lam, max_sweeps)[0]


def tune(
    compiled: objective.CompiledCorpus, h: np.ndarray, lam_init, max_sweeps: int = 20
) -> tuple[np.ndarray, float, float]:
    """Coordinate ascent on dev corpus BLEU of the argmax selection, one exact line search per weight.

    ``compiled`` and ``h`` are a dev corpus scored by ``objective.score``.
    Along weight j each sentence's selection changes only where the upper
    envelope of its candidates' lines ``total(x)`` does; summing the BLEU
    statistics of the selections between those points scores every interval
    of (-SPAN, SPAN).  The envelopes of all dev sentences are walked in
    lockstep by ``_envelopes``, one array step per envelope edge.  The
    midpoint of the best interval (the nearest to the current value on a
    tie) is kept if the picks there, scored afresh, gain more than
    ``MIN_GAIN``: an interval between two crossing points that are equal in
    exact arithmetic is a rounding sliver, and its picks can score below
    what its interval's sum says.  Sweeps repeat until none improves, so
    the result never scores below ``lam_init``.  A NaN or
    infinite weight in ``lam_init`` is refused.  Returns the tuned weights
    and the dev BLEU ``rerank.rerank`` reports at ``lam_init`` and at them.
    """
    lam = rerank.finite_weights(lam_init).copy()
    stats, first = compiled.stats, compiled.offsets[:-1]

    def picked_bleu() -> float:
        return float(bleu.corpus_bleu_rows(stats[first + compiled.picks(h @ lam)].sum(axis=0))[0])

    before = best = picked_bleu()
    for _ in range(max_sweeps):
        improved = False
        for j in range(lam.size):
            rows, points, count = _envelopes(compiled, h @ lam - lam[j] * h[:, j], h[:, j])
            rows += first[:, None]  # candidate rows of the corpus
            made = np.arange(points.shape[1]) < count[:, None]  # the changes, sample-major
            start = stats[rows[:, 0]].sum(axis=0)
            deltas = stats[rows[:, 1:][made]] - stats[rows[:, :-1][made]]
            order = np.argsort(points[made], kind="stable")  # keeps each sentence's changes in order
            xs = points[made][order]
            sums = start + np.cumsum(deltas[order], axis=0)
            last = np.diff(xs, append=np.inf) != 0  # the selections after all changes at a point
            edges = np.concatenate(([-SPAN], xs[last], [SPAN]))
            scores = bleu.corpus_bleu_rows(np.vstack([start, sums[last]]))
            ties = np.flatnonzero(scores == scores.max())
            k = ties[np.argmin(np.abs(np.clip(lam[j], edges[ties], edges[ties + 1]) - lam[j]))]
            if scores[k] > best + MIN_GAIN:
                kept, lam[j] = lam[j], 0.5 * (edges[k] + edges[k + 1])
                gained = picked_bleu()  # a rounding sliver's picks can score below its interval
                if gained > best + MIN_GAIN:
                    best, improved = gained, True
                else:
                    lam[j] = kept
        if not improved:
            break
    return lam, before, best
