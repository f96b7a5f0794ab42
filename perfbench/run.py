#!/usr/bin/env python3
"""Pipeline benchmark: time the semphrase user pipeline on synthetic corpora.

    python3 perfbench/run.py --workload phrase-table --seed 1 --seconds 40 --trace 0

Each pipeline runs, on one corpus set of the workload, the stages of the
``semphrase`` CLI through the library's public functions, single-threaded:

* setup: ``corpus.load_samples`` for train, dev and test (parse and label every
  candidate with sentence BLEU), ``corpus.load_lambda``, ``corpus.build_vocabulary``;
* train: ``trainer.train`` up to the workload's iteration cap;
* save: ``model.save_model`` and ``corpus.save_vocabulary``;
* tune: ``trainer.tune_lambda`` on dev, capped at ``TUNE_SWEEPS`` sweeps;
* rerank: ``rerank.rerank`` on test with the tuned weights.

A separate process writes the inputs first (``gen.py``).  The pipeline runs on
every set, then round after round over the sets while the next pipeline should
end within ``--seconds``; every time metric is the mean over the sets of
each set's median over its pipelines, in seconds at the nominal speed of a
fixed probe sampled throughout each untraced pipeline (``SpeedSampler``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends a third of
the time untraced and the rest on repetitions over all sets with the span
recorder of ``spans.py`` installed, and prints the per-layer metrics (totals
over the sets of one repetition, median over traced repetitions).

Output checks run in the same command; each failure is a failed operation.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 if
any operation failed.  ``--workload all`` runs every workload in turn, each
in its own process so that its peak memory is its own.

Metric names and units, and the workload names, come from ``BENCHMARK.json``
at the repository root; ``workloads.json`` holds each workload's corpus spec,
caps and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# The pipeline runs single-threaded, BLAS included (set before numpy loads; the
# input generator inherits it).  Threaded BLAS spends a second core on these
# small products and makes timings depend on what else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spans import Recorder, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

STAGES = ("setup", "train", "save", "tune", "rerank")

# Public functions wrapped in the traced run; True marks the ones called once
# per phrase, pair or candidate, which are aggregated instead of kept as spans.
TRACED = {
    "corpus.load_references": False,
    "corpus.parse_nbest": False,
    "corpus.build_vocabulary": False,
    "corpus.collect_phrase_pairs": False,
    "bleu.sentence_bleu": True,
    "bleu.bleu_stats": True,
    "bleu.corpus_bleu_from_stats": True,
    "model.project": True,
    "model.similarity": True,
    "objective.full_gradient": False,
    "objective.pair_similarities": False,
    "objective.error_terms": False,
    "objective.sim_gradient": False,
    "objective.candidate_feature": True,
    "trainer.train": False,
    "trainer.lbfgs_step": False,
    "trainer.tune_lambda": False,
    "rerank.rerank": False,
}

STOP_AT_CAP = "reached max iterations"

# Without a cap, tuning makes two or three sweeps depending on the corpus.
TUNE_SWEEPS = 1

# End-to-end timings, each taken from one pipeline run, in seconds at the
# probe's nominal speed (see ``SpeedSampler``).
TIMED = {
    "pipeline_s": lambda o: sum(o.scaled.values()),
    "setup_s": lambda o: o.scaled["setup"],
    "train_s": lambda o: o.scaled["train"],
    "train_evals_per_s": lambda o: o.evals / o.scaled["train"],
    "tune_s": lambda o: o.scaled["tune"],
    "rerank_s": lambda o: o.scaled["rerank"],
}

# The speed probe: a fixed mix of the pipeline's kinds of work (small matrix
# products, array updates, dict and tuple churn in the interpreter), about a
# millisecond long.  It exercises no library code, so a change to the library
# leaves it alone.
PROBE_NOMINAL_S = 0.001
PROBE_INTERVAL_S = 0.05
_PROBE_W = np.random.default_rng(0).standard_normal((100, 100)) * 0.1
_PROBE_ACC = np.zeros((40, 100))


def probe_once() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    v = np.ones(100)
    counts = {}
    for i in range(160):
        v = np.tanh(_PROBE_W @ v)
        _PROBE_ACC[i % 40] += v
        key = ("probe", i % 17)
        counts[key] = counts.get(key, 0) + float(v[i % 100])
    return time.perf_counter() - start


class SpeedSampler:
    """The machine's speed, sampled by the probe every ``PROBE_INTERVAL_S`` of wall time.

    A shared host runs the same code up to about 1.6 times slower, in spells
    that last from a twentieth of a second to tens of seconds, and every kind
    of work of the pipeline slows by about the same factor.  While a pipeline
    runs, a timer signal runs the probe; each stage also samples just before
    and just after it.  A stage's time, less the time spent in the probe, is
    scaled by its mean speed: nominal probe time over measured probe time,
    averaged over the samples from just before the stage to just after it.
    """

    def __init__(self):
        self.speeds = []
        self.busy = 0.0  # seconds spent in the probe, taken out of the stage times
        self._sampling = False

    def sample(self, *_) -> int:
        """Take one sample; returns how many have been taken."""
        if not self._sampling:  # a timer signal that lands inside a sample is dropped
            self._sampling = True
            start = time.perf_counter()
            self.speeds.append(PROBE_NOMINAL_S / probe_once())
            self.busy += time.perf_counter() - start
            self._sampling = False
        return len(self.speeds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first: int, last: int) -> float:
        """Mean speed over samples ``first`` to ``last``, counted from 1."""
        return statistics.fmean(self.speeds[first - 1:last])


def as_metrics(section: str, values: dict) -> dict:
    """The metrics of one BENCHMARK.json section that were measured, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCH[section] if m["name"] in values}


def per_layer_names() -> list[str]:
    return [m["name"] for m in BENCH["per_layer"]]


@dataclass
class Checks:
    """Operations attempted and failed: pipeline stages and output checks."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Outcome:
    """What one pipeline run produced, and how long each stage took."""

    times: dict
    scaled: dict
    evals: int
    iterations: int
    stop_reason: str
    losses: list
    xbleu: float
    test_bleu: float
    model_hash: str
    selection_hash: str
    shape: dict | None = None
    baseline_bleu: float | None = None


def count_lines(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def code_digest() -> str:
    """Digest of the library and benchmark sources, so records never mix versions."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("semphrase/*.py"), *HERE.glob("*.py"), HERE / "workloads.json",
                        ROOT / "BENCHMARK.json"]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def shape_of(sm, set_dir: Path, train, dev, test, vocab, model_cfg) -> dict:
    """Size of one corpus set as the pipeline saw it."""
    pairs = sm.corpus.collect_phrase_pairs(train)
    phrases = {p.source for p in pairs} | {p.target for p in pairs}
    d, k1, k2 = len(vocab), model_cfg["k1"], model_cfg["k2"]
    return {
        "sentences": len(train),
        "nbest_lines": count_lines(set_dir / "train" / "nbest.txt"),
        "candidates_kept": sum(len(s.candidates) for s in train),
        "unique_pairs": len(pairs),
        "occurrences": sum(pairs.values()),
        "unique_phrases": len(phrases),
        "vocabulary": d,
        "parameters": d * k1 + k1 * k2,
        "dev_unique_pairs": len(sm.corpus.collect_phrase_pairs(dev)),
        "lines_all": sum(count_lines(set_dir / r / "nbest.txt") for r in ("train", "dev", "test")),
        "kept_all": sum(len(s.candidates) for part in (train, dev, test) for s in part),
    }


def baseline_bleu(sm, test, lam) -> float:
    """Test BLEU of the selection by the baseline weights of lambda.txt, similarity off."""
    lam = np.asarray(lam, dtype=np.float64)
    pairs = []
    for sample in test:
        bases = [float(lam[:-1] @ entry.features) for entry in sample.candidates]
        pairs.append((sample.reference, sample.candidates[int(np.argmax(bases))].tokens))
    return sm.bleu.corpus_bleu(pairs)


def run_pipeline(sm, set_dir: Path, out_dir: Path, wl: dict, model_cfg: dict, recorder=None,
                 first=False) -> Outcome:
    """One pipeline; ``first`` (untraced only) also records the set's shape and baseline BLEU."""
    corpus, model, rerank, trainer = sm.corpus, sm.model, sm.rerank, sm.trainer
    times, scaled = {}, {}

    @contextmanager
    def stage(name):
        gc.collect()  # garbage of earlier stages is not this stage's cost
        if sampler is None:
            with recorder.span(name):
                start = time.perf_counter()
                yield
                times[name] = time.perf_counter() - start
            return
        first, busy = sampler.sample(), sampler.busy
        start = time.perf_counter()
        yield
        times[name] = time.perf_counter() - start - (sampler.busy - busy)
        scaled[name] = times[name] * sampler.speed(first, sampler.sample())

    def load(role):
        return corpus.load_samples(set_dir / role / "nbest.txt", set_dir / role / "refs.txt")

    # Untraced pipelines sample the machine's speed; traced ones report raw times.
    sampler = None if recorder else SpeedSampler()
    with sampler or nullcontext():
        with stage("setup"):
            train, dev, test = load("train"), load("dev"), load("test")
            lam = corpus.load_lambda(set_dir / "train" / "lambda.txt")
            vocab = corpus.build_vocabulary(train)
        with stage("train"):
            config = trainer.TrainConfig(
                max_iterations=wl["iterations"],
                k1=model_cfg["k1"],
                k2=model_cfg["k2"],
                arch=model_cfg["arch"],
                sim_mode=model_cfg["sim_mode"],
                seed=model_cfg["seed"],
                threads=model_cfg["threads"],
            )
            result = trainer.train(train, config, lam, vocab)
        model_path = out_dir / "model.bin"
        with stage("save"):
            model.save_model(result.params, model_path)
            corpus.save_vocabulary(result.vocab, out_dir / "model.bin.vocab")
        with stage("tune"):
            tuned = trainer.tune_lambda(dev, result.params, vocab, lam, max_sweeps=TUNE_SWEEPS)
        with stage("rerank"):
            ranked = rerank.rerank(test, result.params, tuned, vocab)

    selections = ",".join(f"{s.sample_id}:{s.index}" for s in ranked.selections)
    return Outcome(
        times=times,
        scaled=scaled,
        evals=result.state.n_evals,
        iterations=result.state.iteration,
        stop_reason=result.log.stop_reason,
        losses=[row.loss for row in result.log.rows],
        xbleu=result.log.rows[-1].xbleu,
        test_bleu=ranked.reranked_bleu,
        model_hash=file_hash(model_path),
        selection_hash=hashlib.sha256(selections.encode()).hexdigest(),
        shape=shape_of(sm, set_dir, train, dev, test, vocab, model_cfg) if first else None,
        baseline_bleu=baseline_bleu(sm, test, lam) if first else None,
    )


def run_checked(sm, j, set_dir, out_dir, wl, model_cfg, checks, recorder=None, first=False):
    """The pipeline on corpus set ``j``, with the output checks of a single run."""
    try:
        out = run_pipeline(sm, set_dir, out_dir, wl, model_cfg, recorder, first)
    except Exception:  # a failing stage is a failed operation; keep measuring the rest
        traceback.print_exc()
        checks.check(False, f"set {j}: pipeline raised")
        return None
    checks.attempted += len(STAGES)
    checks.check(
        out.stop_reason == STOP_AT_CAP and out.iterations == wl["iterations"],
        f"set {j}: training stopped early ({out.stop_reason!r} after {out.iterations} iterations)",
    )
    checks.check(
        all(b <= a for a, b in zip(out.losses, out.losses[1:])),
        f"set {j}: logged loss increased",
    )
    return out


def round_robin(budget, n_sets, run_one) -> list[list]:
    """Outcomes per set: every set once, then further rounds over the sets for as
    long as the next pipeline, judged by that set's last one, ends within ``budget``."""
    runs = [[] for _ in range(n_sets)]
    last = [0.0] * n_sets
    start = time.perf_counter()
    for i in itertools.count():
        j = i % n_sets
        if i >= n_sets and time.perf_counter() - start + last[j] > budget:
            return runs
        t0 = time.perf_counter()
        runs[j].append(run_one(j, i < n_sets))
        last[j] = time.perf_counter() - t0


def median_or_same(values):
    """The median, or the value itself when every repetition agrees (keeps counts integral)."""
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def end_to_end(per_set) -> dict:
    """Each timing is the mean over corpus sets of that set's median over repetitions.

    The median over repetitions damps the machine's noise.  Sets differ in how
    many evaluations training needs (a whole number, 6 to 8 on small-reuse),
    so a median over sets would jump by a whole evaluation between seeds; the
    mean over sets moves smoothly.  The quality figures are means over sets too
    (they are deterministic).
    """
    per_set = [[o for o in runs if o is not None] for runs in per_set]
    metrics = {}
    if all(per_set):
        for name, value in TIMED.items():
            metrics[name] = statistics.fmean(statistics.median(value(o) for o in runs) for runs in per_set)
        metrics["wall_pipeline_s"] = statistics.fmean(
            statistics.median(sum(o.times.values()) for o in runs) for runs in per_set)
        metrics["train_xbleu"] = statistics.fmean(runs[0].xbleu for runs in per_set)
        metrics["test_bleu"] = statistics.fmean(runs[0].test_bleu for runs in per_set)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def layer_figures(recorder, rep, shapes, model_cfg, checks, loads) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and its deterministic counts."""
    calls, secs, selfs = {}, {}, {}
    by_stage = {}  # (stage, name) -> [calls, seconds, self]
    stage_self = {}
    for name, n, seconds, self_s, root in recorder.records():
        calls[name] = calls.get(name, 0) + n
        secs[name] = secs.get(name, 0.0) + seconds
        selfs[name] = selfs.get(name, 0.0) + self_s
        acc = by_stage.setdefault((root.name, name), [0, 0.0, 0.0])
        acc[0] += n
        acc[1] += seconds
        acc[2] += self_s
        stage_self[root.id] = stage_self.get(root.id, 0.0) + self_s
    # Self time is a span's duration minus its direct children's, so this sum
    # telescopes to the stage's duration: printed to show it, not checked.
    gap = max(abs(stage_self[s.id] - s.seconds) for s in recorder.spans if s.parent is None)
    print(f"self times under each stage sum to its traced wall time within {gap:.3g} s")

    def staged(stage, name, i):
        return by_stage.get((stage, name), [0, 0.0, 0.0])[i]

    evals = sum(o.evals for o in rep)
    iterations = sum(o.iterations for o in rep)
    pair_evals = sum(o.evals * s["unique_pairs"] for o, s in zip(rep, shapes))
    phrase_evals = sum(o.evals * s["unique_phrases"] for o, s in zip(rep, shapes))
    dense = 0
    k1, k2 = model_cfg["k1"], model_cfg["k2"]
    for span in recorder.spans:
        if span.name == "objective.sim_gradient":
            dense += 8 * (shapes[span.run]["vocabulary"] * k1 + k1 * k2)

    counts = {f"{name}.calls": c for name, c in sorted(calls.items())}
    counts["corpus.parse_nbest.lines"] = sum(s["lines_all"] for s in shapes)
    counts["corpus.kept"] = sum(s["kept_all"] for s in shapes)
    counts["objective.sim_gradient.dense_bytes"] = dense
    counts["train.evals"] = evals
    counts["train.iterations"] = iterations

    fig = {
        "corpus.parse_nbest.lines": counts["corpus.parse_nbest.lines"],
        "corpus.kept_ratio": counts["corpus.kept"] / counts["corpus.parse_nbest.lines"],
        "model.project.per_unique_phrase": staged("train", "model.project", 0) / phrase_evals,
        "model.similarity.per_unique_pair_tune": staged("tune", "model.similarity", 0)
        / sum(s["dev_unique_pairs"] for s in shapes),
        "objective.sim_gradient.per_unique_pair": calls.get("objective.sim_gradient", 0) / pair_evals,
        "objective.sim_gradient.dense_bytes": dense,
        "trainer.evals_per_iteration": evals / iterations,
    }
    # The remaining metrics are named after the traced function they total.
    by_kind = {"calls": calls, "s": secs, "self_s": selfs}
    for metric in per_layer_names():
        qualname, _, kind = metric.rpartition(".")
        if metric not in fig and kind in by_kind:
            fig[metric] = by_kind[kind].get(qualname, 0)

    checks.check(
        fig["objective.sim_gradient.per_unique_pair"] == 1.0,
        f"sim_gradient calls per evaluation per unique pair is {fig['objective.sim_gradient.per_unique_pair']!r}",
    )
    train_s = sum(o.times["train"] for o in rep)
    setup_s = sum(o.times["setup"] for o in rep)
    if loads == "phase2":
        train_self = {name: s for (stage, name), (_, _, s) in by_stage.items() if stage == "train"}
        top = max(train_self, key=train_self.get)
        checks.check(
            top == "objective.sim_gradient",
            f"largest self time in train is {top} ({train_self[top]:.3f} s of {train_s:.3f} s), "
            f"not objective.sim_gradient ({train_self.get('objective.sim_gradient', 0.0):.3f} s)",
        )
    elif loads == "scoring":
        labeling = staged("setup", "corpus.parse_nbest", 1) + staged("setup", "bleu.sentence_bleu", 1)
        checks.check(
            labeling > 0.5 * setup_s,
            f"parsing plus sentence BLEU take {labeling:.3f} s of setup {setup_s:.3f} s",
        )
        phase1 = staged("train", "objective.error_terms", 1)
        phase2 = staged("train", "objective.sim_gradient", 1)
        checks.check(phase1 > phase2, f"phase 1 ({phase1:.3f} s) not longer than phase 2 ({phase2:.3f} s)")
    return fig, counts


def evaluation_percentiles(recorders) -> dict:
    """Median and tail of objective evaluations pooled over traced repetitions.

    The tail is the highest percentile with at least 10 evaluations beyond it
    (the smallest evaluation when there are fewer than 11).
    """
    durations = sorted(s.seconds for r in recorders for s in r.spans if s.name == "objective.full_gradient")
    rank = max(len(durations) - 10, 1)
    return {
        "objective.full_gradient.p50_s": statistics.median(durations),
        "objective.full_gradient.tail_s": durations[rank - 1],
        "objective.full_gradient.tail_pct": 100.0 * rank / len(durations),
        "n": len(durations),
    }


class Records:
    """Shapes, hashes and trace counts of earlier runs, keyed by workload, seed and code digest."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def agree(self, key: str, field_name: str, value, checks: Checks) -> None:
        entry = self.data.setdefault(key, {})
        if field_name in entry:
            diff = sorted(k for k in set(entry[field_name]) | set(value)
                          if entry[field_name].get(k) != value.get(k))
            checks.check(not diff, f"{field_name} differ from an earlier run of {key}: {diff[:5]}")
        else:
            entry[field_name] = value

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def import_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from semphrase import bleu, corpus, model, objective, rerank, trainer

    modules = [bleu, corpus, model, objective, rerank, trainer]
    return SimpleNamespace(modules=modules, **{m.__name__.rsplit(".", 1)[-1]: m for m in modules})


def run_workload(name: str, wl: dict, seed: int, seconds: float, trace: bool, work: Path,
                 model_cfg: dict | None = None) -> dict:
    """Generate the inputs, measure, check; returns the result object."""
    model_cfg = model_cfg or CONFIG["model"]
    sm = import_library()
    checks = Checks()
    work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--out", str(tmp / "inputs"), "--seed", str(seed),
             "--sets", str(wl["sets"]), "--spec", json.dumps(wl["spec"])],
            check=True,
        )
        set_dirs = [tmp / "inputs" / str(j) for j in range(wl["sets"])]
        out_dir = tmp / "out"
        out_dir.mkdir()

        # The first round also records the shape and baseline BLEU of every set,
        # outside the stage timers.
        untraced_runs = round_robin(
            seconds / 3 if trace else seconds, len(set_dirs),
            lambda j, first: run_checked(sm, j, set_dirs[j], out_dir, wl, model_cfg, checks, first=first))
        shapes = [runs[0].shape if runs[0] else None for runs in untraced_runs]
        baselines = [runs[0].baseline_bleu if runs[0] else None for runs in untraced_runs]
        for j, shape in enumerate(shapes):
            print(f"shape set {j}: {json.dumps(shape)}")
        untraced = end_to_end(untraced_runs)
        if "wall_pipeline_s" in untraced:
            print(f"{name} unscaled pipeline wall time {untraced['wall_pipeline_s']:.4f} s")

        traced, recorders = [], []
        if trace:
            def traced_rep(_j, _first):
                recorder = Recorder()
                with installed(recorder, sm.modules, TRACED):
                    rep = []
                    for j, set_dir in enumerate(set_dirs):
                        recorder.run = j
                        rep.append(run_checked(sm, j, set_dir, out_dir, wl, model_cfg, checks, recorder))
                recorders.append(recorder)
                return rep

            traced = round_robin(seconds - seconds / 3, 1, traced_rep)[0]

        records = Records(work / "records.json")
        key = f"{name}:{seed}:{code_digest()}"
        if None not in shapes:
            records.agree(key, "shapes", {str(j): shape for j, shape in enumerate(shapes)}, checks)
        hashes = {}
        every_run = [(j, o) for j, runs in enumerate(untraced_runs) for o in runs]
        every_run += [(j, o) for rep in traced for j, o in enumerate(rep)]
        for j, o in every_run:
            if o is None:
                continue
            for what, value in (("model", o.model_hash), ("selections", o.selection_hash)):
                h = hashes.setdefault(f"{j}.{what}", value)
                checks.check(h == value, f"set {j}: {what} bytes differ between repetitions")
            if baselines[j] is not None:
                checks.check(
                    o.test_bleu > baselines[j],
                    f"set {j}: test BLEU {o.test_bleu:.4f} not above the baseline-weights "
                    f"selection's {baselines[j]:.4f}",
                )
        records.agree(key, "hashes", hashes, checks)

        metrics = {}
        if not trace:
            metrics = as_metrics("end_to_end", untraced)
        elif None not in shapes:
            figures, counts = [], None
            for recorder, rep in zip(recorders, traced):
                if any(o is None for o in rep):
                    continue
                fig, c = layer_figures(recorder, rep, shapes, model_cfg, checks, wl["loads"])
                checks.check(counts is None or c == counts, "per-layer counts differ between traced repetitions")
                counts = counts or c
                figures.append(fig)
                if "wall_pipeline_s" in untraced:
                    traced_pipeline = statistics.median(sum(o.times.values()) for o in rep)
                    fig["trace.overhead_s"] = traced_pipeline - untraced["wall_pipeline_s"]
            recorders[-1].write(work / f"spans-{name}-{seed}.jsonl")
            if counts is not None:
                records.agree(key, "counts", counts, checks)
                pooled = evaluation_percentiles(recorders)
                values = {k: pooled[k] if k in pooled else median_or_same([f[k] for f in figures])
                          for k in per_layer_names() if k in pooled or all(k in f for f in figures)}
                metrics = as_metrics("per_layer", values)
                print(f"tail: objective.full_gradient.tail_s is p{pooled['objective.full_gradient.tail_pct']:.1f} "
                      f"of n={pooled['n']} evaluations")
        records.save()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for k, m in metrics.items():
        print(f"{name} {k} {m['value']!r} {m['unit']}")
    print(f"{name} ops {checks.attempted} failed_ops {checks.failed}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def run_in_child(name: str, args) -> dict:
    """Run one workload in its own process; forward its output and return its result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True,
    )
    sys.stdout.write(proc.stdout)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        print(f"check failed: workload {name} exited with code {proc.returncode} without a result",
              file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def main(argv=None) -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser(description="semphrase pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semphrase" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        why = next(w["why"] for w in BENCH["workloads"] if w["name"] == args.workload)
        print(f"workload {args.workload}: {why}")
        result = run_workload(args.workload, CONFIG["workloads"][args.workload], args.seed, args.seconds,
                              bool(args.trace), WORK)
    else:
        results = {name: run_in_child(name, args) for name in names}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
