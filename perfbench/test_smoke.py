"""Smoke test of the benchmark harness on a tiny corpus.

    python3 -m pytest -q perfbench

Runs every stage once untraced and once traced, and checks that every metric
named in BENCHMARK.json is emitted with its unit and that no check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "spec": {"concepts": 3, "phrases_per_concept": 2, "sentences": 30, "phrases_per_sentence": 3,
             "candidates": 6, "noise": 0.4},
    "iterations": 2,
    "sets": 2,
    "loads": None,
}


@pytest.fixture(scope="module")
def bench():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_emits_every_metric(tmp_path, bench, capsys, trace, section):
    model = dict(run.CONFIG["model"], k1=8, k2=6)
    result = run.run_workload("tiny", TINY, seed=5, seconds=0.0, trace=trace, work=tmp_path, model_cfg=model)
    out = capsys.readouterr().out
    assert result["correct"], out
    assert result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(bench[section])
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["objective.sim_gradient.per_unique_pair"]["value"] == 1.0
        assert (tmp_path / "spans-tiny-5.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "small-reuse", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
