"""The benchmark's own output checks on its real workload specs, once each.

``perfbench/run.py`` checks every pipeline it times: training runs to its
iteration cap with a non-increasing loss, tuned weights rerank the test set
above the baseline weights' selection, and model and selection bytes repeat.
The perfbench smoke test runs a tiny spec; this runs every set of each real
spec once, so a change that fails those checks fails here too.  Long-nbest
and phrase-table also run once traced, so their gates on where the time goes
(long-nbest: parsing over half of setup, phase 1 longer than phase 2;
phrase-table: ``sim_gradient`` the largest self time in training) run here
as well.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize("name", ["small-reuse", "phrase-table", "long-nbest"])
def test_real_spec_passes_its_output_checks(tmp_path, capsys, name):
    result = run.run_workload(name, run.CONFIG["workloads"][name], seed=0, seconds=0.0, trace=False, work=tmp_path)
    out = capsys.readouterr().out
    assert result["attempted"] > 0
    assert result["failed"] == 0, out[-3000:]


@pytest.mark.parametrize("arch", ["linear", "nonlinear"])
def test_small_reuse_passes_its_output_checks_under_cosine(tmp_path, capsys, arch):
    """The benchmark times nonlinear/dot only; every mode shares the forward pass its checks exercise."""
    model_cfg = dict(run.CONFIG["model"], arch=arch, sim_mode="cosine")
    wl = run.CONFIG["workloads"]["small-reuse"]
    result = run.run_workload("small-reuse", wl, seed=0, seconds=0.0, trace=False, work=tmp_path, model_cfg=model_cfg)
    out = capsys.readouterr().out
    assert result["attempted"] > 0
    assert result["failed"] == 0, out[-3000:]


def test_long_nbest_passes_its_traced_gates(tmp_path, capsys):
    """One traced run: its timing gates (parsing over half of setup, phase 1 longer than phase 2) hold."""
    wl = run.CONFIG["workloads"]["long-nbest"]
    result = run.run_workload("long-nbest", wl, seed=0, seconds=0.0, trace=True, work=tmp_path)
    out = capsys.readouterr().out
    assert result["attempted"] > 0
    assert result["failed"] == 0, out[-3000:]


def test_phrase_table_passes_its_traced_gates(tmp_path, capsys):
    """One traced run: its timing gate (phase 2's ``sim_gradient`` the largest self time in train) holds."""
    wl = run.CONFIG["workloads"]["phrase-table"]
    result = run.run_workload("phrase-table", wl, seed=0, seconds=0.0, trace=True, work=tmp_path)
    out = capsys.readouterr().out
    assert result["attempted"] > 0
    assert result["failed"] == 0, out[-3000:]
