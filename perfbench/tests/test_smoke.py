"""Tiny-size runs of all four workloads, timed and traced, in-process."""
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, measure, report
from perfbench.spans import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY_RANKS = {"stress": 8, "wildcard": 8, "lammps-sharded": 16}


@pytest.fixture
def plan_for(tmp_path, monkeypatch):
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    )
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.chdir(ROOT)

    def make(workload):
        return inputs.prepare(
            workload, 7, ROOT, str(tmp_path), ranks=TINY_RANKS.get(workload)
        )

    return make


@pytest.mark.parametrize("workload", sorted(TINY_RANKS))
def test_batch_workload_timed(plan_for, workload):
    doc = measure.measure(plan_for(workload), 0.0, traced=False)
    assert doc["correct"], doc["notes"]
    assert doc["failed"] == 0, doc["notes"]
    # Each iteration is a quarter-size and a full-size input.
    assert doc["attempted"] == 2 * measure.MIN_ITERATIONS
    metrics = doc["metrics"]
    assert set(metrics) == set(report.END_TO_END) - {"setup_s"}
    for name, (value, samples) in metrics.items():
        assert value > 0, name
        assert samples >= 1
    assert metrics["pass_rate"][0] == 1.0


@pytest.mark.parametrize("workload", sorted(TINY_RANKS))
def test_batch_workload_traced_table_sums(plan_for, workload):
    doc = measure.measure(plan_for(workload), 0.0, traced=True)
    assert doc["correct"] and doc["failed"] == 0, doc["notes"]
    values = doc["metrics"]
    assert set(values) == set(report.PER_LAYER)
    busy = sum(values[f"{layer}.busy_s"] for layer in LAYERS + ("other",))
    assert busy == pytest.approx(values["tracing.iteration_s"], rel=1e-9)
    text = report.layer_table(workload, values)
    for layer in LAYERS + ("other",):
        assert f"\n  {layer} " in text


def test_service_timed_counts_only_the_trace_uploads_as_failed(plan_for):
    doc = measure.measure(plan_for("service"), 0.0, traced=False)
    # Each connection runs one full cycle of the six-job mix; the one
    # trace upload per cycle fails on the daemon's 64 KiB line limit.
    # The scale probe adds its job pairs, which all pass.
    probe_jobs = 2 * measure.SCALE_PROBE_ROUNDS
    assert doc["attempted"] == 12 + probe_jobs
    assert doc["failed"] == 2
    assert doc["correct"]
    assert "2 lost connections" in doc["notes"][0]
    metrics = doc["metrics"]
    assert metrics["pass_rate"][0] == pytest.approx(1 - 2 / (12 + probe_jobs))
    assert metrics["verdict_s.tail"][0] > 30.0
    assert all(value > 0 for value, _ in metrics.values())


def test_service_traced_table_sums(plan_for):
    doc = measure.measure(plan_for("service"), 0.0, traced=True)
    assert doc["correct"]
    values = doc["metrics"]
    busy = sum(values[f"{layer}.busy_s"] for layer in LAYERS + ("other",))
    assert busy == pytest.approx(values["tracing.iteration_s"], rel=1e-9)
    assert values["serve.conn_drops"] == 2
    assert values["verify.fastpath_ratio"] == 0.5
    assert values["serialize.bytes"] > 0


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    from perfbench.run import WORKLOAD_NAMES

    names = [w["name"] for w in spec["workloads"]]
    assert names == [w for w in WORKLOAD_NAMES if w in names]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
