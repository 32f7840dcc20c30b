"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the repo root::

    python3 -m pytest perfbench/tests -q

The smoke runs shrink the sweeps to 15 % of their size; paper-flow keeps
full size, because its checks (converged plans, a width MSE under the
bound) only hold on the full benchmark.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.stats import failure_rate, percentile, relative_spread, tail_level
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = [entry["name"] for entry in SPEC["workloads"]]
SMOKE_SCALE = {"sweep-serial": 0.15, "sweep-parallel": 0.15, "paper-flow": 1.0}
TIME_UNITS = {"s", "ms"}


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int) -> tuple[int, str, dict]:
    """One shortest run: the cold operation plus the minimum warm ones."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", str(SMOKE_SCALE[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    return completed.returncode, completed.stdout, record


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0], 90) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3


@pytest.mark.parametrize("level", [0, -5, 101])
def test_percentile_rejects_levels_outside_range(level):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], level)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, level", [(5, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)]
)
def test_tail_level_keeps_ten_samples_beyond(count, level):
    assert tail_level(count) == level


def test_failure_rate():
    assert failure_rate(0, 7) == 0.0
    assert failure_rate(1, 4) == 0.25
    assert failure_rate(3, 3) == 1.0
    for failed, attempted in ((0, 0), (2, 1), (-1, 3)):
        with pytest.raises(ValueError):
            failure_rate(failed, attempted)


def test_relative_spread_matches_statistics_quantiles():
    assert relative_spread([10.0] * 5) == 0.0
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_tracer_self_time_and_nesting():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("engine.sweep"):
            with tracer.span("solvers.solve"):
                pass
    with tracer.span("solvers.solve"):
        pass
    with tracer.span("engine.sweep"):
        pass
    spans = {index: end - start for index, (_, start, end, _) in enumerate(tracer.spans)}
    assert tracer.durations("solvers.solve") == [spans[2], spans[3]]
    assert tracer.total("solvers.solve") == pytest.approx(spans[2] + spans[3])
    assert tracer.total("solvers.solve", inside="op") == pytest.approx(spans[2])
    assert tracer.self_time(lambda name: name == "engine.sweep") == pytest.approx(
        spans[1] - spans[2] + spans[4]
    )
    assert tracer.self_time(lambda name: name == "engine.sweep", inside="op") == pytest.approx(
        spans[1] - spans[2]
    )


# ----------------------------------------------------------------------
# BENCHMARK.json against what the runs print
# ----------------------------------------------------------------------
def test_benchmark_json_declares_the_workloads_and_required_metrics():
    assert DECLARED == ["sweep-serial", "sweep-parallel", "paper-flow"]
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert entry["better"] in ("higher", "lower")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", DECLARED)
def test_smoke_run_is_correct_and_prints_every_declared_metric(workload, trace):
    returncode, stdout, record = smoke(workload, trace)
    assert returncode == 0
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = record["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert f"metric {entry['name']} = " in stdout
        if entry["unit"] in TIME_UNITS or not trace:
            # Times are spent on every workload, so they never read 0.
            assert metric["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", ["sweep-serial", "paper-flow"])
def test_traced_counts_repeat_exactly(workload):
    first = smoke(workload, 1)[2]["metrics"]
    smoke.cache_clear()
    second = smoke(workload, 1)[2]["metrics"]
    counts = [entry["name"] for entry in SPEC["per_layer"] if entry["unit"] == "count"]
    assert {name: first[name]["value"] for name in counts} == {
        name: second[name]["value"] for name in counts
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
