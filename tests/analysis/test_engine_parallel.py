"""Equivalence and metadata tests for the parallel chunk pipeline.

``workers >= 2`` solves RHS chunks on a thread pool but the consumer folds
finished chunks into the reductions and sinks strictly in ascending
scenario order — so every reduction, every exact sink, every approximate
sink state and all solver metadata must be **bitwise-identical** to the
sequential path, for every combination of ``workers`` and ``chunk_size``.
"""

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCountSink,
    NodeHistogramSink,
    P2QuantileSink,
    QuantileSketchSink,
    TopKScenarioSink,
    VectorlessAnalyzer,
    uniform_budget,
)
from repro.analysis.engine import WORKERS_ENV
from repro.grid import (
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    mega_sweep_matrices,
    perturbed_load_matrix,
    perturbed_pad_voltage_matrix,
)

WORKER_COUNTS = [2, 3]
CHUNK_SIZES = [1, 7, 37, 100]
"""Single-scenario, non-divisor, exactly the sweep size, larger than it."""


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def ibmpg1_grid(ibmpg1_bench):
    return ibmpg1_bench.build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def load_sweep(ibmpg1_grid):
    spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=11)
    return perturbed_load_matrix(ibmpg1_grid, spec, 37)


@pytest.fixture(scope="module")
def nominal_worst(ibmpg1_grid):
    return BatchedAnalysisEngine().analyze(ibmpg1_grid).worst_ir_drop


def build_sinks(threshold: float) -> dict:
    """Fresh instances of every sink family, exact and approximate."""
    return {
        "p2": P2QuantileSink((0.5, 0.9)),
        "sketch": QuantileSketchSink((0.5, 0.9)),
        "histogram": NodeHistogramSink.uniform(0.0, 2.0 * threshold + 1e-6, 8),
        "exceedance": ExceedanceCountSink(threshold),
        "topk": TopKScenarioSink(4),
    }


def assert_sinks_identical(sequential: dict, parallel: dict) -> None:
    """Every sink result must be bitwise-equal between the two sweeps."""
    assert np.array_equal(
        sequential["p2"].result().values, parallel["p2"].result().values
    )
    assert np.array_equal(
        sequential["sketch"].result().values, parallel["sketch"].result().values
    )
    seq_hist, par_hist = sequential["histogram"].result(), parallel["histogram"].result()
    assert np.array_equal(seq_hist.counts, par_hist.counts)
    assert np.array_equal(seq_hist.underflow, par_hist.underflow)
    assert np.array_equal(seq_hist.overflow, par_hist.overflow)
    assert np.array_equal(
        sequential["exceedance"].result().counts, parallel["exceedance"].result().counts
    )
    seq_topk, par_topk = sequential["topk"].result(), parallel["topk"].result()
    assert np.array_equal(seq_topk.scenario_index, par_topk.scenario_index)
    assert np.array_equal(seq_topk.worst_ir_drop, par_topk.worst_ir_drop)
    assert np.array_equal(seq_topk.worst_node_index, par_topk.worst_node_index)


def assert_reductions_identical(sequential, parallel) -> None:
    assert np.array_equal(sequential.worst_ir_drop, parallel.worst_ir_drop)
    assert np.array_equal(sequential.average_ir_drop, parallel.average_ir_drop)
    assert np.array_equal(sequential.worst_node_index, parallel.worst_node_index)


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_batch_bitwise_matches_sequential(
        self, ibmpg1_grid, load_sweep, nominal_worst, workers, chunk_size
    ):
        engine = BatchedAnalysisEngine()
        seq_sinks = build_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=chunk_size,
            sinks=tuple(seq_sinks.values()),
            workers=1,
        )
        par_sinks = build_sinks(nominal_worst)
        parallel = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=chunk_size,
            sinks=tuple(par_sinks.values()),
            workers=workers,
        )
        assert_reductions_identical(sequential, parallel)
        assert_sinks_identical(seq_sinks, par_sinks)
        assert parallel.solver_method == sequential.solver_method
        assert np.array_equal(parallel.solver_iterations, sequential.solver_iterations)
        assert engine.cache_info().factorizations == 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunk_size", [1, 13, 96])
    def test_mega_sweep_bitwise_matches_sequential(
        self, ibmpg1_grid, ibmpg1_bench, nominal_worst, workers, chunk_size
    ):
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 12, 8, seed=7
        )
        engine = BatchedAnalysisEngine()
        seq_sinks = build_sinks(nominal_worst)
        sequential = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=chunk_size,
            sinks=tuple(seq_sinks.values()),
            workers=1,
        )
        par_sinks = build_sinks(nominal_worst)
        parallel = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=chunk_size,
            sinks=tuple(par_sinks.values()),
            workers=workers,
        )
        assert_reductions_identical(sequential, parallel)
        assert_sinks_identical(seq_sinks, par_sinks)
        assert parallel.workers == workers
        assert engine.cache_info().factorizations == 1

    def test_pad_batch_bitwise_matches_sequential(self, ibmpg1_grid, nominal_worst):
        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        pad_matrix = perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 9)
        engine = BatchedAnalysisEngine()
        sequential = engine.analyze_pad_batch(
            ibmpg1_grid, pad_matrix, chunk_size=2, workers=1
        )
        parallel = engine.analyze_pad_batch(
            ibmpg1_grid, pad_matrix, chunk_size=2, workers=3
        )
        assert_reductions_identical(sequential, parallel)

    def test_scenario_stream_bitwise_matches_sequential(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = lambda begin, end: (load_sweep[begin:end], None)  # noqa: E731
        sequential = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], chunk_size=5, workers=1
        )
        parallel = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], chunk_size=5, workers=4
        )
        assert_reductions_identical(sequential, parallel)
        assert parallel.workers == 4

    def test_statistical_vectorless_bitwise_matches_sequential(self, ibmpg1_grid):
        budget = uniform_budget(ibmpg1_grid, headroom=1.3, utilisation=0.9)
        sequential = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid, budget, 30, chunk_size=7, seed=5, workers=1
        )
        parallel = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid, budget, 30, chunk_size=7, seed=5, workers=2
        )
        assert_reductions_identical(sequential.sweep, parallel.sweep)
        assert sequential.worst_observed == parallel.worst_observed

    def test_more_workers_than_chunks(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        sequential = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=100)
        parallel = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=100, workers=8
        )
        assert_reductions_identical(sequential, parallel)


class TestWorkerConfiguration:
    def test_default_is_sequential(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        assert engine.default_workers >= 1
        result = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8)
        assert result.reductions is not None

    def test_invalid_workers_rejected(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="workers"):
            engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8, workers=0)
        with pytest.raises(ValueError, match="workers"):
            engine.analyze_mega_sweep(
                ibmpg1_grid, load_sweep, np.zeros((1, 0)), workers=-1
            )

    def test_constructor_validates_default_workers(self):
        with pytest.raises(ValueError, match="default_workers"):
            BatchedAnalysisEngine(default_workers=0)
        assert BatchedAnalysisEngine(default_workers=3).default_workers == 3

    def test_env_variable_sets_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert BatchedAnalysisEngine().default_workers == 3
        monkeypatch.setenv(WORKERS_ENV, "")
        assert BatchedAnalysisEngine().default_workers == 1
        monkeypatch.delenv(WORKERS_ENV)
        assert BatchedAnalysisEngine().default_workers == 1

    def test_env_variable_validated(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            BatchedAnalysisEngine()
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            BatchedAnalysisEngine()

    def test_explicit_workers_override_env_default(
        self, monkeypatch, ibmpg1_grid, load_sweep
    ):
        monkeypatch.setenv(WORKERS_ENV, "2")
        engine = BatchedAnalysisEngine()
        sequential = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=8, workers=1
        )
        env_default = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8)
        assert_reductions_identical(sequential, env_default)
