"""Equivalence and metadata tests for the parallel chunk pipeline.

The ``threads`` executor (``make_executor("threads", workers)``, ``workers >= 2``)
solves RHS chunks on a thread pool but the consumer folds finished chunks
into the reductions and sinks strictly in ascending scenario order — so
every reduction, every exact sink, every approximate sink state and all
solver metadata must be **bitwise-identical** to the sequential path, for
every combination of ``workers`` and ``chunk_size``.  ``executor=`` is the
only way to choose that parallelism.
"""

import dataclasses
import inspect
import time

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCountSink,
    IRDropSink,
    MatrixScenarioSource,
    NodeHistogramSink,
    P2QuantileSink,
    QuantileSketchSink,
    TopKScenarioSink,
    VectorlessAnalyzer,
    make_executor,
    uniform_budget,
)
from repro.analysis.executors import EXECUTOR_ENV
from repro.envvars import KNOWN_ENV_VARS
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
            executor="serial",
        )
        par_sinks = build_sinks(nominal_worst)
        parallel = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=chunk_size,
            sinks=tuple(par_sinks.values()),
            executor=make_executor("threads", workers),
        )
        assert_reductions_identical(sequential, parallel)
        assert_sinks_identical(seq_sinks, par_sinks)
        # The parallel sweep solves with the sequential sweep's factors.
        assert parallel.factorization_reused
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
            executor="serial",
        )
        par_sinks = build_sinks(nominal_worst)
        parallel = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=chunk_size,
            sinks=tuple(par_sinks.values()),
            executor=make_executor("threads", workers),
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
            ibmpg1_grid, pad_matrix, chunk_size=2, executor="serial"
        )
        parallel = engine.analyze_pad_batch(
            ibmpg1_grid, pad_matrix, chunk_size=2, executor=make_executor("threads", 3)
        )
        assert_reductions_identical(sequential, parallel)

    def test_scenario_stream_bitwise_matches_sequential(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = lambda begin, end: (load_sweep[begin:end], None)  # noqa: E731
        sequential = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], chunk_size=5, executor="serial"
        )
        parallel = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], chunk_size=5,
            executor=make_executor("threads", 4),
        )
        assert_reductions_identical(sequential, parallel)
        assert parallel.workers == 4

    def test_statistical_vectorless_bitwise_matches_sequential(self, ibmpg1_grid):
        budget = uniform_budget(ibmpg1_grid, headroom=1.3, utilisation=0.9)
        sequential = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid, budget, 30, chunk_size=7, seed=5, executor="serial"
        )
        parallel = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid, budget, 30, chunk_size=7, seed=5,
            executor=make_executor("threads", 2),
        )
        assert_reductions_identical(sequential.sweep, parallel.sweep)
        assert sequential.worst_observed == parallel.worst_observed

    def test_more_workers_than_chunks(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        sequential = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=100)
        parallel = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=100, executor=make_executor("threads", 8)
        )
        assert_reductions_identical(sequential, parallel)



class SlowHistogramSink(NodeHistogramSink):
    """Sleeps in its fold, so the chunks after it finish solving first."""

    def consume_drop_rows(self, drop_rows, scenario_offset):
        time.sleep(0.003)
        super().consume_drop_rows(drop_rows, scenario_offset)


class RawVoltages:
    """A protocol sink outside IRDropSink: keeps a copy of every raw voltage chunk."""

    def bind(self, compiled, num_scenarios):
        self.voltages = np.full((compiled.num_nodes, num_scenarios), np.nan)

    def consume(self, chunk_voltages, scenario_offset):
        width = chunk_voltages.shape[1]
        self.voltages[:, scenario_offset : scenario_offset + width] = chunk_voltages

    def result(self):
        return self.voltages


class DropCopies(IRDropSink):
    """Keeps a copy of every drop row it folds."""

    def _on_bind(self, compiled, num_scenarios):
        self.drops = np.full((num_scenarios, compiled.num_nodes), np.nan)

    def _consume_drops(self, drops, scenario_offset):
        self.drops[scenario_offset : scenario_offset + drops.shape[0]] = drops

    def result(self):
        return self.drops


class TestSlotReuse:
    """A threaded sweep reuses a chunk slot only after its chunk folded, and
    builds raw voltages before it turns the solution into drops."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("entry", ["batch", "mega"])
    def test_slow_fold_and_raw_voltages_match_serial(
        self, ibmpg1_grid, ibmpg1_bench, load_sweep, nominal_worst, workers, entry
    ):
        engine = BatchedAnalysisEngine()
        if entry == "batch":
            # 37 scenarios in chunks of 6: 7 chunks, a multiple of neither 2 nor 3.
            def sweep(sinks, executor):
                return engine.analyze_batch(
                    ibmpg1_grid, load_sweep, chunk_size=6, sinks=sinks, executor=executor
                )

            dense = engine.analyze_batch(ibmpg1_grid, load_sweep)
        else:
            # 5 x 5 scenarios in chunks of 6: 5 chunks.
            load_matrix, pad_matrix = mega_sweep_matrices(
                ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 5, 5, seed=7
            )

            def sweep(sinks, executor):
                return engine.analyze_mega_sweep(
                    ibmpg1_grid, load_matrix, pad_matrix, chunk_size=6, sinks=sinks,
                    executor=executor,
                )

            dense = engine.analyze_pad_batch(
                ibmpg1_grid,
                np.tile(pad_matrix, (5, 1)),
                load_matrix=np.repeat(load_matrix, 5, axis=0),
            )
        runs = []
        for executor in ("serial", make_executor("threads", workers)):
            sinks = {
                "slow": SlowHistogramSink.uniform(0.0, 2.0 * nominal_worst + 1e-6, 8),
                "exceedance": ExceedanceCountSink(nominal_worst),
                "topk": TopKScenarioSink(4),
                "voltages": RawVoltages(),
                "drops": DropCopies(),
            }
            runs.append((sweep(tuple(sinks.values()), executor), sinks))
        (serial, serial_sinks), (threaded, threaded_sinks) = runs
        assert_reductions_identical(serial, threaded)
        for name in ("slow", "exceedance", "topk"):
            expected, actual = serial_sinks[name].result(), threaded_sinks[name].result()
            for field in dataclasses.fields(expected):
                assert np.array_equal(
                    getattr(actual, field.name), getattr(expected, field.name)
                ), (name, field.name)
        voltages = threaded_sinks["voltages"].result()
        assert np.array_equal(voltages, serial_sinks["voltages"].result())
        assert np.array_equal(threaded_sinks["drops"].result(), ibmpg1_grid.vdd - voltages.T)
        np.testing.assert_allclose(voltages, dense.voltages, rtol=0.0, atol=1e-12)


class TestParallelismOption:
    def test_explicit_executor_overrides_env_default(
        self, monkeypatch, ibmpg1_grid, load_sweep
    ):
        monkeypatch.setenv(EXECUTOR_ENV, "threads")
        engine = BatchedAnalysisEngine()
        sequential = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=8, executor="serial"
        )
        env_default = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8)
        assert_reductions_identical(sequential, env_default)

    def test_default_is_serial(self, monkeypatch, ibmpg1_grid, load_sweep):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        result = BatchedAnalysisEngine().analyze_scenario_stream(
            ibmpg1_grid, MatrixScenarioSource(load_sweep), load_sweep.shape[0], chunk_size=8
        )
        assert (result.executor, result.workers) == ("serial", 1)

    @pytest.mark.parametrize(
        "entry",
        [
            "analyze_batch",
            "analyze_pad_batch",
            "analyze_scenario_stream",
            "analyze_mega_sweep",
            "analyze_statistical",
        ],
    )
    def test_no_entry_point_takes_workers(self, ibmpg1_grid, load_sweep, entry):
        engine = BatchedAnalysisEngine()
        compiled = ibmpg1_grid.compile()
        pads = np.tile(compiled.pad_voltage[compiled.pad_node], (2, 1))
        calls = {
            "analyze_batch": lambda **kw: engine.analyze_batch(ibmpg1_grid, load_sweep, **kw),
            "analyze_pad_batch": lambda **kw: engine.analyze_pad_batch(ibmpg1_grid, pads, **kw),
            "analyze_scenario_stream": lambda **kw: engine.analyze_scenario_stream(
                ibmpg1_grid, MatrixScenarioSource(load_sweep), 2, **kw
            ),
            "analyze_mega_sweep": lambda **kw: engine.analyze_mega_sweep(
                ibmpg1_grid, load_sweep, pads, **kw
            ),
            "analyze_statistical": lambda **kw: VectorlessAnalyzer(engine).analyze_statistical(
                ibmpg1_grid, uniform_budget(ibmpg1_grid), 2, **kw
            ),
        }
        with pytest.raises(TypeError, match="workers"):
            calls[entry](chunk_size=8, workers=2)
        assert engine.cache_info().factorizations == 0
        # The same sweep runs with its parallelism given as an executor.
        calls[entry](chunk_size=8, executor=make_executor("threads", 2))

    def test_engine_takes_one_option(self):
        assert list(inspect.signature(BatchedAnalysisEngine).parameters) == ["cache_size"]
        for knob in (
            "default_workers",
            "default_executor",
            "incremental_updates",
            "update_policy",
            "direct_size_limit",
        ):
            with pytest.raises(TypeError, match=knob):
                BatchedAnalysisEngine(**{knob: 1})

    def test_workers_environment_is_gone(self, monkeypatch, ibmpg1_grid, load_sweep):
        assert "REPRO_TEST_WORKERS" not in KNOWN_ENV_VARS
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        monkeypatch.setenv("REPRO_TEST_WORKERS", "2")
        result = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8)
        assert result.reductions is not None
        stream = BatchedAnalysisEngine().analyze_scenario_stream(
            ibmpg1_grid, MatrixScenarioSource(load_sweep), load_sweep.shape[0], chunk_size=8
        )
        assert (stream.executor, stream.workers) == ("serial", 1)
