"""Tests for the pluggable sweep-execution layer.

The core guarantee: the local executor is **bitwise-identical** to the
sequential sweep for the streamed reductions and every exact mergeable
sink at every ``(shards × threads × chunk_size)`` shape — one shard (the
in-process pipeline), an even split and a non-divisor of the scenario
count; one and two threads per shard.  Under the default ``fork`` start
method the workers inherit the parent's factorization instead of
factoring (pinned by a factor patch that fails in any other process),
which keeps low-rank update clones bitwise too; spawned workers load the
same pickled payload remote workers do.  The order-dependent P² sink
runs on single-shard rows and is rejected by sharded ones with a pointer
to the quantile sketch.  Also covered: the executor names of
each shape, resolution precedence (explicit executor > environment
default), the lenient fallback of :data:`EXECUTOR_ENV`, the tail
re-split of the balancer, shard ranges cut on the serial sweep's chunk
boundaries (on ibmpgnew1, where a shard that chunked from its own start
moved mean drops in the last bit), source-validation errors naming
global scenarios, the adaptive chunk-width heuristic, and top-k
rematerialisation.
"""

import multiprocessing
import os
import pickle
import re
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    CrossProductScenarioSource,
    ExceedanceCountSink,
    ExecutorIncompatibility,
    HybridExecutor,
    JointExceedanceSink,
    MatrixScenarioSource,
    MergeableSink,
    NodeHistogramSink,
    P2QuantileSink,
    QuantileSketchSink,
    SpluBackend,
    SweepExecutor,
    SweepPlan,
    TopKScenarioSink,
    VectorlessAnalyzer,
    make_executor,
    resolve_chunk_size,
    uniform_budget,
)
from repro.analysis import executors as executors_module
from repro.analysis.engine import (
    CHUNK_CACHE_BYTES,
    MAX_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
    SOLVE_COLUMNS,
)
from repro.analysis.executors import (
    EXECUTOR_ENV,
    EXECUTOR_NAMES,
    load_shard_state,
    pickle_sweep_payload,
    require_shardable,
    shard_ranges,
)
from repro.grid import (
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    mega_sweep_matrices,
    perturbed_load_matrix,
)

SHARD_COUNTS = [1, 2, 3]
"""In-process single shard, even split, and a non-divisor of 37."""

FORK_DEFAULT = "fork" in multiprocessing.get_all_start_methods()
"""The local executor's default start method is ``fork`` on this host."""

needs_fork = pytest.mark.skipif(not FORK_DEFAULT, reason="needs the fork start method")


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


def mergeable_sinks(threshold: float) -> dict:
    """Fresh instances of every mergeable sink family."""
    return {
        "sketch": QuantileSketchSink((0.5, 0.9)),
        "histogram": NodeHistogramSink.uniform(0.0, 2.0 * threshold + 1e-6, 8),
        "exceedance": ExceedanceCountSink(threshold),
        "joint": JointExceedanceSink(threshold),
        "topk": TopKScenarioSink(4),
    }


def assert_exact_sinks_identical(sequential: dict, sharded: dict) -> None:
    """Every exact mergeable sink must be bitwise-equal between sweeps."""
    assert np.array_equal(
        sequential["sketch"].result().values, sharded["sketch"].result().values
    )
    seq_hist, shard_hist = sequential["histogram"].result(), sharded["histogram"].result()
    assert np.array_equal(seq_hist.counts, shard_hist.counts)
    assert np.array_equal(seq_hist.underflow, shard_hist.underflow)
    assert np.array_equal(seq_hist.overflow, shard_hist.overflow)
    assert np.array_equal(
        sequential["exceedance"].result().counts, sharded["exceedance"].result().counts
    )
    seq_joint, shard_joint = sequential["joint"].result(), sharded["joint"].result()
    assert np.array_equal(
        seq_joint.violating_node_counts, shard_joint.violating_node_counts
    )
    assert seq_joint.scenarios_with_violation == shard_joint.scenarios_with_violation
    seq_topk, shard_topk = sequential["topk"].result(), sharded["topk"].result()
    assert np.array_equal(seq_topk.scenario_index, shard_topk.scenario_index)
    assert np.array_equal(seq_topk.worst_ir_drop, shard_topk.worst_ir_drop)
    assert np.array_equal(seq_topk.worst_node_index, shard_topk.worst_node_index)


def assert_reductions_identical(sequential, sharded) -> None:
    assert np.array_equal(sequential.worst_ir_drop, sharded.worst_ir_drop)
    assert np.array_equal(sequential.average_ir_drop, sharded.average_ir_drop)
    assert np.array_equal(sequential.worst_node_index, sharded.worst_node_index)


@dataclass(frozen=True)
class ShortChunkSource:
    """Picklable load source that returns one row too few for the chunk
    holding scenario ``short_at`` (a malformed-generator stand-in)."""

    load_matrix: np.ndarray
    short_at: int

    def __call__(self, begin: int, end: int):
        rows = self.load_matrix[begin:end]
        return (rows[:-1] if begin <= self.short_at < end else rows), None


class SteppedClock:
    """Stand-in for the executors module's ``time``: readings 10 s apart,
    so the balancer always prices a scenario as slow and re-splits."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 10.0
        return self.now


class TestShapeEquivalence:
    """Merge-equivalence matrix: every (shards, threads, chunk_size) shape
    of the local executor == the sequential sweep, bitwise."""

    @pytest.mark.parametrize("chunk_size", [1, 7])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_bitwise_matches_sequential(
        self, ibmpg1_grid, load_sweep, nominal_worst, shards, threads, chunk_size
    ):
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=chunk_size,
            sinks=tuple(seq_sinks.values()),
            executor="serial",
        )
        shard_sinks = mergeable_sinks(nominal_worst)
        executor = HybridExecutor(shard_workers=shards, threads_per_shard=threads)
        sharded = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=chunk_size,
            sinks=tuple(shard_sinks.values()),
            executor=executor,
        )
        assert_reductions_identical(sequential, sharded)
        assert_exact_sinks_identical(seq_sinks, shard_sinks)
        # The parent factored once; every shard solves with those factors.
        assert sharded.factorization_reused
        assert engine.cache_info().factorizations == 1
        # Every shard observed the whole of its range exactly once.
        assert shard_sinks["topk"].num_consumed == load_sweep.shape[0]
        stats = executor.last_stats
        assert stats["shards"] == shards
        assert stats["threads_per_shard"] == threads
        if shards > 1:
            # Forked shards inherit their context: no payload ships.
            assert (stats["payload_bytes_shared"] == 0) == FORK_DEFAULT
            assert stats["tasks"] >= stats["shards"]
        else:
            assert stats["tasks"] == 1 and stats["payload_bytes_shared"] == 0

    @pytest.mark.parametrize("threads", [2, 3])
    def test_single_shard_runs_p2_and_closures(self, ibmpg1_grid, load_sweep, threads):
        """The 1 × t rows are the in-process pipeline: order-dependent
        sinks and unpicklable sources run, bitwise-equal to serial."""
        engine = BatchedAnalysisEngine()
        runs = []
        for executor in ("serial", HybridExecutor(1, threads)):
            p2 = P2QuantileSink([0.5, 0.9])
            stream = engine.analyze_scenario_stream(
                ibmpg1_grid,
                # The closure is the point: single-shard rows never pickle.
                lambda begin, end: (load_sweep[begin:end], None),
                load_sweep.shape[0],
                chunk_size=5,
                sinks=[p2],
                executor=executor,
            )
            runs.append((stream, p2.result().values))
        (serial, serial_p2), (single_shard, single_shard_p2) = runs
        assert (single_shard.executor, single_shard.workers) == ("threads", threads)
        assert_reductions_identical(serial, single_shard)
        assert np.array_equal(serial_p2, single_shard_p2)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_mega_sweep_bitwise_matches_sequential(
        self, ibmpg1_grid, ibmpg1_bench, nominal_worst, shards
    ):
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 12, 8, seed=7
        )
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(seq_sinks.values()),
            executor="serial",
        )
        shard_sinks = mergeable_sinks(nominal_worst)
        sharded = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(shard_sinks.values()),
            executor=make_executor("processes", shards),
        )
        assert_reductions_identical(sequential, sharded)
        assert_exact_sinks_identical(seq_sinks, shard_sinks)
        assert sharded.executor == "processes"
        assert sharded.workers == shards

    def test_hybrid_mega_sweep_bitwise_matches_sequential(
        self, ibmpg1_grid, ibmpg1_bench, nominal_worst
    ):
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 12, 8, seed=7
        )
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(seq_sinks.values()),
            executor="serial",
        )
        hybrid_sinks = mergeable_sinks(nominal_worst)
        hybrid = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(hybrid_sinks.values()),
            executor=HybridExecutor(shard_workers=2, threads_per_shard=2),
        )
        assert_reductions_identical(sequential, hybrid)
        assert_exact_sinks_identical(seq_sinks, hybrid_sinks)
        assert hybrid.executor == "hybrid"

    def test_pad_batch_bitwise_matches_sequential(self, ibmpg1_grid, ibmpg1_bench):
        from repro.grid import perturbed_pad_voltage_matrix

        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        pad_matrix = perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 9)
        engine = BatchedAnalysisEngine()
        sequential = engine.analyze_pad_batch(
            ibmpg1_grid, pad_matrix, chunk_size=2, executor="serial"
        )
        sharded = engine.analyze_pad_batch(
            ibmpg1_grid, pad_matrix, chunk_size=2, executor="processes"
        )
        assert_reductions_identical(sequential, sharded)

    def test_scenario_stream_with_picklable_source(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        sequential = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], chunk_size=5, executor="serial"
        )
        sharded = engine.analyze_scenario_stream(
            ibmpg1_grid,
            source,
            load_sweep.shape[0],
            chunk_size=5,
            executor=make_executor("processes", 3),
        )
        assert_reductions_identical(sequential, sharded)
        assert sharded.executor == "processes"

    def test_statistical_vectorless_bitwise_matches_sequential(self, ibmpg1_grid):
        budget = uniform_budget(ibmpg1_grid, headroom=1.3, utilisation=0.9)
        sequential = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid, budget, 30, chunk_size=7, seed=5, executor="serial"
        )
        sharded = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid,
            budget,
            30,
            chunk_size=7,
            seed=5,
            executor=make_executor("processes", 2),
        )
        assert_reductions_identical(sequential.sweep, sharded.sweep)
        assert sequential.worst_observed == sharded.worst_observed

    def test_parent_cache_warm_after_process_sweep(self, ibmpg1_grid, load_sweep):
        """One factorization lands in the parent for follow-up solves."""
        engine = BatchedAnalysisEngine()
        engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor="processes"
        )
        assert engine.cache_info().factorizations == 1
        follow_up = engine.analyze(ibmpg1_grid)
        assert follow_up.worst_ir_drop > 0
        assert engine.cache_info().factorizations == 1  # served from cache

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tail_resplit_matches_serial(
        self, monkeypatch, ibmpg1_grid, load_sweep, nominal_worst, threads
    ):
        """A slow first task makes the balancer re-split the held-back
        tail into finer pieces; results stay bitwise-equal to serial."""
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=5, sinks=tuple(seq_sinks.values()),
            executor="serial",
        )
        monkeypatch.setattr(executors_module, "time", SteppedClock())
        shard_sinks = mergeable_sinks(nominal_worst)
        executor = HybridExecutor(shard_workers=2, threads_per_shard=threads)
        sharded = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=5, sinks=tuple(shard_sinks.values()),
            executor=executor,
        )
        # 37 scenarios are 8 chunks of 5 on 2 shards: a head of 2 x 2
        # chunks (2 x 10 scenarios), then the 17-scenario tail priced at
        # 10 scenarios per 10 s asks for 9 pieces of 2 scenarios, and
        # whole chunks cut it into its 4 chunks.
        assert executor.last_stats["rebalances"] == 1
        assert executor.last_stats["tasks"] == 6
        assert_reductions_identical(sequential, sharded)
        assert_exact_sinks_identical(seq_sinks, shard_sinks)


@pytest.fixture(scope="module")
def ibmpgnew1_sweep():
    """An ibmpgnew1 grid, 40 load scenarios and their serial chunk-7 sweep."""
    grid = SyntheticIBMSuite().load("ibmpgnew1").build_uniform_grid(5.0)
    # Loads under which shards that chunked from their own starts gave
    # scenarios 8, 28 and 33 mean drops off serial in the last bit.
    spec = PerturbationSpec(gamma=0.3, kind=PerturbationKind.CURRENT_WORKLOADS, seed=7)
    loads = perturbed_load_matrix(grid, spec, 40)
    threshold = BatchedAnalysisEngine().analyze(grid).worst_ir_drop
    sinks = mergeable_sinks(threshold)
    serial = BatchedAnalysisEngine().analyze_batch(
        grid, loads, chunk_size=7, sinks=tuple(sinks.values()), executor="serial"
    )
    return grid, loads, threshold, serial, sinks


class TestChunkAlignedShards:
    """Shard ranges are cut on the serial sweep's chunk boundaries, so
    every shard solves the very RHS blocks the serial sweep solves.
    SuperLU's multi-RHS solve can move a voltage in the last bit with
    the block width: on ibmpgnew1 a shard that chunked from its own start
    gave mean drops off serial in the last bit (ibmpg1 does not show it)."""

    def test_ranges_cover_the_sweep_on_chunk_bounds(self):
        for num_scenarios in (0, 1, 5, 36, 37, 40, 512):
            for shards in (1, 2, 3, 9, 16):
                for chunk_size in (1, 5, 7, 64):
                    ranges = shard_ranges(num_scenarios, shards, chunk_size)
                    bounds = [0] + [end for _, end in ranges]
                    assert [begin for begin, _ in ranges] == bounds[:-1]
                    assert bounds[-1] == num_scenarios
                    assert all(begin < end for begin, end in ranges)
                    assert all(bound % chunk_size == 0 for bound in bounds[1:-1])
                    num_chunks = -(-num_scenarios // chunk_size)
                    assert len(ranges) == min(shards, num_chunks)
                    chunks = [-(-(end - begin) // chunk_size) for begin, end in ranges]
                    assert not chunks or max(chunks) - min(chunks) <= 1

    @pytest.mark.parametrize("threads", [1, 2], ids=["processes", "hybrid"])
    def test_ibmpgnew1_batch_bitwise_matches_serial(self, ibmpgnew1_sweep, threads):
        grid, loads, threshold, serial, serial_sinks = ibmpgnew1_sweep
        shard_sinks = mergeable_sinks(threshold)
        executor = HybridExecutor(shard_workers=2, threads_per_shard=threads)
        sharded = BatchedAnalysisEngine().analyze_batch(
            grid, loads, chunk_size=7, sinks=tuple(shard_sinks.values()), executor=executor
        )
        assert executor.last_stats["shards"] == 2
        assert_reductions_identical(serial, sharded)
        assert_exact_sinks_identical(serial_sinks, shard_sinks)


class TestShardedRejections:
    def test_p2_rejected_with_pointer_to_sketch(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ExecutorIncompatibility, match="QuantileSketchSink"):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[P2QuantileSink([0.5])],
                executor=make_executor("processes", 2),
            )

    def test_p2_not_mergeable_sketch_is(self):
        assert not isinstance(P2QuantileSink([0.5]), MergeableSink)
        assert isinstance(QuantileSketchSink([0.5]), MergeableSink)

    @pytest.mark.parametrize("executor", ["processes", "hybrid"])
    def test_unpicklable_source_rejected(self, ibmpg1_grid, load_sweep, executor):
        """Fork workers need no pickle, yet the sweep is rejected as on spawn."""
        engine = BatchedAnalysisEngine()
        with pytest.raises(ExecutorIncompatibility, match="picklable"):
            engine.analyze_scenario_stream(
                ibmpg1_grid,
                # The closure is the point of the test: the runtime rejection
                # this asserts is what the lint rule catches statically.
                lambda begin, end: (load_sweep[begin:end], None),  # reprolint: disable=RPR002
                load_sweep.shape[0],
                chunk_size=5,
                executor=executor,
            )

    @pytest.mark.parametrize("executor", ["processes", "hybrid"])
    def test_unpicklable_sink_rejected_before_binding(self, ibmpg1_grid, load_sweep, executor):
        class LocalSink(ExceedanceCountSink):  # a local class does not pickle
            pass

        sink = LocalSink(0.1)
        engine = BatchedAnalysisEngine()
        with pytest.raises(ExecutorIncompatibility, match="picklable"):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[sink],
                executor=executor,
            )
        assert sink.num_consumed == 0
        with pytest.raises(ValueError, match="bound"):
            sink.result()

    def test_incompatibility_raised_before_sinks_bind(self, ibmpg1_grid, load_sweep):
        """Rejection must leave the sinks reusable (nothing observed)."""
        engine = BatchedAnalysisEngine()
        p2 = P2QuantileSink([0.5])
        exceedance = ExceedanceCountSink(0.1)
        with pytest.raises(ExecutorIncompatibility):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[exceedance, p2],
                executor="processes",
            )
        # The same sinks still run fine on the threaded path.
        engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, sinks=[exceedance, p2],
            executor=make_executor("threads", 2),
        )
        assert exceedance.num_consumed == load_sweep.shape[0]

    def test_acceptance_ignores_scenario_count(self, ibmpg1_grid, load_sweep):
        """A one-scenario sweep runs in-process, yet a sharded executor
        rejects it exactly as it rejects a large one."""
        engine = BatchedAnalysisEngine()
        executor = HybridExecutor(shard_workers=2, threads_per_shard=1)
        with pytest.raises(ExecutorIncompatibility, match="QuantileSketchSink"):
            engine.analyze_batch(
                ibmpg1_grid, load_sweep[:1], chunk_size=7, sinks=[P2QuantileSink([0.5])],
                executor=executor,
            )
        with pytest.raises(ExecutorIncompatibility, match="picklable"):
            engine.analyze_scenario_stream(
                ibmpg1_grid,
                lambda begin, end: (load_sweep[begin:end], None),  # reprolint: disable=RPR002
                1,
                executor=executor,
            )

    @pytest.mark.parametrize(
        "executor",
        [
            pytest.param(lambda: "serial", id="serial"),
            pytest.param(lambda: HybridExecutor(2, 1), id="processes"),
            pytest.param(lambda: HybridExecutor(2, 2), id="hybrid"),
        ],
    )
    def test_source_errors_name_global_scenarios(self, ibmpg1_grid, load_sweep, executor):
        """Shards call and validate the source at the sweep's scenario
        indices, so a malformed chunk is reported where it is."""
        engine = BatchedAnalysisEngine()
        source = ShortChunkSource(load_sweep, short_at=30)
        with pytest.raises(ValueError, match="scenario source returned") as raised:
            engine.analyze_scenario_stream(
                ibmpg1_grid, source, load_sweep.shape[0], chunk_size=7, executor=executor()
            )
        rows, begin, end = map(
            int, re.search(r"(\d+) rows for scenarios \[(\d+), (\d+)\)", str(raised.value)).groups()
        )
        assert begin <= 30 < end and rows == end - begin - 1
        if executor() == "serial":
            assert "6 rows for scenarios [28, 35)" in str(raised.value)


class TestExecutorResolution:
    def test_make_executor_names(self):
        cpu = os.cpu_count() or 1
        for name, workers, shape in (
            ("serial", None, (1, 1)),
            ("threads", 3, (1, 3)),
            ("threads", None, (1, cpu)),
            ("processes", 5, (5, 1)),
            ("processes", None, (max(2, cpu), 1)),
        ):
            executor = make_executor(name, workers)
            assert isinstance(executor, HybridExecutor)
            assert (executor.shard_workers, executor.threads_per_shard) == shape
        assert make_executor("threads", 3).parallelism == 3
        assert make_executor("processes", 5).parallelism == 5
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("fibers")
        with pytest.raises(ValueError, match="serial"):
            make_executor("serial", 4)

    def test_name_follows_shape(self):
        for shape, name in (
            ((1, 1), "serial"),
            ((1, 3), "threads"),
            ((3, 1), "processes"),
            ((2, 2), "hybrid"),
        ):
            executor = HybridExecutor(*shape)
            assert executor.name == name
            assert executor.parallelism == shape[0] * shape[1]

    @pytest.mark.parametrize("missing", ["name", "parallelism", "execute"])
    def test_incomplete_subclass_fails_at_construction(self, missing):
        members = {
            "name": property(lambda self: "custom"),
            "parallelism": property(lambda self: 1),
            "execute": lambda self, plan: None,
        }
        del members[missing]
        incomplete = type("IncompleteExecutor", (SweepExecutor,), members)
        with pytest.raises(TypeError, match=missing):
            incomplete()

    def test_workers_one_reports_serial(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        for workers, name in ((1, "serial"), (2, "threads")):
            result = engine.analyze_scenario_stream(
                ibmpg1_grid, source, load_sweep.shape[0], chunk_size=5,
                executor=make_executor("threads", workers),
            )
            assert (result.executor, result.workers) == (name, workers)

    def test_serial_executor_matches_threads(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        serial = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor=make_executor("serial")
        )
        threaded = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor=make_executor("threads", 3)
        )
        assert_reductions_identical(serial, threaded)

    def test_stream_reports_executor_name(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        result = engine.analyze_scenario_stream(
            ibmpg1_grid,
            source,
            load_sweep.shape[0],
            chunk_size=5,
            executor=make_executor("serial"),
        )
        assert result.executor == "serial"
        assert result.workers == 1

    def test_env_default_executor(self, monkeypatch, ibmpg1_grid, load_sweep):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        engine = BatchedAnalysisEngine()
        reference = BatchedAnalysisEngine().analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor="serial"
        )
        sharded = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7)
        assert_reductions_identical(reference, sharded)

    def test_env_default_falls_back_for_incompatible_sweeps(
        self, monkeypatch, ibmpg1_grid, load_sweep
    ):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        engine = BatchedAnalysisEngine()
        # P² sink: not mergeable -> in-process fallback, sweep still succeeds.
        sink = P2QuantileSink([0.5])
        with pytest.warns(RuntimeWarning, match=r"^analyze_batch: .*P2QuantileSink"):
            engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7, sinks=[sink])
        assert sink.result().num_scenarios == load_sweep.shape[0]
        # Closure source: not picklable -> the serial row.
        with pytest.warns(
            RuntimeWarning,
            match=r"^analyze_scenario_stream: .*need a picklable scenario source",
        ):
            stream = engine.analyze_scenario_stream(
                ibmpg1_grid,
                lambda begin, end: (load_sweep[begin:end], None),
                load_sweep.shape[0],
                chunk_size=5,
            )
        fallback = make_executor("serial")
        assert (stream.executor, stream.workers) == (fallback.name, fallback.parallelism)

    def test_env_value_validated(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "bogus")
        with pytest.raises(ValueError, match=EXECUTOR_ENV):
            BatchedAnalysisEngine()

    def test_explicit_executor_overrides_env(self, monkeypatch, ibmpg1_grid, load_sweep):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        engine = BatchedAnalysisEngine()
        # An explicit executor is strict: P² + processes raises even
        # though the environment default would have fallen back.
        with pytest.raises(ExecutorIncompatibility):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[P2QuantileSink([0.5])],
                executor="processes",
            )


class TestCompiledGridPickling:
    def test_compiled_grid_round_trips_after_fingerprint(self, ibmpg1_grid):
        compiled = ibmpg1_grid.compile()
        compiled.fingerprint  # caches the (unpicklable) partial digest
        compiled.reduced_matrix
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.fingerprint == compiled.fingerprint
        assert clone.num_unknowns == compiled.num_unknowns
        assert (clone.reduced_matrix != compiled.reduced_matrix).nnz == 0


class TestResolveChunkSize:
    def test_bounds_pinned(self):
        assert resolve_chunk_size(0) == MAX_CHUNK_SIZE
        assert resolve_chunk_size(10) == MAX_CHUNK_SIZE
        assert resolve_chunk_size(50_000_000) == MIN_CHUNK_SIZE
        # ibmpg1: 1 MiB / (8 B x 1552 unknowns) = 84 columns; ibmpgnew1:
        # 1 MiB / (8 B x 13856 unknowns) = 9 columns.
        assert resolve_chunk_size(1552) == 84
        assert resolve_chunk_size(13856) == 9

    def test_monotone_in_grid_size(self):
        widths = [resolve_chunk_size(n) for n in (10, 1552, 13856, 200_000)]
        assert widths == sorted(widths, reverse=True)

    def test_defaults_and_budget(self):
        """Inside the clamps one RHS block of the width fits the cache budget."""
        for unknowns in (300, 1552, 13856):
            width = resolve_chunk_size(unknowns)
            assert MIN_CHUNK_SIZE < width < MAX_CHUNK_SIZE
            assert 8 * unknowns * width <= CHUNK_CACHE_BYTES < 8 * unknowns * (width + 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_unknowns"):
            resolve_chunk_size(-1)

    def test_streamed_default_is_adaptive(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        result = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], executor="serial"
        )
        assert ibmpg1_grid.compile().num_unknowns == 1552
        assert result.chunk_size == 84


class TestRematerialize:
    def test_mega_sweep_topk_round_trip(self, ibmpg1_grid, ibmpg1_bench):
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 6, 4, seed=3
        )
        engine = BatchedAnalysisEngine()
        topk_sink = TopKScenarioSink(3)
        result = engine.analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=7, sinks=[topk_sink]
        )
        topk = topk_sink.result()
        replayed = topk_sink.rematerialize(
            engine, ibmpg1_grid, CrossProductScenarioSource(load_matrix, pad_matrix)
        )
        assert len(replayed) == 3
        compiled = result.compiled
        for rank, full in enumerate(replayed):
            assert full.worst_ir_drop == float(topk.worst_ir_drop[rank])
            assert full.worst_node == compiled.node_names[int(topk.worst_node_index[rank])]
            assert full.network_name == f"scenario {int(topk.scenario_index[rank])}"
            assert len(full.node_voltages) == compiled.num_nodes

    def test_rematerialize_after_process_sharded_sweep(
        self, ibmpg1_grid, load_sweep, nominal_worst
    ):
        engine = BatchedAnalysisEngine()
        topk_sink = TopKScenarioSink(2)
        engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=[topk_sink],
            executor=make_executor("processes", 3),
        )
        replayed = topk_sink.rematerialize(
            engine, ibmpg1_grid, MatrixScenarioSource(load_matrix=load_sweep)
        )
        topk = topk_sink.result()
        assert [r.worst_ir_drop for r in replayed] == [float(v) for v in topk.worst_ir_drop]
        # The replay reuses the factorization the process sweep warmed.
        assert engine.cache_info().factorizations == 1

    def test_unbound_sink_rejected(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="never bound"):
            TopKScenarioSink(2).rematerialize(
                engine, ibmpg1_grid, MatrixScenarioSource(load_matrix=load_sweep)
            )


class TestHybridResolution:
    def test_registered_and_constructible_by_name(self):
        assert "hybrid" in EXECUTOR_NAMES
        executor = make_executor("hybrid", 3)
        assert isinstance(executor, HybridExecutor)
        assert executor.shard_workers == 3

    def test_parallelism_is_the_product(self):
        assert HybridExecutor(shard_workers=4, threads_per_shard=2).parallelism == 8

    def test_in_flight_bound_per_slot(self):
        """Each of the ``parallelism`` in-flight chunks holds two
        ``(unknowns, width)`` double blocks (its slot's RHS and drop rows)
        plus SuperLU's two transients of one slice of at most
        ``SOLVE_COLUMNS`` columns, bounded by ``2 MiB + 256 B x unknowns``:
        two cache-sized blocks and two 16-column transients.  ibmpg1's
        84-column chunks hold 2.5 MB, where whole-chunk transients made
        4.2 MB; at the 8-column floor (16384 unknowns and up) a slice is
        the whole chunk."""
        assert resolve_chunk_size(16384) == MIN_CHUNK_SIZE == 8
        assert 2 * 8 * SOLVE_COLUMNS == 256
        for unknowns in (1552, 8193, 10_000, 16384, 50_000):
            width = resolve_chunk_size(unknowns)
            block_bytes = 8 * unknowns * width
            transient_bytes = 8 * unknowns * min(width, SOLVE_COLUMNS)
            slot_bytes = 2 * block_bytes + 2 * transient_bytes
            assert slot_bytes <= 2 * CHUNK_CACHE_BYTES + 256 * unknowns
        ibmpg1_block = 8 * 1552 * resolve_chunk_size(1552)
        assert 2 * ibmpg1_block + 2 * 8 * 1552 * SOLVE_COLUMNS < 2.5e6 < 4 * ibmpg1_block
        assert 4 * 8 * 50_000 * resolve_chunk_size(50_000) == 256 * 50_000

    def test_adaptive_chunk_ignores_parallelism(self, ibmpg1_grid, load_sweep):
        """Each in-flight chunk sits in its own core's cache, so every
        shape streams the same adaptive width."""
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        width = resolve_chunk_size(ibmpg1_grid.compile().num_unknowns)
        for executor in (
            HybridExecutor(1, 1),
            HybridExecutor(1, 3),
            HybridExecutor(shard_workers=2, threads_per_shard=2),
        ):
            result = engine.analyze_scenario_stream(
                ibmpg1_grid, source, load_sweep.shape[0], executor=executor
            )
            assert result.chunk_size == width
            assert result.executor == executor.name
            assert result.workers == executor.parallelism

    def test_validation(self):
        with pytest.raises(ValueError, match="shard_workers"):
            HybridExecutor(shard_workers=0)
        with pytest.raises(ValueError, match="^workers must be at least 1, got 0$"):
            make_executor("processes", 0)
        with pytest.raises(ValueError, match="threads_per_shard"):
            HybridExecutor(shard_workers=2, threads_per_shard=0)
        with pytest.raises(ValueError, match="^workers must be at least 1, got 0$"):
            make_executor("threads", 0)
        with pytest.raises(ValueError, match="start_method"):
            HybridExecutor(shard_workers=2, start_method="telepathy")

    def test_p2_rejected_before_sinks_bind(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        p2 = P2QuantileSink([0.5])
        with pytest.raises(ExecutorIncompatibility, match="hybrid"):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[p2],
                executor=HybridExecutor(shard_workers=2, threads_per_shard=2),
            )
        # The rejection left the sink unbound and reusable.
        engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, sinks=[p2], executor="serial"
        )
        assert p2.result().num_scenarios == load_sweep.shape[0]

    def test_env_default_falls_back_for_incompatible_sweeps(
        self, monkeypatch, ibmpg1_grid, load_sweep
    ):
        monkeypatch.setenv(EXECUTOR_ENV, "hybrid")
        engine = BatchedAnalysisEngine()
        sink = P2QuantileSink([0.5])
        with pytest.warns(
            RuntimeWarning,
            match=rf"environment-default {HybridExecutor().name!r} executor.*P2QuantileSink",
        ):
            engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7, sinks=[sink])
        assert sink.result().num_scenarios == load_sweep.shape[0]

    def test_env_default_matches_serial(self, monkeypatch, ibmpg1_grid, load_sweep):
        monkeypatch.setenv(EXECUTOR_ENV, "hybrid")
        reference = BatchedAnalysisEngine().analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor="serial"
        )
        hybrid = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7)
        assert_reductions_identical(reference, hybrid)


class CountingBackend:
    """Delegates to another backend and counts the factorizations it serves."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.factor_calls = 0

    def factor(self, matrix):
        self.factor_calls += 1
        return self.inner.factor(matrix)


def two_shard_executor(kind: str, start_method: str | None = None) -> HybridExecutor:
    """The ``processes`` (2 x 1) or ``hybrid`` (2 x 2) row."""
    return HybridExecutor(2, 2 if kind == "hybrid" else 1, start_method=start_method)


class TestWorkerContext:
    """Shard workers solve with the parent's cached factorization under
    fork, and load the pickled payload and factor under forkserver and
    spawn."""

    @pytest.mark.parametrize(
        ("kind", "start_method"),
        [
            pytest.param("hybrid", None, marks=needs_fork),
            pytest.param("processes", None, marks=needs_fork),
            ("hybrid", "forkserver"),
            ("processes", "spawn"),
        ],
    )
    def test_update_clone_matches_serial(self, ibmpg1_grid, ibmpg1_bench, kind, start_method):
        """A resized clone's sharded sweep equals the serial one bit for
        bit: forked shards solve with the parent's factors, and forkserver
        or spawn shards factor the same matrix with the same backend."""
        compiled = ibmpg1_grid.compile()
        engine = BatchedAnalysisEngine()
        engine.analyze(compiled)
        conductance = compiled.conductance.copy()
        conductance[np.arange(5) * 37] *= 1.3
        clone = compiled.with_conductances(conductance)
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 8, 8, seed=7
        )
        serial = engine.analyze_mega_sweep(
            clone, load_matrix, pad_matrix, chunk_size=16, executor="serial"
        )
        assert engine.cache_info().factorizations == 2
        sharded = engine.analyze_mega_sweep(
            clone,
            load_matrix,
            pad_matrix,
            chunk_size=16,
            executor=two_shard_executor(kind, start_method),
        )
        assert_reductions_identical(serial, sharded)

    @needs_fork
    def test_workers_never_factor(self, monkeypatch, ibmpg1_grid, load_sweep):
        """A factorization in any process but this one fails the sweep."""
        parent = os.getpid()
        factor = SpluBackend.factor

        def factor_in_parent_only(backend, matrix):
            if os.getpid() != parent:
                raise RuntimeError("a shard worker factored the grid")
            return factor(backend, matrix)

        monkeypatch.setattr(SpluBackend, "factor", factor_in_parent_only)
        engine = BatchedAnalysisEngine()
        sharded = [
            engine.analyze_batch(
                ibmpg1_grid, load_sweep, chunk_size=7, executor=two_shard_executor(kind)
            )
            for kind in ("hybrid", "processes")
        ]
        serial = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7, executor="serial")
        for result in sharded:
            assert_reductions_identical(serial, result)
        assert engine.cache_info().factorizations == 1

    @needs_fork
    def test_assigned_backend_reaches_shards(self, ibmpg1_grid, ibmpg1_bench):
        """Assigning ``solver_backend`` substitutes the backend everywhere:
        shard engines hold that very object, and a sharded sweep calls it
        exactly once, in the parent."""
        compiled = ibmpg1_grid.compile()
        engine = BatchedAnalysisEngine()
        backend = CountingBackend(engine.solver_backend)
        engine.solver_backend = backend
        assert engine.shard_engine(compiled).solver_backend is backend
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 8, 8, seed=7
        )
        sharded = engine.analyze_mega_sweep(
            compiled, load_matrix, pad_matrix, chunk_size=16, executor=HybridExecutor(2, 1)
        )
        assert backend.factor_calls == 1
        serial = engine.analyze_mega_sweep(
            compiled, load_matrix, pad_matrix, chunk_size=16, executor="serial"
        )
        assert_reductions_identical(serial, sharded)


class TestPicklePayload:
    """Spawned shard workers and remote workers load one payload format."""

    @staticmethod
    def _plan(grid, load_sweep, source=None) -> SweepPlan:
        return SweepPlan(
            engine=BatchedAnalysisEngine(),
            compiled=grid.compile(),
            scenario_source=source or MatrixScenarioSource(load_matrix=load_sweep),
            num_scenarios=load_sweep.shape[0],
            chunk_size=7,
            sinks=(),
        )

    def test_load_rebuilds_identical_state(self, ibmpg1_grid, load_sweep):
        plan = self._plan(ibmpg1_grid, load_sweep)
        state = load_shard_state(pickle_sweep_payload(plan, threads=2))
        assert state["threads"] == 2
        assert state["chunk_size"] == plan.chunk_size
        assert state["compiled"].fingerprint == plan.compiled.fingerprint
        assert (state["compiled"].reduced_matrix != plan.compiled.reduced_matrix).nnz == 0
        assert isinstance(state["engine"].solver_backend, SpluBackend)

    def test_worker_engine_mirrors_the_parent_configuration(self, ibmpg1_grid, load_sweep):
        """The payload carries the engine's solver configuration and no
        backend: every worker builds the one backend itself."""
        plan = SweepPlan(
            engine=BatchedAnalysisEngine(cache_size=3),
            compiled=ibmpg1_grid.compile(),
            scenario_source=MatrixScenarioSource(load_matrix=load_sweep),
            num_scenarios=load_sweep.shape[0],
            chunk_size=7,
            sinks=(),
        )
        payload = pickle_sweep_payload(plan)
        engine_config = pickle.loads(payload)[0]
        assert engine_config == {"cache_size": 3}
        engine = load_shard_state(payload)["engine"]
        assert engine.cache_size == 3

    def test_unpicklable_plan_rejected(self, ibmpg1_grid, load_sweep):
        # The closure is the point: unpicklable sources raise before any
        # payload is built or sink bound.
        plan = self._plan(
            ibmpg1_grid, load_sweep, lambda begin, end: (load_sweep[begin:end], None)
        )
        with pytest.raises(ExecutorIncompatibility, match="picklable"):
            require_shardable(plan, "test")

    @pytest.mark.parametrize("kind", ["processes", "hybrid"])
    def test_forkserver_shards_load_the_pickled_payload(
        self, ibmpg1_grid, load_sweep, nominal_worst, kind
    ):
        """Non-fork shards receive the pickle_sweep_payload bytes."""
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=tuple(seq_sinks.values()),
            executor="serial",
        )
        shard_sinks = mergeable_sinks(nominal_worst)
        executor = two_shard_executor(kind, start_method="forkserver")
        sharded = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=tuple(shard_sinks.values()),
            executor=executor,
        )
        assert_reductions_identical(sequential, sharded)
        assert_exact_sinks_identical(seq_sinks, shard_sinks)
        assert executor.last_stats["payload_bytes_shared"] > 0
