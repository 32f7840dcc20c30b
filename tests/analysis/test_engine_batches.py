"""Tests for RHS sharding and the pad-voltage batch API of the engine.

Sharded sweeps must stream their reductions without ever materialising the
dense ``(num_nodes, k)`` voltage matrix.  The reduction order is fixed, so
equal voltages give bitwise-equal reductions; SuperLU's multi-RHS solve
may move a voltage in the last bit with the block width, so across block
widths the mean drop is pinned to 1e-12 V.  Pad-voltage batches must match
the per-scenario ``NetworkPerturbator`` + ``analyze`` path to 1e-9 per node.
Every batch entry point raises a failed factorization or a non-finite
solve as :class:`~repro.analysis.solvers.LinearSolverError`.
"""

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCountSink,
    LinearSolverError,
    MatrixScenarioSource,
    NodeHistogramSink,
    TopKScenarioSink,
    make_executor,
    resolve_chunk_size,
    solvers,
)
from repro.analysis.engine import SOLVE_COLUMNS
from repro.grid import (
    NetworkPerturbator,
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    mega_sweep_matrices,
    perturbed_load_matrix,
    perturbed_pad_voltage_matrix,
)

VOLTAGE_TOLERANCE = 1e-9


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


class TestShardedBatch:
    @pytest.mark.parametrize("chunk_size", [1, 8, 37, 100])
    def test_sharded_reductions_bitwise_match_unsharded(
        self, ibmpg1_grid, load_sweep, chunk_size
    ):
        engine = BatchedAnalysisEngine()
        full = engine.analyze_batch(ibmpg1_grid, load_sweep)
        sharded = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=chunk_size)
        assert np.array_equal(full.worst_ir_drop, sharded.worst_ir_drop)
        assert np.array_equal(full.average_ir_drop, sharded.average_ir_drop)
        assert np.array_equal(full.worst_node_index, sharded.worst_node_index)

    def test_adaptive_width_matches_wide_blocks(self, ibmpg1_grid, ibmpg1_bench):
        """The adaptive 84-column blocks against 4096-column ones on the
        80 x 64 mega-sweep: mean drops may move in the last bit (on
        ibmpg1 none does, with or without 16-column solve slices);
        everything else is equal."""
        loads, pads = mega_sweep_matrices(ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 80, 64, seed=1)
        engine = BatchedAnalysisEngine()
        threshold = engine.analyze(ibmpg1_grid).worst_ir_drop
        assert resolve_chunk_size(ibmpg1_grid.compile().num_unknowns) == 84
        sweeps = {}
        for chunk_size in (None, 4096):
            sinks = (
                NodeHistogramSink(np.linspace(0.0, 2.0 * threshold, 33)),
                ExceedanceCountSink(threshold),
            )
            result = engine.analyze_mega_sweep(
                ibmpg1_grid, loads, pads, chunk_size=chunk_size, sinks=sinks, executor="serial"
            )
            sweeps[result.chunk_size] = result, sinks[0].result(), sinks[1].result()
        (narrow, narrow_hist, narrow_exceed), (wide, wide_hist, wide_exceed) = (
            sweeps[84], sweeps[4096]
        )
        assert np.allclose(narrow.average_ir_drop, wide.average_ir_drop, rtol=0.0, atol=1e-12)
        assert np.array_equal(narrow.worst_ir_drop, wide.worst_ir_drop)
        assert np.array_equal(narrow.worst_node_index, wide.worst_node_index)
        assert np.array_equal(narrow_hist.counts, wide_hist.counts)
        assert np.array_equal(narrow_hist.underflow, wide_hist.underflow)
        assert np.array_equal(narrow_hist.overflow, wide_hist.overflow)
        assert np.array_equal(narrow_exceed.counts, wide_exceed.counts)

    def test_sharded_batch_never_materialises_voltages(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        sharded = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8)
        assert sharded.voltages is None
        assert sharded.reductions is not None
        assert sharded.num_scenarios == load_sweep.shape[0]
        with pytest.raises(ValueError, match="sharding"):
            sharded.scenario_voltages(0)
        with pytest.raises(ValueError, match="sharding"):
            sharded.result(0)
        with pytest.raises(ValueError, match="sharding"):
            sharded.ir_drop

    def test_sharded_batch_uses_one_factorization(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=5)
        assert engine.cache_info().factorizations == 1

    def test_worst_node_names_consistent(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        full = engine.analyze_batch(ibmpg1_grid, load_sweep)
        sharded = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=4)
        for scenario in range(0, load_sweep.shape[0], 9):
            assert sharded.worst_node(scenario) == full.worst_node(scenario)

    def test_invalid_chunk_size_rejected(self, ibmpg1_grid, load_sweep):
        with pytest.raises(ValueError, match="chunk_size"):
            BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep, chunk_size=0)

    def test_large_sharded_sweep(self):
        """A ≥1e4-scenario sweep completes with chunk-bounded memory."""
        grid = SyntheticIBMSuite(scale=0.25).load("ibmpg1").build_uniform_grid(5.0)
        compiled = grid.compile()
        num_scenarios = 10_000
        rng = np.random.default_rng(0)
        load_matrix = compiled.base_loads * (
            1.0 + rng.uniform(-0.25, 0.25, size=(num_scenarios, 1))
        )
        engine = BatchedAnalysisEngine()
        batch = engine.analyze_batch(grid, load_matrix, chunk_size=512)
        assert batch.voltages is None
        assert batch.worst_ir_drop.shape == (num_scenarios,)
        assert engine.cache_info().factorizations == 1
        # Spot-check a handful of scenarios against unsharded solves.
        sample = [0, 1234, 9999]
        reference = engine.analyze_batch(grid, load_matrix[sample])
        assert np.array_equal(batch.worst_ir_drop[sample], reference.worst_ir_drop)
        assert np.array_equal(batch.average_ir_drop[sample], reference.average_ir_drop)


class TestPadVoltageBatch:
    @pytest.fixture(scope="class")
    def pad_sweep(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        return spec, perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 6)

    def test_batch_matches_per_scenario_analyze(self, ibmpg1_grid, pad_sweep):
        spec, pad_matrix = pad_sweep
        engine = BatchedAnalysisEngine()
        batch = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix)
        compiled = ibmpg1_grid.compile()
        for scenario in range(pad_matrix.shape[0]):
            per_spec = PerturbationSpec(
                gamma=spec.gamma, kind=spec.kind, seed=spec.seed + scenario
            )
            perturbed = NetworkPerturbator(per_spec).perturb(ibmpg1_grid)
            reference = BatchedAnalysisEngine().analyze(perturbed)
            reference_voltages = compiled.voltage_array(reference.node_voltages)
            difference = np.abs(
                reference_voltages - batch.scenario_voltages(scenario)
            ).max()
            assert difference <= VOLTAGE_TOLERANCE

    def test_pad_sweep_shares_one_factorization(self, ibmpg1_grid, pad_sweep):
        _, pad_matrix = pad_sweep
        engine = BatchedAnalysisEngine()
        engine.analyze(ibmpg1_grid)
        batch = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix)
        assert batch.factorization_reused
        assert engine.cache_info().factorizations == 1

    def test_sharded_pad_batch_matches_unsharded(self, ibmpg1_grid, pad_sweep):
        _, pad_matrix = pad_sweep
        engine = BatchedAnalysisEngine()
        full = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix)
        sharded = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix, chunk_size=2)
        assert sharded.voltages is None
        assert np.array_equal(full.worst_ir_drop, sharded.worst_ir_drop)
        assert np.array_equal(full.average_ir_drop, sharded.average_ir_drop)
        assert np.array_equal(full.worst_node_index, sharded.worst_node_index)

    def test_combined_load_and_pad_batch(self, ibmpg1_grid, pad_sweep):
        _, pad_matrix = pad_sweep
        compiled = ibmpg1_grid.compile()
        load_matrix = np.tile(compiled.base_loads, (pad_matrix.shape[0], 1))
        engine = BatchedAnalysisEngine()
        with_loads = engine.analyze_pad_batch(
            ibmpg1_grid, pad_matrix, load_matrix=load_matrix
        )
        without = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix)
        assert np.allclose(
            with_loads.worst_ir_drop, without.worst_ir_drop, atol=VOLTAGE_TOLERANCE
        )

    def test_input_validation(self, ibmpg1_grid, pad_sweep):
        _, pad_matrix = pad_sweep
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError):
            engine.analyze_pad_batch(ibmpg1_grid, pad_matrix[:, :-1])
        with pytest.raises(ValueError, match="at least one scenario"):
            engine.analyze_pad_batch(ibmpg1_grid, pad_matrix[:0])
        with pytest.raises(ValueError):
            engine.analyze_pad_batch(
                ibmpg1_grid, pad_matrix, load_matrix=np.zeros((2, 3))
            )

    def test_pad_matrix_generator_validation(self, ibmpg1_grid):
        current_spec = PerturbationSpec(
            gamma=0.1, kind=PerturbationKind.CURRENT_WORKLOADS, seed=1
        )
        with pytest.raises(ValueError):
            perturbed_pad_voltage_matrix(ibmpg1_grid, current_spec, 4)
        voltage_spec = PerturbationSpec(
            gamma=0.1, kind=PerturbationKind.NODE_VOLTAGES, seed=1
        )
        with pytest.raises(ValueError):
            perturbed_pad_voltage_matrix(ibmpg1_grid, voltage_spec, 0)


class TestUpfrontValidation:
    """Bad inputs fail fast with full-matrix shapes, before sinks bind."""

    def test_chunked_batch_names_full_matrix_shape(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        compiled = ibmpg1_grid.compile()
        wrong = load_sweep[:3, :-1]
        sink = TopKScenarioSink(2)
        with pytest.raises(ValueError, match=rf"got shape \(3, {compiled.num_nodes - 1}\)"):
            engine.analyze_batch(ibmpg1_grid, wrong, chunk_size=2, sinks=(sink,))
        # The error fired before the sink was bound or observed anything.
        assert sink.num_consumed == 0
        with pytest.raises(ValueError, match="never bound"):
            sink.result()

    def test_one_dimensional_load_matrix_rejected(self, ibmpg1_grid, load_sweep):
        with pytest.raises(ValueError, match="must be 2-D"):
            BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep[0])

    def test_pad_batch_names_full_load_shape(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.1, kind=PerturbationKind.NODE_VOLTAGES, seed=3)
        pad_matrix = perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 4)
        with pytest.raises(ValueError, match=r"got shape \(2, 3\)"):
            BatchedAnalysisEngine().analyze_pad_batch(
                ibmpg1_grid, pad_matrix, load_matrix=np.zeros((2, 3)), chunk_size=2
            )

    def test_pad_batch_names_pad_matrix_shape(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match=r"got shape \(3, 3\)"):
            engine.analyze_pad_batch(ibmpg1_grid, np.zeros((3, 3)))
        num_pads = len(ibmpg1_grid.compile().pad_node)
        with pytest.raises(ValueError, match=rf"got shape \({num_pads},\)"):
            engine.analyze_pad_batch(ibmpg1_grid, np.zeros(num_pads))

    @pytest.mark.parametrize("chunk_size", [None, 2])
    @pytest.mark.parametrize("entry_point", ["analyze_batch", "analyze_pad_batch"])
    def test_wrong_name_count_rejected_before_solving(
        self, ibmpg1_grid, load_sweep, entry_point, chunk_size
    ):
        engine = BatchedAnalysisEngine()
        if entry_point == "analyze_batch":
            matrix = load_sweep[:3]
        else:
            spec = PerturbationSpec(gamma=0.1, kind=PerturbationKind.NODE_VOLTAGES, seed=3)
            matrix = perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 3)
        sink = ExceedanceCountSink(0.01)
        with pytest.raises(ValueError, match="expected 3 scenario names, got 2"):
            getattr(engine, entry_point)(
                ibmpg1_grid, matrix, names=["a", "b"], chunk_size=chunk_size, sinks=(sink,)
            )
        # Nothing was factored, and the sink is still fresh for a retry.
        assert engine.cache_info().factorizations == 0
        assert sink.num_consumed == 0
        with pytest.raises(ValueError, match="never bound"):
            sink.result()

    def test_stream_source_width_error_names_scenario_range(self, ibmpg1_grid):
        compiled = ibmpg1_grid.compile()
        sink = TopKScenarioSink(2)

        def narrow_source(begin, end):
            return np.zeros((end - begin, compiled.num_nodes - 1)), None

        with pytest.raises(ValueError, match=r"scenarios \[0, 2\)"):
            BatchedAnalysisEngine().analyze_scenario_stream(
                ibmpg1_grid, narrow_source, 6, chunk_size=2, sinks=(sink,)
            )
        # The bad chunk was rejected before the sink observed any scenario.
        assert sink.num_consumed == 0

    def test_stream_source_bad_pad_width_rejected(self, ibmpg1_grid):
        compiled = ibmpg1_grid.compile()
        num_pads = len(compiled.pad_node)

        def bad_pad_source(begin, end):
            if begin == 0:
                return None, np.full((end - begin, num_pads), 1.8)
            return None, np.full((end - begin, num_pads + 1), 1.8)

        sink = TopKScenarioSink(2)
        with pytest.raises(ValueError, match=r"scenarios \[2, 4\)"):
            BatchedAnalysisEngine().analyze_scenario_stream(
                ibmpg1_grid, bad_pad_source, 4, chunk_size=2, sinks=(sink,), executor="serial"
            )
        # Only the valid first chunk reached the sink.
        assert sink.num_consumed == 2
        # Parallel pipelines may abort before folding earlier chunks, but
        # a sink never observes scenarios from (or past) the bad chunk.
        parallel_sink = TopKScenarioSink(2)
        with pytest.raises(ValueError, match=r"scenarios \[2, 4\)"):
            BatchedAnalysisEngine().analyze_scenario_stream(
                ibmpg1_grid,
                bad_pad_source,
                4,
                chunk_size=2,
                sinks=(parallel_sink,),
                executor=make_executor("threads", 3),
            )
        assert parallel_sink.num_consumed <= 2


def batch_entry_points(engine, grid, load_sweep):
    """Each batch entry point of ``engine`` on ``grid``, as a call taking
    the sweep keywords (``chunk_size``, ``sinks``, ``executor``)."""
    compiled = grid.compile()
    pads = np.tile(compiled.pad_voltage[compiled.pad_node], (load_sweep.shape[0], 1))
    return {
        "analyze_batch": lambda **kw: engine.analyze_batch(grid, load_sweep, **kw),
        "analyze_pad_batch": lambda **kw: engine.analyze_pad_batch(grid, pads, **kw),
        "analyze_scenario_stream": lambda **kw: engine.analyze_scenario_stream(
            grid, MatrixScenarioSource(load_sweep), load_sweep.shape[0], **kw
        ),
        "analyze_mega_sweep": lambda **kw: engine.analyze_mega_sweep(
            grid, load_sweep, pads[:2], **kw
        ),
    }


NON_FINITE_SOLVES = {"every-slice": (1, 8), "third-slice": (3, 33)}
"""Non-finite solves a sweep must raise: ``(first failing solve call, chunk width)``.

NaN from every slice of 8-column chunks, or only from the third call on,
which a 33-column chunk (slices of 16, 16 and 1) reaches on its last slice.
"""

BATCH_ENTRY_POINTS = (
    "analyze_batch",
    "analyze_pad_batch",
    "analyze_scenario_stream",
    "analyze_mega_sweep",
)


class TestSolverErrorsReachTheCaller:
    """Every batch entry point raises the solver's errors instead of
    reducing past them: a factorization that runs out of memory, and a
    solve that produces non-finite voltages.  No sink observes a
    scenario of a failed solve, and a failed factorization leaves the
    cache as it was."""

    @pytest.fixture
    def out_of_memory(self, monkeypatch, ibmpg1_grid):
        """Make ``splu`` raise ``MemoryError``.

        Returns the expected error message and the list of factorization
        attempts made in this process (a process shard's are not seen).
        """
        attempts = []

        def exhausted(matrix, *args, **kwargs):
            attempts.append(matrix.shape[0])
            raise MemoryError

        monkeypatch.setattr(solvers.spla, "splu", exhausted)
        unknowns = ibmpg1_grid.compile().num_unknowns
        return rf"^factorization of {unknowns} unknowns ran out of memory$", attempts

    @pytest.mark.parametrize("entry_point", BATCH_ENTRY_POINTS)
    def test_out_of_memory_factorization_is_raised(
        self, ibmpg1_grid, load_sweep, out_of_memory, entry_point
    ):
        message, _ = out_of_memory
        engine = BatchedAnalysisEngine()
        before = engine.cache_info()
        call = batch_entry_points(engine, ibmpg1_grid, load_sweep)[entry_point]
        with pytest.raises(LinearSolverError, match=message):
            call()
        assert engine.cache_info() == before

    @pytest.mark.parametrize("executor_name", ["threads", "processes", "hybrid"])
    def test_sharded_sweep_fails_in_the_parent(
        self, ibmpg1_grid, load_sweep, out_of_memory, executor_name
    ):
        """The parent factors the grid before it shards, so its failure
        is raised before any process shard starts."""
        message, attempts = out_of_memory
        engine = BatchedAnalysisEngine()
        before = engine.cache_info()
        sink = TopKScenarioSink(2)
        call = batch_entry_points(engine, ibmpg1_grid, load_sweep)["analyze_mega_sweep"]
        with pytest.raises(LinearSolverError, match=message):
            call(chunk_size=8, sinks=(sink,), executor=make_executor(executor_name, 2))
        assert attempts
        assert engine.cache_info() == before
        assert sink.num_consumed == 0

    @pytest.mark.parametrize("failure", sorted(NON_FINITE_SOLVES))
    @pytest.mark.parametrize(("executor_name", "workers"), [("serial", 1), ("threads", 2)])
    @pytest.mark.parametrize("entry_point", BATCH_ENTRY_POINTS)
    def test_non_finite_voltages_are_raised(
        self, ibmpg1_grid, load_sweep, non_finite_solve, entry_point, executor_name, workers,
        failure,
    ):
        first, chunk_size = NON_FINITE_SOLVES[failure]
        widths = non_finite_solve(first)
        engine = BatchedAnalysisEngine()
        sink = TopKScenarioSink(2)
        call = batch_entry_points(engine, ibmpg1_grid, load_sweep)[entry_point]
        with pytest.raises(
            LinearSolverError, match=r"^direct solve produced non-finite voltages$"
        ):
            call(
                chunk_size=chunk_size, sinks=(sink,),
                executor=make_executor(executor_name, workers),
            )
        assert sink.num_consumed == 0
        assert len(widths) >= first


class _RecordingFactorization:
    """Delegates every solve, recording how many columns it received."""

    def __init__(self, inner, widths):
        self._inner = inner
        self._widths = widths

    def solve(self, rhs):
        self._widths.append(rhs.shape[1])
        return self._inner.solve(rhs)


class _RecordingBackend:
    """A ``solver_backend`` whose factorizations record each solve's width."""

    name = "recording"

    def __init__(self, inner):
        self._inner = inner
        self.widths = []

    def factor(self, matrix):
        return _RecordingFactorization(self._inner.factor(matrix), self.widths)


class TestSolveSlices:
    """SuperLU receives at most ``SOLVE_COLUMNS`` right-hand sides per call:
    a block of ``c`` scenarios is ``ceil(c / 16)`` solves, while the
    factorization is looked up once per block, so the cache counts one hit
    per chunk as before.  Blocks of at most 16 columns stay one call."""

    @staticmethod
    def recording_engine(grid):
        engine = BatchedAnalysisEngine()
        backend = _RecordingBackend(engine.solver_backend)
        engine.solver_backend = backend
        engine.analyze(grid)
        backend.widths.clear()
        return engine, backend.widths

    @pytest.mark.parametrize(("executor_name", "workers"), [("serial", 1), ("threads", 2)])
    def test_mega_sweep_chunks(self, ibmpg1_grid, load_sweep, executor_name, workers):
        compiled = ibmpg1_grid.compile()
        pads = np.tile(compiled.pad_voltage[compiled.pad_node], (5, 1))
        engine, widths = self.recording_engine(compiled)
        before = engine.cache_info()
        result = engine.analyze_mega_sweep(
            compiled, load_sweep, pads, executor=make_executor(executor_name, workers)
        )
        assert result.chunk_size == 84
        assert result.num_scenarios == 185
        # Chunks of 84, 84 and 17 scenarios, sliced from each chunk's start.
        expected = [16] * 5 + [4] + [16] * 5 + [4] + [16, 1]
        assert max(widths) == SOLVE_COLUMNS
        assert sorted(widths) == sorted(expected)
        if executor_name == "serial":
            assert widths == expected
        assert engine.cache_info().hits - before.hits == 3

    def test_unchunked_batch(self, ibmpg1_grid, load_sweep):
        loads = np.resize(load_sweep, (100, load_sweep.shape[1]))
        engine, widths = self.recording_engine(ibmpg1_grid)
        before = engine.cache_info()
        engine.analyze_batch(ibmpg1_grid, loads)
        assert widths == [16] * 6 + [4]
        assert engine.cache_info().hits - before.hits == 1

    def test_narrow_chunks_are_one_call(self):
        grid = SyntheticIBMSuite().load("ibmpgnew1").build_uniform_grid(5.0).compile()
        assert resolve_chunk_size(grid.num_unknowns) == 9
        loads = np.tile(grid.base_loads, (4, 1)) * np.linspace(0.8, 1.2, 4)[:, None]
        pads = np.tile(grid.pad_voltage[grid.pad_node], (5, 1))
        engine, widths = self.recording_engine(grid)
        before = engine.cache_info()
        engine.analyze_mega_sweep(grid, loads, pads, executor="serial")
        assert widths == [9, 9, 2]
        assert engine.cache_info().hits - before.hits == 3
