"""Inputs the engine rejects where they enter, before any sink observes a scenario.

A node that reaches neither a pad nor ground makes the nodal system
singular, and a non-finite load or pad voltage would only surface after
the solve as non-finite voltages.  Both are rejected at the boundary, with
errors that name the grid and node, or the scenario row, column and node
or pad.  Arguments of the wrong type (``names`` as one string, a
fractional scenario count, a worker count below 1) are rejected by name.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCountSink,
    HybridExecutor,
    MatrixScenarioSource,
    VectorlessAnalyzer,
    make_executor,
    uniform_budget,
)
from repro.grid import GROUND_NODE, Resistor, SyntheticIBMSuite, mega_sweep_matrices

from ..dense_oracle import reference_voltages

ISLAND_ERROR = (
    r"grid 'island' has 4 node\(s\) with no resistive path to a pad or ground, e\.g\. 'f1'"
)


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def ibmpg1_grid(ibmpg1_bench):
    return ibmpg1_bench.build_uniform_grid(5.0).compile()


@pytest.fixture(scope="module")
def sweep_matrices(ibmpg1_grid, ibmpg1_bench):
    return mega_sweep_matrices(ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 6, 4, seed=3)


@dataclass(frozen=True)
class PoisonedSource:
    """Paired load and pad rows with one entry replaced at a global scenario."""

    load_matrix: np.ndarray
    pad_voltage_matrix: np.ndarray
    scenario: int
    column: int
    field: str
    value: float

    def __call__(self, begin, end):
        loads = self.load_matrix[begin:end].copy()
        pads = self.pad_voltage_matrix[begin:end].copy()
        if begin <= self.scenario < end:
            target = loads if self.field == "load" else pads
            target[self.scenario - begin, self.column] = self.value
        return loads, pads


class TestFloatingIsland:
    def test_engine_rejects_the_island(self, floating_island):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match=ISLAND_ERROR):
            engine.analyze(floating_island)
        loads = np.tile(floating_island.compile().base_loads, (3, 1))
        with pytest.raises(ValueError, match=ISLAND_ERROR):
            engine.analyze_batch(floating_island, loads, chunk_size=2)
        assert engine.cache_info().factorizations == 0

    def test_a_path_to_ground_is_enough(self, floating_island):
        floating_island.add_resistor(
            Resistor(name="Rg", node_a="f3", node_b=GROUND_NODE, resistance=10.0)
        )
        result = BatchedAnalysisEngine().analyze(floating_island)
        # The ring now hangs from ground: its 10 mA load leaves through the
        # 10 ohm resistor, which holds f3 at -0.1 V.
        assert result.node_voltages["f3"] == pytest.approx(-0.1)
        expected = reference_voltages(floating_island)
        voltages = np.array([result.node_voltages[name] for name in floating_island.nodes])
        assert np.abs(voltages - expected).max() <= 1e-12

    def test_conductance_clones_share_the_check(self, ibmpg1_grid):
        assert ibmpg1_grid.floating_nodes.size == 0
        clone = ibmpg1_grid.with_conductances(ibmpg1_grid.conductance * 1.5)
        assert clone.floating_nodes is ibmpg1_grid.floating_nodes


class TestNonFiniteInputs:
    def test_mega_sweep_names_the_load(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        load_matrix = load_matrix.copy()
        load_matrix[2, 17] = np.nan
        sink = ExceedanceCountSink(0.0)
        node = ibmpg1_grid.node_names[17]
        with pytest.raises(
            ValueError, match=rf"load_matrix row 2, column 17 \(node '{node}'\) is nan"
        ):
            BatchedAnalysisEngine().analyze_mega_sweep(
                ibmpg1_grid, load_matrix, pad_matrix, chunk_size=5, sinks=[sink]
            )
        assert sink.num_consumed == 0

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_mega_sweep_names_the_pad(self, ibmpg1_grid, sweep_matrices, executor):
        load_matrix, pad_matrix = sweep_matrices
        pad_matrix = pad_matrix.copy()
        pad_matrix[3, 1] = np.inf
        sink = ExceedanceCountSink(0.0)
        pad = ibmpg1_grid.pad_names[1]
        with pytest.raises(
            ValueError, match=rf"pad_voltage_matrix row 3, column 1 \(pad '{pad}'\) is inf"
        ):
            BatchedAnalysisEngine().analyze_mega_sweep(
                ibmpg1_grid, load_matrix, pad_matrix, chunk_size=5, sinks=[sink],
                executor=executor,
            )
        assert sink.num_consumed == 0

    def test_pad_batch_names_both(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        engine = BatchedAnalysisEngine()
        loads = load_matrix.copy()
        loads[4, 9] = -np.inf
        node = ibmpg1_grid.node_names[9]
        with pytest.raises(
            ValueError, match=rf"load_matrix row 4, column 9 \(node '{node}'\) is -inf"
        ):
            engine.analyze_pad_batch(ibmpg1_grid, pad_matrix[:1].repeat(6, 0), load_matrix=loads)
        pads = pad_matrix.copy()
        pads[2, 0] = np.nan
        sink = ExceedanceCountSink(0.0)
        pad = ibmpg1_grid.pad_names[0]
        with pytest.raises(
            ValueError, match=rf"pad_voltage_matrix row 2, column 0 \(pad '{pad}'\) is nan"
        ):
            engine.analyze_pad_batch(ibmpg1_grid, pads, chunk_size=2, sinks=[sink])
        assert sink.num_consumed == 0
        assert engine.cache_info().factorizations == 0

    def test_batch_and_single_analysis_name_the_load(self, ibmpg1_grid, sweep_matrices):
        load_matrix, _ = sweep_matrices
        engine = BatchedAnalysisEngine()
        loads = load_matrix.copy()
        loads[1, 30] = np.nan
        node = ibmpg1_grid.node_names[30]
        with pytest.raises(ValueError, match=rf"load_matrix row 1, column 30 \(node '{node}'\)"):
            engine.analyze_batch(ibmpg1_grid, loads)
        with pytest.raises(ValueError, match=rf"loads column 30 \(node '{node}'\) is nan"):
            engine.analyze(ibmpg1_grid, loads=loads[1])

    @pytest.mark.parametrize(
        "field, column, value", [("load", 17, np.nan), ("pad", 1, np.inf)], ids=["load", "pad"]
    )
    @pytest.mark.parametrize(
        "executor",
        [
            pytest.param(lambda: HybridExecutor(1, 1), id="1x1"),
            pytest.param(lambda: HybridExecutor(2, 1), id="2x1"),
        ],
    )
    def test_generated_source_names_the_global_scenario(
        self, ibmpg1_grid, sweep_matrices, executor, field, column, value
    ):
        load_matrix, pad_matrix = sweep_matrices
        loads = np.tile(load_matrix, (6, 1))
        pads = np.tile(pad_matrix, (9, 1))
        source = PoisonedSource(loads, pads, scenario=30, column=column, field=field, value=value)
        kind, name = (
            ("load", ibmpg1_grid.node_names[column])
            if field == "load"
            else ("pad voltage", ibmpg1_grid.pad_names[column])
        )
        sink = ExceedanceCountSink(0.0)
        with pytest.raises(
            ValueError,
            match=rf"scenario source {kind} at scenario 30, column {column} \(.* '{name}'\) "
            rf"is {value}",
        ):
            BatchedAnalysisEngine().analyze_scenario_stream(
                ibmpg1_grid, source, 36, chunk_size=7, sinks=[sink], executor=executor()
            )
        # Chunks before the poisoned one may have been folded; never the
        # chunk that holds scenario 30.
        assert sink.num_consumed <= 28


class TestArgumentChecks:
    """Arguments of the wrong type are rejected by name, before any sink
    binds or any factorization runs."""

    @pytest.mark.parametrize("entry", ["analyze_batch", "analyze_pad_batch"])
    def test_names_given_as_one_string(self, ibmpg1_grid, sweep_matrices, entry):
        load_matrix, pad_matrix = sweep_matrices
        engine = BatchedAnalysisEngine()
        matrix = load_matrix[:2] if entry == "analyze_batch" else pad_matrix[:2]
        sink = ExceedanceCountSink(0.0)
        with pytest.raises(TypeError, match="names must be a sequence of 2 scenario names"):
            getattr(engine, entry)(ibmpg1_grid, matrix, names="ab", sinks=[sink])
        assert sink.num_consumed == 0
        assert engine.cache_info().factorizations == 0
        batch = getattr(engine, entry)(ibmpg1_grid, matrix, names=["a", "b"])
        assert batch.scenario_names == ("a", "b")

    @pytest.mark.parametrize("count", [3.5, 4.0, "4"], ids=["fraction", "whole-float", "str"])
    def test_stream_count_must_be_an_integer(self, ibmpg1_grid, sweep_matrices, count):
        load_matrix, _ = sweep_matrices
        engine = BatchedAnalysisEngine()
        sink = ExceedanceCountSink(0.0)
        with pytest.raises(TypeError, match=rf"num_scenarios must be an integer, got {count!r}"):
            engine.analyze_scenario_stream(
                ibmpg1_grid, MatrixScenarioSource(load_matrix), count, sinks=[sink]
            )
        with pytest.raises(ValueError, match="bound"):
            sink.result()
        assert engine.cache_info().factorizations == 0

    def test_stream_count_accepts_numpy_integers(self, ibmpg1_grid, sweep_matrices):
        load_matrix, _ = sweep_matrices
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix)
        reference = engine.analyze_scenario_stream(ibmpg1_grid, source, 4, chunk_size=3)
        result = engine.analyze_scenario_stream(ibmpg1_grid, source, np.int64(4), chunk_size=3)
        assert type(result.num_scenarios) is int and result.num_scenarios == 4
        assert np.array_equal(result.worst_ir_drop, reference.worst_ir_drop)
        with pytest.raises(ValueError, match="num_scenarios must be at least 1"):
            engine.analyze_scenario_stream(ibmpg1_grid, source, np.int32(0))

    def test_statistical_count_checked_before_factorization(self, ibmpg1_bench):
        network = ibmpg1_bench.build_uniform_grid(5.0)
        engine = BatchedAnalysisEngine()
        with pytest.raises(TypeError, match="num_scenarios must be an integer"):
            VectorlessAnalyzer(engine).analyze_statistical(
                network, uniform_budget(network), 3.5
            )
        assert engine.cache_info().factorizations == 0

    @pytest.mark.parametrize("name", ["threads", "processes", "hybrid", "remote", "serial"])
    @pytest.mark.parametrize("workers", [0, -2])
    def test_make_executor_names_workers(self, name, workers):
        with pytest.raises(ValueError, match=rf"^workers must be at least 1, got {workers}$"):
            make_executor(name, workers)
