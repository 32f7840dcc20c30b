"""Tests for the cached-factorization, multi-RHS analysis engine.

The acceptance bar for the engine is numerical equivalence with an
independent dense solve of the grid's nodal equations
(:mod:`tests.dense_oracle`, ≤ 1e-9 per node voltage) plus the guarantee
that a current-only perturbation sweep is served by exactly one sparse
factorization.
"""

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    LinearSolverError,
    TopKScenarioSink,
    VectorlessAnalyzer,
    solvers,
    uniform_budget,
)
from repro.core import batched_solve_study
from repro.grid import (
    CurrentSource,
    GridBuilder,
    GridNode,
    NetworkPerturbator,
    PerturbationKind,
    PerturbationSpec,
    PowerGridNetwork,
    Resistor,
    SyntheticIBMSuite,
    VoltageSource,
    perturbed_load_matrix,
)

from ..dense_oracle import reference_loads, reference_voltages
from ..reference_rhs import reference_rhs

VOLTAGE_TOLERANCE = 1e-9


def max_voltage_difference(result, expected_voltages):
    """Worst per-node voltage difference of a result against node-order voltages.

    ``result.node_voltages`` is keyed in compiled node order, which is the
    network's node order the oracle returns.
    """
    names = list(result.node_voltages)
    voltages = np.array([result.node_voltages[name] for name in names])
    return float(np.abs(voltages - expected_voltages).max())


def max_result_difference(expected, actual):
    """Worst per-node voltage difference between two analysis results."""
    assert set(expected.node_voltages) == set(actual.node_voltages)
    return max(
        abs(voltage - actual.node_voltages[name])
        for name, voltage in expected.node_voltages.items()
    )


@pytest.fixture(scope="module")
def ibmpg1_grid():
    """The smallest suite benchmark, built with uniform 5 um stripes."""
    return SyntheticIBMSuite().load("ibmpg1").build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def ibmpg2_grid():
    """A second, larger benchmark grid (half-scale ibmpg2)."""
    return SyntheticIBMSuite(scale=0.5).load("ibmpg2").build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def ibmpg2_full_grid():
    """Full-scale ibmpg2 (4 544 unknowns): the oracle solves it sparsely."""
    return SyntheticIBMSuite().load("ibmpg2").build_uniform_grid(5.0)


class TestSingleSolveEquivalence:
    @pytest.mark.parametrize("grid_fixture", ["ibmpg1_grid", "ibmpg2_grid", "ibmpg2_full_grid"])
    def test_engine_matches_dense_oracle(self, grid_fixture, request):
        grid = request.getfixturevalue(grid_fixture)
        expected = reference_voltages(grid)
        engine = BatchedAnalysisEngine().analyze(grid)
        assert max_voltage_difference(engine, expected) <= VOLTAGE_TOLERANCE
        drops = grid.vdd - expected
        assert engine.worst_ir_drop == pytest.approx(drops.max(), abs=1e-9)
        worst = list(grid.nodes).index(engine.worst_node)
        assert drops[worst] == pytest.approx(drops.max(), abs=1e-9)
        assert engine.average_ir_drop == pytest.approx(drops.mean(), abs=1e-9)

    @pytest.mark.parametrize("grid_fixture", ["ibmpg1_grid", "ibmpg2_grid"])
    def test_load_perturbed_equivalence(self, grid_fixture, request):
        grid = request.getfixturevalue(grid_fixture)
        spec = PerturbationSpec(gamma=0.25, kind=PerturbationKind.CURRENT_WORKLOADS, seed=42)
        perturbed = NetworkPerturbator(spec).perturb(grid)
        engine = BatchedAnalysisEngine().analyze(perturbed)
        assert max_voltage_difference(engine, reference_voltages(perturbed)) <= VOLTAGE_TOLERANCE

    @pytest.mark.parametrize("grid_fixture", ["ibmpg1_grid", "ibmpg2_grid"])
    def test_pad_perturbed_equivalence(self, grid_fixture, request):
        grid = request.getfixturevalue(grid_fixture)
        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        perturbed = NetworkPerturbator(spec).perturb(grid)
        engine = BatchedAnalysisEngine().analyze(perturbed)
        assert max_voltage_difference(engine, reference_voltages(perturbed)) <= VOLTAGE_TOLERANCE

    def test_pad_perturbation_reuses_factorization(self, ibmpg1_grid):
        """Pad voltages only enter the RHS, so the factorization is shared."""
        engine = BatchedAnalysisEngine()
        engine.analyze(ibmpg1_grid)
        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        engine.analyze(NetworkPerturbator(spec).perturb(ibmpg1_grid))
        info = engine.cache_info()
        assert info.factorizations == 1
        assert info.hits == 1


class TestBatchedSolve:
    def test_batch_matches_oracle_per_scenario(self, ibmpg1_grid):
        """Row ``i`` of the batch is the perturbed network of seed ``seed + i``."""
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=5)
        num_scenarios = 12
        load_matrix = perturbed_load_matrix(ibmpg1_grid, spec, num_scenarios)
        batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_matrix)
        perturbed_loads = np.array(
            [
                reference_loads(
                    NetworkPerturbator(
                        PerturbationSpec(gamma=spec.gamma, kind=spec.kind, seed=spec.seed + i)
                    ).perturb(ibmpg1_grid)
                )
                for i in range(num_scenarios)
            ]
        )
        expected = reference_voltages(ibmpg1_grid, loads=perturbed_loads)
        for scenario in range(num_scenarios):
            difference = np.abs(expected[scenario] - batch.scenario_voltages(scenario)).max()
            assert difference <= VOLTAGE_TOLERANCE

    def test_sweep_of_50_scenarios_uses_one_factorization(self, ibmpg1_grid):
        """Acceptance criterion: ≥50 current-only scenarios, one factorization."""
        spec = PerturbationSpec(gamma=0.3, kind=PerturbationKind.CURRENT_WORKLOADS, seed=9)
        engine = BatchedAnalysisEngine()
        load_matrix = perturbed_load_matrix(ibmpg1_grid, spec, 50)
        batch = engine.analyze_batch(ibmpg1_grid, load_matrix)
        assert batch.num_scenarios == 50
        assert engine.cache_info().factorizations == 1

        # Solving the scenarios one by one against the same engine must not
        # trigger any further factorization either.
        for scenario in range(0, 50, 10):
            engine.analyze(ibmpg1_grid, loads=load_matrix[scenario])
        info = engine.cache_info()
        assert info.factorizations == 1
        assert info.hits >= 5

    def test_batch_results_materialise_consistently(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.1, kind=PerturbationKind.CURRENT_WORKLOADS, seed=3)
        load_matrix = perturbed_load_matrix(ibmpg1_grid, spec, 4)
        batch = BatchedAnalysisEngine().analyze_batch(
            ibmpg1_grid, load_matrix, names=[f"s{i}" for i in range(4)]
        )
        result = batch.result(2)
        assert result.network_name == "s2"
        assert result.worst_ir_drop == pytest.approx(float(batch.worst_ir_drop[2]))
        assert result.node_ir_drop[result.worst_node] == pytest.approx(result.worst_ir_drop)
        assert result.vdd == ibmpg1_grid.vdd
        drops = np.asarray(list(result.node_ir_drop.values()))
        assert result.average_ir_drop == pytest.approx(drops.mean())

    def test_batch_rejects_bad_inputs(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError):
            engine.analyze_batch(ibmpg1_grid, np.zeros(ibmpg1_grid.compile().num_nodes))
        with pytest.raises(ValueError):
            engine.analyze_batch(
                ibmpg1_grid,
                np.zeros((2, ibmpg1_grid.compile().num_nodes)),
                names=["only-one"],
            )
        with pytest.raises(ValueError, match="at least one scenario"):
            engine.analyze_batch(
                ibmpg1_grid, np.zeros((0, ibmpg1_grid.compile().num_nodes))
            )

    def test_factorization_reused_flag(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        loads = np.tile(ibmpg1_grid.compile().base_loads, (2, 1))
        first = engine.analyze_batch(ibmpg1_grid, loads)
        second = engine.analyze_batch(ibmpg1_grid, loads)
        assert not first.factorization_reused
        assert second.factorization_reused


class TestEveryGridIsFactored:
    """SuperLU factors every grid the engine solves, whatever its size."""

    def test_out_of_memory_factorization_names_the_unknowns(
        self, ibmpg1_grid, ibmpg2_grid, monkeypatch
    ):
        engine = BatchedAnalysisEngine()
        engine.analyze(ibmpg1_grid)
        before = engine.cache_info()

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(solvers.spla, "splu", exhausted)
        unknowns = ibmpg2_grid.compile().num_unknowns
        with pytest.raises(
            LinearSolverError,
            match=rf"^factorization of {unknowns} unknowns ran out of memory$",
        ):
            engine.analyze(ibmpg2_grid)
        assert engine.cache_info() == before

    def test_factors_a_grid_past_the_old_iterative_limit(self):
        """61 696 unknowns: one factorization, solved to a relative
        residual of 1e-12."""
        bench = SyntheticIBMSuite(scale=2.1).load("ibmpgnew1")
        grid = GridBuilder(bench.technology).build_compiled(
            bench.floorplan, bench.topology, 5.0
        )
        assert grid.num_unknowns == 61_696
        engine = BatchedAnalysisEngine()
        voltages = engine.solve_voltages(grid)
        assert engine.cache_info().factorizations == 1
        rhs = reference_rhs(grid)[:, 0]
        residual = grid.reduced_matrix @ voltages[grid.unknown_sel] - rhs
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


class TestCacheManagement:
    def test_lru_eviction(self, ibmpg1_grid, ibmpg2_grid):
        engine = BatchedAnalysisEngine(cache_size=1)
        engine.analyze(ibmpg1_grid)
        engine.analyze(ibmpg2_grid)
        engine.analyze(ibmpg1_grid)
        info = engine.cache_info()
        assert info.factorizations == 3
        assert info.entries == 1

    def test_clear_cache(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        engine.analyze(ibmpg1_grid)
        engine.clear_cache()
        assert engine.cache_info().entries == 0
        engine.analyze(ibmpg1_grid)
        assert engine.cache_info().factorizations == 2

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ValueError):
            BatchedAnalysisEngine(cache_size=0)

    def test_network_without_pads_rejected(self):
        from repro.grid import GridNode, PowerGridNetwork

        network = PowerGridNetwork()
        network.add_node(GridNode(name="a", x=0.0, y=0.0))
        with pytest.raises(ValueError):
            BatchedAnalysisEngine().analyze(network)


class TestVectorlessWithEngine:
    def test_batched_vectorless_matches_object_level_reference(self, ibmpg1_grid):
        """The array-built budget equals budgeted current sources on the network."""
        budget = uniform_budget(ibmpg1_grid, headroom=1.4, utilisation=0.9)
        batched = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze(ibmpg1_grid, budget)

        budgeted_loads = [
            CurrentSource(
                name=load.name,
                node=load.node,
                current=budget.per_load_max.get(load.name, load.current),
                block=load.block,
            )
            for load in ibmpg1_grid.iter_loads()
        ]
        total_maximum = sum(load.current for load in budgeted_loads)
        scale = total_maximum * budget.global_utilisation / total_maximum
        bounded = ibmpg1_grid.replace_loads(
            [load.scaled(scale) for load in budgeted_loads],
            name=f"{ibmpg1_grid.name}_vectorless",
        )
        engine = BatchedAnalysisEngine()
        nominal = engine.analyze(ibmpg1_grid)
        bound = engine.analyze(bounded)

        assert max_result_difference(nominal, batched.nominal_result) <= VOLTAGE_TOLERANCE
        assert max_result_difference(bound, batched.bound_result) <= VOLTAGE_TOLERANCE
        pessimism = bound.worst_ir_drop / nominal.worst_ir_drop
        assert batched.pessimism == pytest.approx(pessimism, rel=1e-9)
        assert batched.bound_result.network_name == bound.network_name

    def test_default_vectorless_uses_one_factorization(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        VectorlessAnalyzer(engine).analyze(ibmpg1_grid, uniform_budget(ibmpg1_grid))
        assert engine.cache_info().factorizations == 1


class TestBatchedSolveStudy:
    def test_study_reports_equivalence_and_single_factorization(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=1)
        study = batched_solve_study(ibmpg1_grid, spec, num_scenarios=8)
        assert study.num_scenarios == 8
        assert study.batched_factorizations == 1
        assert study.max_voltage_difference <= VOLTAGE_TOLERANCE
        record = study.as_record()
        assert record["benchmark"] == ibmpg1_grid.name
        assert record["speedup"] == pytest.approx(study.speedup)


def voltage_divider(load_current=0.1, r1=1.0, r2=2.0, vdd=1.0):
    """Pad -- R1 -- middle -- R2 -- sink, load at sink."""
    network = PowerGridNetwork(name="divider", vdd=vdd)
    for name in ("pad", "middle", "sink"):
        network.add_node(GridNode(name=name, x=0.0, y=0.0))
    network.add_resistor(Resistor(name="R1", node_a="pad", node_b="middle", resistance=r1))
    network.add_resistor(Resistor(name="R2", node_a="middle", node_b="sink", resistance=r2))
    network.add_voltage_source(VoltageSource(name="V1", node="pad", voltage=vdd))
    network.add_current_source(CurrentSource(name="I1", node="sink", current=load_current))
    return network


class TestAnalyticSolutions:
    def test_voltage_divider_solution(self):
        """Series chain: middle = vdd - I*R1, sink = vdd - I*(R1+R2)."""
        network = voltage_divider(load_current=0.1, r1=1.0, r2=2.0, vdd=1.0)
        result = BatchedAnalysisEngine().analyze(network)
        assert result.node_voltages["pad"] == pytest.approx(1.0)
        assert result.node_voltages["middle"] == pytest.approx(1.0 - 0.1 * 1.0)
        assert result.node_voltages["sink"] == pytest.approx(1.0 - 0.1 * 3.0)

    def test_two_pads_share_load_symmetrically(self):
        """A load fed by two equal resistors from two pads sits at vdd - I*R/2."""
        network = PowerGridNetwork(name="two_pads", vdd=1.0)
        for name in ("p1", "p2", "mid"):
            network.add_node(GridNode(name=name, x=0.0, y=0.0))
        network.add_resistor(Resistor(name="R1", node_a="p1", node_b="mid", resistance=2.0))
        network.add_resistor(Resistor(name="R2", node_a="p2", node_b="mid", resistance=2.0))
        network.add_voltage_source(VoltageSource(name="V1", node="p1", voltage=1.0))
        network.add_voltage_source(VoltageSource(name="V2", node="p2", voltage=1.0))
        network.add_current_source(CurrentSource(name="I1", node="mid", current=0.2))
        result = BatchedAnalysisEngine().analyze(network)
        assert result.node_voltages["mid"] == pytest.approx(1.0 - 0.2 * 1.0)

    def test_superposition_of_loads(self):
        """Node voltages are linear in the load currents."""
        engine = BatchedAnalysisEngine()
        base = engine.analyze(voltage_divider(load_current=0.05))
        double = engine.analyze(voltage_divider(load_current=0.10))
        drop_base = 1.0 - base.node_voltages["sink"]
        drop_double = 1.0 - double.node_voltages["sink"]
        assert drop_double == pytest.approx(2.0 * drop_base)


# ----------------------------------------------------------------------
# One solve path: a single scenario is a one-column batch
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


def resized_clone(bench, base, lines):
    """A conductance clone of ``base`` with ``lines`` widened by 1.25."""
    widths = np.full(bench.topology.num_lines, 5.0)
    widths[list(lines)] *= 1.25
    return GridBuilder(bench.technology).resize_compiled(base, bench.topology, widths)


@pytest.fixture(scope="module")
def base_compiled(ibmpg1_bench):
    builder = GridBuilder(ibmpg1_bench.technology)
    return builder.build_compiled(ibmpg1_bench.floorplan, ibmpg1_bench.topology, 5.0)


ONE_LINE = (0,)
"""Changes 27 matrix branches of ibmpg1."""

FOUR_LINES = (3, 10, 20, 30)
"""Changes 108 matrix branches of ibmpg1."""


def assert_single_is_column_zero(engine, grid, loads):
    """``analyze`` / ``solve_voltages`` equal column 0 of a one-row batch, bit for bit."""
    row = (grid.base_loads if loads is None else loads)[None]
    single = engine.analyze(grid, loads)
    voltages = engine.solve_voltages(grid, loads)
    batch = engine.analyze_batch(grid, row)
    column = batch.voltages[:, 0]
    assert np.array_equal(voltages, column)
    assert np.array_equal(np.fromiter(single.node_voltages.values(), dtype=float), column)
    assert np.array_equal(
        np.fromiter(single.node_ir_drop.values(), dtype=float), batch.ir_drop[:, 0]
    )
    assert single.worst_ir_drop == batch.worst_ir_drop[0]
    assert single.average_ir_drop == batch.average_ir_drop[0]
    assert single.worst_node == batch.worst_node(0)


class TestOneSolvePath:
    """``analyze`` and ``solve_voltages`` solve through the batch path, so
    they equal column 0 of ``analyze_batch(loads[None])`` bit for bit on
    every route a solve can take."""

    @pytest.fixture(scope="class")
    def loads(self, base_compiled):
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=4)
        return perturbed_load_matrix(base_compiled, spec, 1)[0]

    @pytest.mark.parametrize("explicit_loads", [False, True], ids=["own-loads", "loads"])
    def test_fresh_superlu(self, base_compiled, loads, explicit_loads):
        engine = BatchedAnalysisEngine()
        assert_single_is_column_zero(engine, base_compiled, loads if explicit_loads else None)
        # One fresh factorization serves all three solves.
        info = engine.cache_info()
        assert (info.factorizations, info.hits, info.entries) == (1, 2, 1)

    @pytest.mark.parametrize("lines", [ONE_LINE, FOUR_LINES], ids=["one-line", "four-lines"])
    def test_resized_clones(self, ibmpg1_bench, base_compiled, loads, lines):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        clone = resized_clone(ibmpg1_bench, base_compiled, lines)
        assert_single_is_column_zero(engine, clone, None)
        assert_single_is_column_zero(engine, clone, loads)
        # The clone is factored once, fresh; every later solve hits it.
        info = engine.cache_info()
        assert (info.factorizations, info.hits, info.entries) == (2, 5, 2)

    @pytest.mark.parametrize("first", [1, 3], ids=["every-slice", "third-slice"])
    def test_non_finite_solution_names_the_solver(self, base_compiled, non_finite_solve, first):
        """A non-finite solve raises before any sink sees the batch, from
        the first slice on (single solves too) or only from the third
        slice of a 40-scenario unchunked batch (slices of 16, 16 and 8)."""
        engine = BatchedAnalysisEngine()
        widths = non_finite_solve(first)
        sink = TopKScenarioSink(2)
        loads = np.tile(base_compiled.base_loads, (40, 1))
        solves = [lambda: engine.analyze_batch(base_compiled, loads, sinks=(sink,))]
        if first == 1:
            solves += [
                lambda: engine.analyze(base_compiled),
                lambda: engine.solve_voltages(base_compiled),
            ]
        for solve in solves:
            with pytest.raises(
                LinearSolverError, match=r"^direct solve produced non-finite voltages$"
            ):
                solve()
        assert sink.num_consumed == 0
        assert widths[:first] == [16, 16, 8][:first]
