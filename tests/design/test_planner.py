"""Tests for the conventional iterative power planner (paper Fig. 1)."""

import inspect

import numpy as np
import pytest

from repro.analysis import BatchedAnalysisEngine
from repro.design import (
    ConventionalPowerPlanner,
    DesignRules,
    ReliabilityConstraints,
    SearchConfig,
)
from repro.grid import GridBuilder, SyntheticIBMSuite

from .reference_planner import reference_plan


class TestPlanning:
    def test_plan_converges_on_small_benchmark(self, golden_plan):
        assert golden_plan.converged
        assert golden_plan.evaluation.all_satisfied
        assert golden_plan.num_iterations >= 1

    def test_final_design_meets_ir_margin(self, golden_plan, small_benchmark):
        limit = small_benchmark.technology.ir_drop_limit
        assert golden_plan.ir_result.worst_ir_drop <= limit

    def test_final_design_meets_em(self, golden_plan):
        assert golden_plan.em_report.passed

    def test_widths_are_legal(self, golden_plan, small_benchmark):
        rules = DesignRules.from_technology(small_benchmark.technology)
        assert np.all(golden_plan.widths >= rules.min_width - 1e-9)
        assert np.all(golden_plan.widths <= rules.max_width + 1e-9)
        assert golden_plan.widths.shape == (small_benchmark.topology.num_lines,)

    def test_iteration_history_recorded(self, golden_plan):
        assert len(golden_plan.iterations) == golden_plan.num_iterations
        first = golden_plan.iterations[0]
        assert first.analysis_time > 0
        assert first.build_time > 0
        assert first.step_time == pytest.approx(first.analysis_time + first.build_time)

    def test_times_recorded(self, golden_plan):
        assert golden_plan.total_time > 0
        assert golden_plan.analysis_time > 0
        assert golden_plan.analysis_time <= golden_plan.total_time


class TestResizing:
    def test_undersized_start_triggers_resizing(self, small_benchmark):
        planner = ConventionalPowerPlanner(small_benchmark.technology, max_iterations=6)
        rules = DesignRules.from_technology(small_benchmark.technology)
        tiny_widths = np.full(small_benchmark.topology.num_lines, rules.min_width)
        plan = planner.plan(
            small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths
        )
        assert plan.num_iterations > 1
        assert np.any(plan.widths > rules.min_width)
        resized_total = sum(iteration.lines_resized for iteration in plan.iterations)
        assert resized_total > 0

    def test_initial_widths_wrong_length_rejected(self, small_benchmark):
        planner = ConventionalPowerPlanner(small_benchmark.technology)
        with pytest.raises(ValueError):
            planner.plan(
                small_benchmark.floorplan,
                small_benchmark.topology,
                initial_widths=np.asarray([1.0, 2.0]),
            )

    def test_relaxed_constraints_converge_immediately(self, small_benchmark):
        planner = ConventionalPowerPlanner(small_benchmark.technology)
        relaxed = ReliabilityConstraints(
            ir_drop_limit=small_benchmark.technology.vdd,
            jmax=1e3,
            core_width=small_benchmark.floorplan.core_width,
            core_height=small_benchmark.floorplan.core_height,
        )
        plan = planner.plan(
            small_benchmark.floorplan, small_benchmark.topology, constraints=relaxed
        )
        assert plan.converged
        assert plan.num_iterations == 1


PLAN_CASES = [
    (name, start) for name in ("ibmpg1", "ibmpg2") for start in ("analytic", "min-width")
]


def final_voltages(plan) -> np.ndarray:
    """The plan's final node voltages in compiled node order."""
    return plan.network.compile().voltage_array(plan.ir_result.node_voltages)


class TestReferencePlannerEquivalence:
    """The planner's loop equals the rebuild-per-iteration reference
    planner (``reference_planner.py``) bit for bit."""

    @pytest.fixture(
        scope="class", params=PLAN_CASES, ids=[f"{name}-{start}" for name, start in PLAN_CASES]
    )
    def plan_pair(self, request):
        """Reference and planner plans of one grid from one start."""
        name, start = request.param
        bench = SyntheticIBMSuite().load(name)
        technology, floorplan, topology = bench.technology, bench.floorplan, bench.topology
        initial = None
        if start == "min-width":
            rules = DesignRules.from_technology(technology)
            initial = np.full(topology.num_lines, rules.min_width)
        reference = reference_plan(
            ConventionalPowerPlanner(technology, max_iterations=6),
            floorplan,
            topology,
            initial_widths=initial,
        )
        planned = ConventionalPowerPlanner(technology, max_iterations=6).plan(
            floorplan, topology, initial_widths=initial
        )
        return start, reference, planned

    def test_identical_convergence_history(self, plan_pair):
        start, reference, planned = plan_pair
        assert planned.converged == reference.converged
        assert [
            (it.index, it.worst_ir_drop, it.em_violations, it.lines_resized)
            for it in planned.iterations
        ] == [
            (it.index, it.worst_ir_drop, it.em_violations, it.lines_resized)
            for it in reference.iterations
        ]
        if start == "min-width":
            assert planned.num_iterations > 1  # the undersized start forced resizes

    def test_identical_final_widths(self, plan_pair):
        _, reference, planned = plan_pair
        assert np.array_equal(planned.widths, reference.widths)

    def test_identical_final_analysis(self, plan_pair):
        _, reference, planned = plan_pair
        assert np.array_equal(final_voltages(planned), final_voltages(reference))
        assert planned.ir_result.worst_ir_drop == reference.ir_result.worst_ir_drop
        assert planned.ir_result.worst_node == reference.ir_result.worst_node
        assert planned.em_report.violations == reference.em_report.violations
        assert planned.em_report.worst_density == reference.em_report.worst_density
        assert planned.evaluation == reference.evaluation
        assert planned.network.statistics() == reference.network.statistics()

    def test_loop_records_times(self, plan_pair):
        _, _, planned = plan_pair
        assert planned.total_time > 0
        assert planned.analysis_time > 0
        for iteration in planned.iterations:
            assert iteration.analysis_time > 0
            assert iteration.build_time > 0


class TestPlannerEngine:
    """Each resize changes the conductances, so a factorization is never
    solved again after the next move: every engine the planner builds
    keeps one entry, in one-move and search mode alike."""

    @pytest.mark.parametrize(
        "search", [False, True, SearchConfig(batch_width=2)], ids=["one-move", "search", "config"]
    )
    def test_planner_built_engine_keeps_one_entry(self, technology, search):
        planner = ConventionalPowerPlanner(technology, search=search)
        assert planner.analyzer.cache_size == 1

    def test_given_engine_is_used_as_is(self, technology):
        engine = BatchedAnalysisEngine(cache_size=4)
        planner = ConventionalPowerPlanner(technology, analyzer=engine, search=True)
        assert planner.analyzer is engine
        assert engine.cache_size == 4


class TestParameters:
    def test_invalid_parameters_rejected(self, small_benchmark):
        with pytest.raises(ValueError):
            ConventionalPowerPlanner(small_benchmark.technology, max_iterations=0)
        with pytest.raises(ValueError):
            ConventionalPowerPlanner(small_benchmark.technology, upsize_factor=1.0)

    @pytest.mark.parametrize(
        "argument, value",
        [("solver", "splu"), ("incremental_updates", False), ("use_compiled_loop", False)],
    )
    def test_solver_argument_rejected(self, small_benchmark, argument, value):
        """The engine's one backend, its one kind of factorization and the
        planner's one loop are not selectable through the planner."""
        with pytest.raises(TypeError, match=argument):
            ConventionalPowerPlanner(small_benchmark.technology, **{argument: value})

    def test_planner_takes_seven_options(self):
        assert list(inspect.signature(ConventionalPowerPlanner).parameters) == [
            "technology",
            "rules",
            "sizing_parameters",
            "max_iterations",
            "upsize_factor",
            "analyzer",
            "search",
        ]


class TestFreshFactorLoop:
    """Every design the one-move loop analyses is factored fresh, once."""

    @pytest.fixture(scope="class")
    def min_width_plan(self, small_benchmark):
        rules = DesignRules.from_technology(small_benchmark.technology)
        tiny_widths = np.full(small_benchmark.topology.num_lines, rules.min_width)
        planner = ConventionalPowerPlanner(small_benchmark.technology, max_iterations=8)
        plan = planner.plan(
            small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths
        )
        return planner, plan, tiny_widths

    def test_one_factorization_per_analysed_design(self, min_width_plan):
        planner, plan, _ = min_width_plan
        moves = sum(1 for iteration in plan.iterations if iteration.lines_resized)
        assert moves > 1
        info = planner.analyzer.cache_info()
        # The initial design plus one resized design per committed move.
        assert (info.factorizations, info.hits, info.entries) == (1 + moves, 0, 1)

    def test_cache_size_does_not_change_the_plan(self, small_benchmark, min_width_plan):
        _, plan, tiny_widths = min_width_plan
        roomy = ConventionalPowerPlanner(
            small_benchmark.technology,
            max_iterations=8,
            analyzer=BatchedAnalysisEngine(cache_size=8),
        ).plan(small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths)
        assert np.array_equal(roomy.widths, plan.widths)
        assert [
            (it.worst_ir_drop, it.em_violations, it.lines_resized) for it in roomy.iterations
        ] == [(it.worst_ir_drop, it.em_violations, it.lines_resized) for it in plan.iterations]
        assert roomy.ir_result.node_voltages == plan.ir_result.node_voltages

    def test_final_voltages_equal_a_fresh_rebuild(self, small_benchmark, min_width_plan):
        _, plan, _ = min_width_plan
        rebuilt = GridBuilder(small_benchmark.technology).build_compiled(
            small_benchmark.floorplan, small_benchmark.topology, plan.widths
        )
        fresh = BatchedAnalysisEngine().analyze(rebuilt)
        assert fresh.node_voltages == plan.ir_result.node_voltages
        assert fresh.worst_node == plan.ir_result.worst_node
