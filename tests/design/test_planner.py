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
from repro.grid import GridBuilder

from ..grid.test_builder import coincident_lines


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


@pytest.mark.parametrize("compiled_loop", [True, False])
@pytest.mark.parametrize("direction", ["vertical", "horizontal"])
def test_coincident_lines_rejected(small_benchmark, direction, compiled_loop):
    """Both loops reject a zero stripe pitch before the first solve."""
    planner = ConventionalPowerPlanner(
        small_benchmark.technology, use_compiled_loop=compiled_loop
    )
    topology = coincident_lines(small_benchmark.topology, direction)
    with pytest.raises(ValueError, match=f"{direction} lines 2 and 3 are at"):
        planner.plan(small_benchmark.floorplan, topology)


class TestCompiledLoopEquivalence:
    """The rebuild-free compiled loop must reproduce the legacy loop exactly."""

    @pytest.fixture(scope="class")
    def plan_pair(self, small_benchmark):
        """Legacy and compiled plans from an undersized start (forces resizes)."""
        rules = DesignRules.from_technology(small_benchmark.technology)
        tiny_widths = np.full(small_benchmark.topology.num_lines, rules.min_width)
        legacy = ConventionalPowerPlanner(
            small_benchmark.technology, max_iterations=6, use_compiled_loop=False
        ).plan(small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths)
        compiled = ConventionalPowerPlanner(
            small_benchmark.technology, max_iterations=6, use_compiled_loop=True
        ).plan(small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths)
        return legacy, compiled

    def test_identical_convergence_history(self, plan_pair):
        legacy, compiled = plan_pair
        assert compiled.num_iterations == legacy.num_iterations
        assert compiled.converged == legacy.converged
        assert compiled.num_iterations > 1  # the undersized start forced resizes
        for legacy_it, compiled_it in zip(legacy.iterations, compiled.iterations):
            assert compiled_it.index == legacy_it.index
            assert compiled_it.lines_resized == legacy_it.lines_resized
            assert compiled_it.em_violations == legacy_it.em_violations
            assert compiled_it.worst_ir_drop == pytest.approx(
                legacy_it.worst_ir_drop, abs=1e-9
            )

    def test_identical_final_widths(self, plan_pair):
        legacy, compiled = plan_pair
        assert np.array_equal(compiled.widths, legacy.widths)

    def test_identical_final_analysis(self, plan_pair):
        legacy, compiled = plan_pair
        assert compiled.ir_result.worst_ir_drop == pytest.approx(
            legacy.ir_result.worst_ir_drop, abs=1e-9
        )
        assert compiled.ir_result.worst_node == legacy.ir_result.worst_node
        assert compiled.em_report.passed == legacy.em_report.passed
        assert compiled.network.statistics() == legacy.network.statistics()

    def test_compiled_loop_records_times(self, plan_pair):
        _, compiled = plan_pair
        assert compiled.total_time > 0
        assert compiled.analysis_time > 0
        for iteration in compiled.iterations:
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
        "argument, value", [("solver", "splu"), ("incremental_updates", False)]
    )
    def test_solver_argument_rejected(self, small_benchmark, argument, value):
        """The engine's one backend and its one kind of factorization are
        not selectable through the planner."""
        with pytest.raises(TypeError, match=argument):
            ConventionalPowerPlanner(small_benchmark.technology, **{argument: value})

    def test_planner_takes_eight_options(self):
        assert list(inspect.signature(ConventionalPowerPlanner).parameters) == [
            "technology",
            "rules",
            "sizing_parameters",
            "max_iterations",
            "upsize_factor",
            "analyzer",
            "use_compiled_loop",
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
