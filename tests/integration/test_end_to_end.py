"""End-to-end integration tests: the full paper flow on a small benchmark.

These tests exercise the whole pipeline of Fig. 6: golden design via the
conventional planner, feature extraction, model training, width prediction,
Kirchhoff IR-drop prediction and the evaluation metrics — and check that the
qualitative claims of the paper hold on the synthetic benchmark.
"""

import numpy as np

from repro.analysis import BatchedAnalysisEngine, EMChecker
from repro.core import compare_convergence, compare_worst_ir_drop
from repro.design import DesignRules
from repro.grid import GridBuilder


TIMING_RUNS = 5
"""Runs per side of a wall-clock comparison; the fastest of each is compared."""


class TestPaperClaims:
    def test_dl_flow_is_faster_than_conventional_step(self, trained_framework, small_benchmark):
        """Table IV claim: PowerPlanningDL converges faster than the baseline.

        Both sides take a few milliseconds on this benchmark, so each is
        the fastest of several runs of the same design: one reading slowed
        by a busy host cannot decide the comparison.
        """
        floorplan, topology = small_benchmark.floorplan, small_benchmark.topology
        planner = trained_framework.dataset_builder.planner_for(small_benchmark)
        plans = []
        for _ in range(TIMING_RUNS):
            # Every conventional plan factors its grid, as the golden plan did.
            planner.analyzer.clear_cache()
            plans.append(planner.plan(floorplan, topology))
        predictions = [
            trained_framework.predict_design(floorplan, topology) for _ in range(TIMING_RUNS)
        ]
        comparison = compare_convergence(
            min(plans, key=lambda plan: plan.total_time),
            min(predictions, key=lambda predicted: predicted.convergence_time),
        )
        assert comparison.speedup > 1.0

    def test_predicted_and_conventional_worst_drop_comparable(
        self, trained_framework, small_benchmark
    ):
        """Table III claim: predicted worst-case IR drop tracks the conventional one."""
        golden = trained_framework.trained.benchmark_dataset.golden_plan
        predicted = trained_framework.predict_design(
            small_benchmark.floorplan, small_benchmark.topology
        )
        comparison = compare_worst_ir_drop(golden, predicted)
        assert comparison.predicted_mv > 0
        assert comparison.relative_error < 1.0  # same order of magnitude

    def test_test_set_accuracy_close_to_training(self, trained_framework, small_benchmark):
        """Section V-B claim: predictions on perturbed specs stay accurate."""
        spec = trained_framework.default_perturbation(gamma=0.10)
        _, test_dataset, _ = trained_framework.predict_for_perturbation(small_benchmark, spec)
        train_metrics = trained_framework.evaluate(
            trained_framework.trained.benchmark_dataset.training
        )
        test_metrics = trained_framework.evaluate(test_dataset)
        assert test_metrics.r2 > 0.5
        assert test_metrics.r2 <= train_metrics.r2 + 0.05

    def test_predicted_design_is_buildable_and_analysable(
        self, trained_framework, small_benchmark
    ):
        """The predicted widths must produce a legal, solvable power grid."""
        predicted = trained_framework.predict_design(
            small_benchmark.floorplan, small_benchmark.topology
        )
        technology = small_benchmark.technology
        rules = DesignRules.from_technology(technology)
        assert np.all(predicted.line_widths >= rules.min_width - 1e-9)
        network = GridBuilder(technology).build(
            small_benchmark.floorplan, small_benchmark.topology, predicted.line_widths
        )
        result = BatchedAnalysisEngine().analyze(network)
        assert result.worst_ir_drop < technology.vdd
        # The predicted design should be close to meeting the reliability
        # targets the golden design was built for (allow modest overshoot).
        assert result.worst_ir_drop < 2.0 * technology.ir_drop_limit
        em = EMChecker(technology).check(network, result)
        assert em.worst_density < 2.0 * technology.jmax

    def test_incremental_redesign_use_case(self, trained_framework, small_benchmark):
        """The paper recommends the DL flow for small incremental changes:
        a 10 % perturbation should need no retraining to stay accurate."""
        spec = trained_framework.default_perturbation(gamma=0.10)
        predicted, test_dataset, perturbed_plan = trained_framework.predict_for_perturbation(
            small_benchmark, spec
        )
        correlation = np.corrcoef(predicted.line_widths, perturbed_plan.widths)[0, 1]
        assert correlation > 0.7
