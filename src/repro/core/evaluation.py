"""Experiment-level evaluation utilities shared by the benchmark harness.

The functions here compute the exact quantities the paper's tables and
figures report, from the objects the framework and the conventional planner
produce: feature r² studies (Table I / Fig. 4b), width-prediction
correlation and error histograms (Fig. 7), worst-case IR-drop comparisons
(Table III), convergence-time speedups (Table IV) and accuracy/memory rows
(Table V).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..analysis.engine import BatchedAnalysisEngine
from ..design.planner import PowerPlanResult
from ..grid.network import PowerGridNetwork
from ..grid.perturbation import NetworkPerturbator, PerturbationSpec, perturbed_load_matrix
from ..nn.metrics import (
    ErrorHistogram,
    error_histogram,
    mean_squared_error,
    pearson_correlation,
    r2_score,
)
from ..nn.regression import MultiTargetRegressor, RegressorConfig
from .dataset import RegressionDataset
from .features import FEATURE_NAMES
from .framework import PredictedDesign


# ----------------------------------------------------------------------
# Table I / Fig. 4(b): feature r2 study
# ----------------------------------------------------------------------
@dataclass
class FeatureScoreStudy:
    """r² of each individual feature and of the combined feature set.

    Attributes:
        scores: Mapping of feature name (plus ``"combined"``) to r² score.
        per_interconnect: Optional mapping of feature name to an array of
            per-interconnect r² scores (the Fig. 4b series).
    """

    scores: dict[str, float]
    per_interconnect: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def best_feature(self) -> str:
        """Name of the feature set with the highest r² score."""
        return max(self.scores, key=self.scores.get)


def feature_r2_study(
    dataset: RegressionDataset,
    config: RegressorConfig | None = None,
    test_fraction: float = 0.25,
    seed: int = 0,
) -> FeatureScoreStudy:
    """Reproduce the Table I study: r² of X, Y, Id and the combined features.

    A separate regressor is trained per feature subset on a train split and
    scored on the held-out split.
    """
    config = config or RegressorConfig.fast()
    train, test = dataset.split(test_fraction=test_fraction, seed=seed)
    scores: dict[str, float] = {}

    for name, column_getter in _feature_subsets().items():
        model = MultiTargetRegressor(config)
        model.fit(column_getter(train.features), train.widths)
        predictions = model.predict(column_getter(test.features))
        scores[name] = r2_score(test.widths, predictions)
    return FeatureScoreStudy(scores=scores)


def per_interconnect_r2_series(
    dataset: RegressionDataset,
    config: RegressorConfig | None = None,
    num_interconnects: int = 1000,
    window: int = 50,
    seed: int = 0,
) -> FeatureScoreStudy:
    """Reproduce Fig. 4(b): r² variation over a window sweep of interconnects.

    The paper plots, for 1000 interconnects of ibmpg1, how well each feature
    subset predicts the width.  We evaluate a model per feature subset once,
    then compute r² over a sliding window of ``window`` consecutive test
    interconnects to obtain a per-interconnect series of the same shape.
    """
    config = config or RegressorConfig.fast()
    train, test = dataset.split(test_fraction=0.5, seed=seed)
    limit = min(num_interconnects, test.num_samples)
    series: dict[str, np.ndarray] = {}
    scores: dict[str, float] = {}

    for name, column_getter in _feature_subsets().items():
        model = MultiTargetRegressor(config)
        model.fit(column_getter(train.features), train.widths)
        predictions = model.predict(column_getter(test.features))
        scores[name] = r2_score(test.widths, predictions)
        values = np.empty(limit)
        for index in range(limit):
            start = max(0, index - window // 2)
            stop = min(test.num_samples, start + window)
            values[index] = r2_score(test.widths[start:stop], predictions[start:stop])
        series[name] = values
    return FeatureScoreStudy(scores=scores, per_interconnect=series)


def _feature_subsets():
    subsets = {
        name: (lambda features, index=index: features[:, [index]])
        for index, name in enumerate(FEATURE_NAMES)
    }
    subsets["combined"] = lambda features: features
    return subsets


# ----------------------------------------------------------------------
# Fig. 7: width prediction correlation and error histogram
# ----------------------------------------------------------------------
@dataclass
class WidthPredictionStudy:
    """Correlation scatter and error histogram data for width prediction.

    Attributes:
        golden: Golden sample widths in um.
        predicted: Predicted sample widths in um.
        correlation: Pearson correlation (Fig. 7a).
        r2: r² score of the predictions.
        mse: MSE of the predictions in um².
        histogram: Error histogram of golden minus predicted (Fig. 7b).
    """

    golden: np.ndarray
    predicted: np.ndarray
    correlation: float
    r2: float
    mse: float
    histogram: ErrorHistogram


def width_prediction_study(
    golden: np.ndarray, predicted: np.ndarray, num_bins: int = 41
) -> WidthPredictionStudy:
    """Build the Fig. 7 artefacts from golden and predicted sample widths."""
    golden = np.asarray(golden, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    return WidthPredictionStudy(
        golden=golden,
        predicted=predicted,
        correlation=pearson_correlation(golden, predicted),
        r2=r2_score(golden, predicted),
        mse=mean_squared_error(golden, predicted),
        histogram=error_histogram(golden, predicted, num_bins=num_bins),
    )


# ----------------------------------------------------------------------
# Table III: worst-case IR drop comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IRDropComparison:
    """Worst-case IR-drop of the conventional vs. the DL flow (one benchmark).

    Attributes:
        benchmark: Benchmark name.
        conventional_mv: Conventional (full-analysis) worst-case drop in mV.
        predicted_mv: PowerPlanningDL predicted worst-case drop in mV.
    """

    benchmark: str
    conventional_mv: float
    predicted_mv: float

    @property
    def absolute_error_mv(self) -> float:
        """Absolute difference between the two worst-case drops in mV."""
        return abs(self.conventional_mv - self.predicted_mv)

    @property
    def relative_error(self) -> float:
        """Relative error of the prediction against the conventional value."""
        if self.conventional_mv == 0:
            return 0.0 if self.predicted_mv == 0 else float("inf")
        return self.absolute_error_mv / self.conventional_mv


def compare_worst_ir_drop(plan: PowerPlanResult, predicted: PredictedDesign) -> IRDropComparison:
    """Build one Table III row from a golden plan and a predicted design."""
    return IRDropComparison(
        benchmark=plan.benchmark,
        conventional_mv=plan.ir_result.worst_ir_drop_mv,
        predicted_mv=predicted.ir_drop.worst_ir_drop_mv,
    )


# ----------------------------------------------------------------------
# Table IV: convergence time and speedup
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvergenceComparison:
    """Convergence time of the conventional vs. the DL flow (one benchmark).

    Attributes:
        benchmark: Benchmark name.
        conventional_seconds: Conventional analysis time in seconds (the
            paper counts the IR-drop analysis as the dominant cost and the
            best case of a single design iteration).
        powerplanningdl_seconds: PowerPlanningDL prediction time in seconds
            (width prediction + IR-drop prediction).
    """

    benchmark: str
    conventional_seconds: float
    powerplanningdl_seconds: float

    @property
    def speedup(self) -> float:
        """``T_conventional / T_PowerPlanningDL`` (Table IV rightmost column)."""
        if self.powerplanningdl_seconds <= 0:
            return float("inf")
        return self.conventional_seconds / self.powerplanningdl_seconds


def compare_convergence(plan: PowerPlanResult, predicted: PredictedDesign) -> ConvergenceComparison:
    """Build one Table IV row.

    Following the paper, the conventional time is the convergence time of
    the iterative analyse-and-resize flow (dominated by the repeated
    power-grid analyses), measured here as the flow's wall-clock time.  The
    PowerPlanningDL time is the width + IR-drop prediction time, which
    needs neither a grid build nor an analysis.  (Earlier revisions used a
    single build+analyse step as the conventional reference; since the
    planner's rebuild-free compiled loop, one step of a small grid is a
    couple of milliseconds and no longer represents the conventional cost.)
    """
    conventional = plan.total_time if plan.total_time > 0 else plan.analysis_time
    return ConvergenceComparison(
        benchmark=plan.benchmark,
        conventional_seconds=conventional,
        powerplanningdl_seconds=predicted.convergence_time,
    )


# ----------------------------------------------------------------------
# Batched-engine throughput: naive re-solve vs cached-factorization multi-RHS
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchedSolveStudy:
    """Throughput comparison of the per-solve path vs the batched engine.

    Attributes:
        benchmark: Name of the analysed grid.
        num_scenarios: Number of load scenarios solved by both paths.
        naive_seconds: Wall-clock time of the per-solve baseline (one
            compile + factorize + solve per scenario).
        batched_seconds: Wall-clock time of the batched engine (one
            factorization, multi-RHS solve).
        batched_factorizations: Factorizations performed by the engine
            (1 for a current-only sweep).
        max_voltage_difference: Worst per-node voltage difference between
            the two paths over all scenarios, in volts.
    """

    benchmark: str
    num_scenarios: int
    naive_seconds: float
    batched_seconds: float
    batched_factorizations: int
    max_voltage_difference: float

    @property
    def speedup(self) -> float:
        """``T_naive / T_batched`` of the load-scenario sweep."""
        if self.batched_seconds <= 0:
            return float("inf")
        return self.naive_seconds / self.batched_seconds

    def as_record(self) -> dict:
        """JSON-serialisable record of the study."""
        return {
            "benchmark": self.benchmark,
            "num_scenarios": self.num_scenarios,
            "naive_seconds": self.naive_seconds,
            "batched_seconds": self.batched_seconds,
            "batched_factorizations": self.batched_factorizations,
            "max_voltage_difference": self.max_voltage_difference,
            "speedup": self.speedup,
        }


def batched_solve_study(
    network: PowerGridNetwork,
    spec: PerturbationSpec,
    num_scenarios: int,
) -> BatchedSolveStudy:
    """Compare naive per-scenario re-solving against the batched engine.

    Both paths solve the same ``num_scenarios`` current-only perturbations
    of ``network``.  The naive path rebuilds the perturbed network and
    analyses it with a fresh engine per scenario (compilation and
    factorization every time: a shared engine would hit its cache, since a
    current-only perturbation keeps the fingerprint); the batched path
    compiles once and solves every RHS against one cached factorization.
    The per-node voltages of the two paths are compared to guarantee the
    comparison is apples-to-apples.

    Args:
        network: The base grid (loads at nominal values).
        spec: Current-only perturbation specification; scenario ``i`` uses
            seed ``spec.seed + i``.
        num_scenarios: Number of load scenarios (the acceptance sweep uses
            at least 50).
    """
    load_matrix = perturbed_load_matrix(network, spec, num_scenarios)
    compiled = network.compile()

    engine = BatchedAnalysisEngine()
    batched_start = time.perf_counter()
    batch = engine.analyze_batch(compiled, load_matrix)
    batched_seconds = time.perf_counter() - batched_start

    max_difference = 0.0
    naive_seconds = 0.0
    for scenario in range(num_scenarios):
        perturbed = NetworkPerturbator(
            PerturbationSpec(gamma=spec.gamma, kind=spec.kind, seed=spec.seed + scenario)
        ).perturb(network)
        naive_start = time.perf_counter()
        result = BatchedAnalysisEngine().analyze(perturbed)
        naive_seconds += time.perf_counter() - naive_start
        naive_voltages = compiled.voltage_array(result.node_voltages)
        difference = np.abs(naive_voltages - batch.scenario_voltages(scenario)).max()
        max_difference = max(max_difference, float(difference))

    return BatchedSolveStudy(
        benchmark=network.name,
        num_scenarios=num_scenarios,
        naive_seconds=naive_seconds,
        batched_seconds=batched_seconds,
        batched_factorizations=engine.cache_info().factorizations,
        max_voltage_difference=max_difference,
    )


# ----------------------------------------------------------------------
# Table V: accuracy and memory rows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccuracyRow:
    """One Table V row: interconnect count, r², MSE and peak memory.

    Attributes:
        benchmark: Benchmark name.
        num_interconnects: Number of interconnect samples evaluated.
        r2: r² score on the test dataset.
        mse: MSE on the test dataset in um².
        peak_memory_mib: Peak memory of the DL flow in MiB.
    """

    benchmark: str
    num_interconnects: int
    r2: float
    mse: float
    peak_memory_mib: float
