"""Conventional power-grid analysis engine (the paper's baseline).

Provides the one static IR-drop analysis path
(:class:`BatchedAnalysisEngine`: cached sparse factorizations, multi-RHS
and streamed sweeps), IR-drop map rasterisation, branch-current extraction,
electromigration checking against ``Jmax`` and an early vectorless bound
analysis — i.e. the time-consuming steps of the conventional power-planning
flow that PowerPlanningDL is designed to avoid.

The cross-host executor and its HTTP transport (``RemoteExecutor``,
``SweepQueue``, ``make_coordinator``, ``run_worker``, ``COORDINATOR_ENV``)
live in :mod:`repro.analysis.remote` and are imported from there, so a
process that never runs a remote sweep never loads the HTTP stack;
``make_executor("remote")`` imports it on demand.
"""

from .currents import (
    BranchCurrent,
    branch_current_array,
    branch_currents,
    current_conservation_error,
    line_currents_from_voltages,
    pad_currents,
    total_dissipated_power,
)
from .em import EMChecker, EMReport, EMViolation, em_lifetime_ratio, required_width_for_current
from .engine import (
    BatchAnalysisResult,
    BatchedAnalysisEngine,
    BatchReductions,
    CrossProductScenarioSource,
    EngineCacheInfo,
    MatrixScenarioSource,
    MegaSweepResult,
    ScenarioSource,
    StreamedSweepResult,
    resolve_chunk_size,
)
from .executors import (
    EXECUTOR_ENV,
    EXECUTOR_NAMES,
    ExecutorIncompatibility,
    HybridExecutor,
    SweepExecutor,
    SweepPlan,
    make_executor,
)
from .irdrop import IRDropResult, ir_drop_map
from .sinks import (
    ExceedanceCounts,
    ExceedanceCountSink,
    IRDropSink,
    JointExceedance,
    JointExceedanceSink,
    MergeableSink,
    NodeHistogram,
    NodeHistogramSink,
    P2QuantileSink,
    QuantileEstimate,
    QuantileSketchSink,
    ScenarioSink,
    SinkSnapshot,
    TopKScenarios,
    TopKScenarioSink,
)
from .solvers import (
    LinearSolverError,
    Factorization,
    SpluBackend,
)
from .vectorless import (
    StatisticalVectorlessResult,
    VectorlessAnalyzer,
    VectorlessBudget,
    VectorlessResult,
    uniform_budget,
)

__all__ = [
    "BatchAnalysisResult",
    "BatchReductions",
    "BatchedAnalysisEngine",
    "BranchCurrent",
    "CrossProductScenarioSource",
    "EMChecker",
    "EMReport",
    "EMViolation",
    "EXECUTOR_ENV",
    "EXECUTOR_NAMES",
    "EngineCacheInfo",
    "Factorization",
    "ExceedanceCounts",
    "ExceedanceCountSink",
    "ExecutorIncompatibility",
    "HybridExecutor",
    "IRDropResult",
    "IRDropSink",
    "JointExceedance",
    "JointExceedanceSink",
    "LinearSolverError",
    "MatrixScenarioSource",
    "MegaSweepResult",
    "MergeableSink",
    "NodeHistogram",
    "NodeHistogramSink",
    "P2QuantileSink",
    "QuantileEstimate",
    "QuantileSketchSink",
    "ScenarioSink",
    "ScenarioSource",
    "SinkSnapshot",
    "SpluBackend",
    "StatisticalVectorlessResult",
    "StreamedSweepResult",
    "SweepExecutor",
    "SweepPlan",
    "TopKScenarios",
    "TopKScenarioSink",
    "VectorlessAnalyzer",
    "VectorlessBudget",
    "VectorlessResult",
    "make_executor",
    "resolve_chunk_size",
    "branch_current_array",
    "branch_currents",
    "current_conservation_error",
    "em_lifetime_ratio",
    "ir_drop_map",
    "line_currents_from_voltages",
    "pad_currents",
    "required_width_for_current",
    "total_dissipated_power",
    "uniform_budget",
]
