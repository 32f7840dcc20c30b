"""Conventional power-planning flow: rules, sizing, constraints, planner.

This package implements the baseline the paper compares against — the
iterative analyse-and-resize loop of Fig. 1 — as well as the analytical
eq. (1) sizing and the reliability constraints (IR-drop margin, EM ``Jmax``,
core-width budget of eq. 3) shared with the PowerPlanningDL framework.
The planner's loop solves a batch of candidate moves per
iteration and commits the best: one-move planning is a one-candidate
batch (the heuristic resize), and the batched, model-guided candidate
search (`search`) fills the batch with width / pitch / decap moves ranked
by the repo's own NN regressor.
"""

from .constraints import ConstraintEvaluation, ReliabilityConstraints
from .decap import DecapPlacement, DecapPlan, DecapPlanner, DecapTechnology
from .planner import ConventionalPowerPlanner, PlanningIteration, PowerPlanResult
from .rules import DesignRules
from .search import (
    CandidateMove,
    CandidateRanker,
    CommittedMove,
    SearchConfig,
    SearchStats,
)
from .sizing import AnalyticalSizer, SizingParameters, estimate_line_currents, width_from_ir_budget

__all__ = [
    "AnalyticalSizer",
    "CandidateMove",
    "CandidateRanker",
    "CommittedMove",
    "ConstraintEvaluation",
    "ConventionalPowerPlanner",
    "DecapPlacement",
    "DecapPlan",
    "DecapPlanner",
    "DecapTechnology",
    "DesignRules",
    "PlanningIteration",
    "PowerPlanResult",
    "ReliabilityConstraints",
    "SearchConfig",
    "SearchStats",
    "SizingParameters",
    "estimate_line_currents",
    "width_from_ir_budget",
]
