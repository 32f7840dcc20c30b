"""Early vectorless power-grid analysis.

The conventional power-planning flow (paper Fig. 1) runs an *early vectorless*
analysis before placement and routing: the exact current traces of the blocks
are not yet known, so the grid is checked against conservative current
budgets instead.  This module implements the standard budget-based
over-approximation: every block draws its maximum budgeted current
simultaneously, optionally with a global utilisation bound that caps the
total drawn current (a simplified form of the linear-programming-based
vectorless formulations in the literature).

Beyond the single worst-case bound, :meth:`VectorlessAnalyzer.analyze_statistical`
samples the budget polytope: every load draws a uniformly random fraction of
its budget per scenario (capped by the global utilisation), and the sampled
scenarios are streamed through the batched engine with scenario sinks — so
quantiles, per-node exceedance probabilities and worst-offender shortlists
of the budget-feasible operating space come out of one chunk-bounded sweep
instead of a single pessimistic corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..grid.compiled import CompiledGrid
from ..grid.network import PowerGridNetwork
from .engine import BatchedAnalysisEngine, StreamedSweepResult, scenario_count
from .executors import SweepExecutor
from .irdrop import IRDropResult
from .sinks import ScenarioSink


@dataclass(frozen=True)
class _BudgetPolytopeSource:
    """Picklable scenario source sampling the vectorless budget polytope.

    Scenario ``i`` draws every load at an independent uniform fraction of
    its budgeted maximum (RNG seeded ``seed + i``), scaled back onto the
    global utilisation cap when exceeded.  A pure function of the scenario
    range, so re-chunking — or process-sharding, which pickles this source
    into worker processes — reproduces the sweep exactly.
    """

    load_incidence: sp.csr_matrix
    maxima: np.ndarray
    allowed_total: float
    global_utilisation: float
    seed: int

    def __call__(self, begin: int, end: int) -> tuple[np.ndarray, None]:
        maxima = self.maxima
        factors = np.empty((end - begin, maxima.size), dtype=float)
        for row, scenario in enumerate(range(begin, end)):
            rng = np.random.default_rng(self.seed + scenario)
            factors[row] = rng.random(maxima.size)
        per_source = factors * maxima
        if maxima.size and self.global_utilisation < 1.0:
            totals = per_source.sum(axis=1)
            over = totals > self.allowed_total
            if np.any(over):
                per_source[over] *= (self.allowed_total / totals[over])[:, None]
        loads = np.asarray(self.load_incidence.T.dot(per_source.T)).T
        return loads, None


@dataclass(frozen=True)
class VectorlessBudget:
    """Current budgets for the vectorless analysis.

    Attributes:
        per_load_max: Mapping of load (current-source) name to its maximum
            budgeted current in amperes.  Loads not listed keep their nominal
            current; a name that matches no load of the analysed grid is
            rejected at analysis time.
        global_utilisation: Upper bound on the sum of all load currents as a
            fraction of the sum of per-load maxima (1.0 disables the global
            constraint).
    """

    per_load_max: dict[str, float]
    global_utilisation: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.global_utilisation <= 1.0:
            raise ValueError("global_utilisation must be in (0, 1]")
        for name, value in self.per_load_max.items():
            if not math.isfinite(value):
                raise ValueError(f"budget for {name!r} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"budget for {name!r} must be non-negative")


@dataclass
class VectorlessResult:
    """Outcome of the vectorless (worst-case bound) analysis.

    Attributes:
        bound_result: IR-drop analysis at the budgeted worst-case currents.
        nominal_result: IR-drop analysis at the nominal currents.
        pessimism: Ratio of the bounded worst-case IR drop to the nominal
            worst-case IR drop (>= 1 by construction when budgets dominate).
    """

    bound_result: IRDropResult
    nominal_result: IRDropResult
    pessimism: float

    @property
    def worst_case_bound(self) -> float:
        """Upper bound on the worst-case IR drop, in volts."""
        return self.bound_result.worst_ir_drop


@dataclass
class StatisticalVectorlessResult:
    """Outcome of the sampled (statistical) vectorless analysis.

    Attributes:
        vectorless: The deterministic nominal / worst-case-bound analysis.
        sweep: The streamed sweep over budget-feasible random scenarios
            (per-scenario reductions plus any attached sinks).
    """

    vectorless: VectorlessResult
    sweep: StreamedSweepResult

    @property
    def num_scenarios(self) -> int:
        """Number of sampled budget-feasible scenarios."""
        return self.sweep.num_scenarios

    @property
    def worst_case_bound(self) -> float:
        """Deterministic upper bound on the worst-case IR drop, in volts."""
        return self.vectorless.worst_case_bound

    @property
    def worst_observed(self) -> float:
        """Largest worst-case IR drop among the sampled scenarios."""
        return float(self.sweep.worst_ir_drop.max())

    @property
    def bound_tightness(self) -> float:
        """Observed worst / deterministic bound — how pessimistic the
        single-corner bound is for this grid (1.0 = bound achieved)."""
        bound = self.worst_case_bound
        return self.worst_observed / bound if bound > 0 else float("inf")


class VectorlessAnalyzer:
    """Budget-based vectorless IR-drop bound analysis.

    The nominal and budgeted solves share one compiled grid and one sparse
    factorization of the engine (the two scenarios only differ in their
    load vectors).

    Args:
        analyzer: The engine to use for both the nominal and the bounded
            solve; a default :class:`BatchedAnalysisEngine` when omitted.
    """

    def __init__(self, analyzer: BatchedAnalysisEngine | None = None) -> None:
        self.analyzer = analyzer or BatchedAnalysisEngine()

    def analyze(self, network: PowerGridNetwork, budget: VectorlessBudget) -> VectorlessResult:
        """Run nominal and worst-case-budget analyses and compare them.

        The worst-case scenario replaces each budgeted load by its maximum
        value, then scales all loads uniformly so that the total respects the
        global utilisation bound.  Both scenarios are solved in one
        multi-RHS batch.

        Raises:
            ValueError: If the budget names a load the grid does not have.
        """
        compiled = network.compile()
        budgeted = self._budgeted_maxima(compiled, budget)
        total_maximum = float(budgeted.sum())
        if total_maximum > 0 and budget.global_utilisation < 1.0:
            budgeted = budgeted * budget.global_utilisation
        bounded_loads = (
            np.bincount(compiled.load_node, weights=budgeted, minlength=compiled.num_nodes)
            if budgeted.size
            else np.zeros(compiled.num_nodes)
        )
        batch = self.analyzer.analyze_batch(
            compiled,
            np.vstack((compiled.base_loads, bounded_loads)),
            names=(network.name, f"{network.name}_vectorless"),
        )
        nominal, bound = batch.result(0), batch.result(1)
        pessimism = (
            bound.worst_ir_drop / nominal.worst_ir_drop
            if nominal.worst_ir_drop > 0
            else float("inf")
        )
        return VectorlessResult(bound_result=bound, nominal_result=nominal, pessimism=pessimism)

    @staticmethod
    def _budgeted_maxima(compiled: CompiledGrid, budget: VectorlessBudget) -> np.ndarray:
        """Per-source maximum currents (before the global utilisation cap).

        Raises:
            ValueError: If the budget names loads that ``compiled`` does not
                have, naming the grid, their count and up to three of them.
        """
        known = set(compiled.load_names)
        unknown = [name for name in budget.per_load_max if name not in known]
        if unknown:
            shown = ", ".join(repr(name) for name in unknown[:3])
            raise ValueError(
                f"budget names {len(unknown)} load(s) that grid {compiled.name!r} "
                f"does not have, e.g. {shown}"
            )
        return np.fromiter(
            (
                budget.per_load_max.get(name, float(current))
                for name, current in zip(compiled.load_names, compiled.load_current)
            ),
            dtype=float,
            count=len(compiled.load_names),
        )

    def analyze_statistical(
        self,
        network: PowerGridNetwork,
        budget: VectorlessBudget,
        num_scenarios: int,
        *,
        chunk_size: int | None = 1024,
        sinks: Sequence[ScenarioSink] = (),
        seed: int = 0,
        executor: SweepExecutor | str | None = None,
    ) -> StatisticalVectorlessResult:
        """Sample the budget polytope and stream the scenarios into sinks.

        Scenario ``i`` draws every load at an independent uniform fraction
        of its budgeted maximum (RNG seeded ``seed + i``, so the sweep is
        reproducible and independent of the chunking); scenarios whose
        total current exceeds the global utilisation cap are scaled back
        onto it.  All scenarios share one cached factorization and are
        generated, solved and reduced chunk by chunk — the full
        ``(num_scenarios, num_nodes)`` load matrix never exists.

        Args:
            network: The grid to analyse.
            budget: Current budgets defining the sampled polytope.
            num_scenarios: Number of random budget-feasible scenarios.
            chunk_size: RHS chunk width bounding the working memory.
            sinks: Scenario sinks observing the sweep (quantiles,
                histograms, exceedance counts, top-k, ...).
            seed: Base seed of the per-scenario load sampling.
            executor: Sweep-execution strategy (see
                :meth:`BatchedAnalysisEngine.analyze_batch`); the sampled
                scenarios are still generated and folded in ascending
                order, so the sweep stays bitwise-reproducible on every
                executor.  The budget sampler is picklable, so
                ``"processes"`` shards the sweep across worker processes
                with mergeable sinks.

        Returns:
            A :class:`StatisticalVectorlessResult` combining the
            deterministic nominal / bound analysis with the streamed sweep.

        Raises:
            ValueError: If the budget names a load the grid does not have,
                or ``num_scenarios`` is below 1.
            TypeError: If ``num_scenarios`` is not an integer.
        """
        num_scenarios = scenario_count(num_scenarios)
        vectorless = self.analyze(network, budget)
        compiled = network.compile()
        maxima = self._budgeted_maxima(compiled, budget)
        budget_source = _BudgetPolytopeSource(
            load_incidence=compiled.load_incidence,
            maxima=maxima,
            allowed_total=float(maxima.sum()) * budget.global_utilisation,
            global_utilisation=budget.global_utilisation,
            seed=seed,
        )
        sweep = self.analyzer.analyze_scenario_stream(
            compiled,
            budget_source,
            num_scenarios,
            chunk_size=chunk_size,
            sinks=sinks,
            executor=executor,
        )
        return StatisticalVectorlessResult(vectorless=vectorless, sweep=sweep)


def uniform_budget(
    network: PowerGridNetwork, headroom: float = 1.5, utilisation: float = 1.0
) -> VectorlessBudget:
    """Build a budget where every load may exceed its nominal value by ``headroom``.

    Args:
        network: The grid whose loads are budgeted.
        headroom: Multiplicative headroom on each nominal load (>= 1).
        utilisation: Global utilisation bound passed through to the budget.
    """
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1")
    per_load = {load.name: load.current * headroom for load in network.iter_loads()}
    return VectorlessBudget(per_load_max=per_load, global_utilisation=utilisation)
