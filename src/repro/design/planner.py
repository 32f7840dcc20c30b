"""Conventional iterative power planner (the paper's baseline flow, Fig. 1).

The conventional flow sizes the grid analytically, builds the network, runs
the full IR-drop analysis and the EM check, and — whenever a margin is
violated — upsizes the offending lines and repeats.  The loop is exactly the
"Change Design in Power Grid" iteration of the paper's Fig. 1, and its
convergence time (dominated by the repeated sparse solves) is what Table IV
compares PowerPlanningDL against.

The planner's converged per-line widths are also the *golden* labels used to
train the PowerPlanningDL width predictor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..analysis.currents import line_currents_from_voltages
from ..analysis.em import EMChecker, EMReport
from ..analysis.engine import BatchedAnalysisEngine
from ..analysis.irdrop import IRDropResult, result_from_voltages
from ..grid.builder import GridBuilder, GridTopology
from ..grid.compiled import CompiledGrid
from ..grid.floorplan import Floorplan
from ..grid.network import PowerGridNetwork
from ..grid.technology import Technology
from .constraints import ConstraintEvaluation, ReliabilityConstraints
from .rules import DesignRules
from .search import (
    CandidateMove,
    CommittedMove,
    SearchConfig,
    SearchStats,
    candidate_features,
    decap_load_scale,
    generate_candidates,
)
from .sizing import AnalyticalSizer, SizingParameters


@dataclass(frozen=True)
class _LoopAnalysis:
    """Array-level analysis state of one design-loop solve.

    Carries exactly what the resize decision, the constraint evaluation
    and the final result consume — no name-keyed dictionaries are
    materialised inside the loop.
    """

    voltages: np.ndarray
    worst_index: int
    worst_ir_drop: float
    analysis_time: float


@dataclass
class PlanningIteration:
    """Record of one iteration of the conventional design loop.

    Attributes:
        index: Iteration number, starting at 0 for the initial sizing.
        worst_ir_drop: Worst-case IR drop of this iteration's design, volts.
        em_violations: Number of EM-violating segments.
        lines_resized: Number of lines whose width was increased afterwards.
        analysis_time: Wall-clock time of the IR-drop analysis (matrix
            assembly + solve) of this iteration's design: the initial
            solve at index 0, then the summed solve time of the candidate
            batch the design won.
        build_time: Wall-clock time spent building this iteration's
            design: the initial compiled build at index 0, then the
            winning candidate's conductance rewrite.
    """

    index: int
    worst_ir_drop: float
    em_violations: int
    lines_resized: int
    analysis_time: float
    build_time: float = 0.0

    @property
    def step_time(self) -> float:
        """Total time of one analyse step: network build plus analysis."""
        return self.analysis_time + self.build_time


@dataclass
class PowerPlanResult:
    """Outcome of the conventional iterative power-planning flow.

    Attributes:
        benchmark: Name of the planned design.
        widths: Final per-line widths (vertical lines first), um.
        network: The final built power-grid network.
        ir_result: IR-drop analysis of the final design.
        em_report: EM report of the final design.
        evaluation: Constraint evaluation of the final design.
        iterations: Per-iteration history of the loop.
        converged: True if all constraints were met within the iteration cap.
        total_time: Total wall-clock time of the flow in seconds.
        analysis_time: Time spent in power-grid analysis only, in seconds —
            the quantity Table IV reports for the conventional approach.
        search: Candidate-search statistics (counters, committed moves,
            ranker training data) when the planner ran in batched-search
            mode; ``None`` in one-move mode.
    """

    benchmark: str
    widths: np.ndarray
    network: PowerGridNetwork
    ir_result: IRDropResult
    em_report: EMReport
    evaluation: ConstraintEvaluation
    iterations: list[PlanningIteration]
    converged: bool
    total_time: float
    analysis_time: float
    search: SearchStats | None = None

    @property
    def num_iterations(self) -> int:
        """Number of design-loop iterations that were executed."""
        return len(self.iterations)


class ConventionalPowerPlanner:
    """Iterative analyse-and-resize power planner (baseline).

    Args:
        technology: Technology parameters.
        rules: Design rules; derived from the technology when omitted.
        constraints: Reliability targets; derived from the technology and the
            floorplan when omitted at :meth:`plan` time.
        sizing_parameters: Knobs of the analytical initial sizing.
        max_iterations: Cap on the number of resize iterations.
        upsize_factor: Multiplicative width increase applied to violating
            lines in each iteration.
        analyzer: The analysis engine; defaults to a
            :class:`~repro.analysis.engine.BatchedAnalysisEngine` sized
            for the design loop, whose vectorised assembly and
            factorization cache speed up its repeated analyses.
        search: Enable the batched candidate search: each iteration
            generates a batch of alternative moves, solves each one on
            its own freshly factored grid, and commits the best.  Pass True
            for the defaults or a :class:`~repro.design.search.SearchConfig`
            (e.g. with a fitted
            :class:`~repro.design.search.CandidateRanker` for
            model-guided pruning).
    """

    def __init__(
        self,
        technology: Technology,
        rules: DesignRules | None = None,
        sizing_parameters: SizingParameters | None = None,
        max_iterations: int = 10,
        upsize_factor: float = 1.25,
        analyzer: BatchedAnalysisEngine | None = None,
        search: bool | SearchConfig = False,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if upsize_factor <= 1.0:
            raise ValueError("upsize_factor must be greater than 1")
        self.technology = technology
        self.rules = rules or DesignRules.from_technology(technology)
        self.sizer = AnalyticalSizer(technology, self.rules, sizing_parameters)
        self.max_iterations = max_iterations
        self.upsize_factor = upsize_factor
        if isinstance(search, SearchConfig):
            self.search_config: SearchConfig | None = search
        else:
            self.search_config = SearchConfig() if search else None
        # Each resize iteration changes conductances (a new fingerprint), so
        # a deep factorization cache would only pin dead memory: keep one.
        self.analyzer = analyzer or BatchedAnalysisEngine(cache_size=1)
        self.em_checker = EMChecker(technology)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        constraints: ReliabilityConstraints | None = None,
        initial_widths: np.ndarray | None = None,
    ) -> PowerPlanResult:
        """Run the full conventional flow on one floorplan.

        The grid is built once as arrays
        (:meth:`~repro.grid.builder.GridBuilder.build_compiled`); each
        iteration then solves a batch of candidate moves and commits the
        one with the lowest worst drop.  A candidate only rewrites the
        stripe conductances
        (:meth:`~repro.grid.builder.GridBuilder.resize_compiled`: shared
        topology, index maps and sparsity pattern), so it skips the
        rebuild; the engine then factors each candidate grid fresh unless
        its fingerprint is still cached (a decap candidate changes the
        loads alone, so it shares the factors of the grid its widths
        give).

        Without a search config the batch is the one-move heuristic
        resize alone, and it is empty — ending the loop — once that move
        changes no line.  With one, the batch comes from
        :func:`~repro.design.search.generate_candidates`, pruned before
        any solve by the config's ranker when it has one (exact mode, the
        ranker's oracle, solves it all).  The converged design is
        materialised as an object-level network and a full
        :class:`IRDropResult` only once, at the end.

        Args:
            floorplan: The design's floorplan (blocks, pads, core size).
            topology: Power-grid stripe topology.
            constraints: Reliability targets; derived from the technology if
                omitted.
            initial_widths: Optional starting widths (e.g. a DL prediction to
                be refined); the analytical sizer is used when omitted.

        Returns:
            The converged (or iteration-capped) :class:`PowerPlanResult`.
        """
        constraints = constraints or ReliabilityConstraints.from_technology(
            self.technology, floorplan.core_width, floorplan.core_height
        )
        start = time.perf_counter()

        if initial_widths is None:
            widths = self.sizer.size(floorplan, topology)
        else:
            widths = self.rules.legalize_widths(initial_widths)
            if widths.shape != (topology.num_lines,):
                raise ValueError(
                    f"initial_widths must have length {topology.num_lines}"
                )

        builder = GridBuilder(self.technology)
        config = self.search_config
        stats = None if config is None else SearchStats(ranker_used=config.ranker is not None)
        iterations: list[PlanningIteration] = []

        build_start = time.perf_counter()
        compiled = builder.build_compiled(floorplan, topology, widths)
        build_time = time.perf_counter() - build_start
        loads = compiled.base_loads.copy()

        decap_scale = None
        if config is not None and config.use_decap:
            relief = decap_load_scale(floorplan, self.technology, compiled)
            if relief is not None:
                decap_scale, stats.decap_plan = relief

        analysis = self._analyze(compiled, loads)
        em_report = self.em_checker.check_voltages(compiled, analysis.voltages)
        analysis_time = analysis.analysis_time
        evaluation = self._evaluate(constraints, analysis, em_report, widths, topology)

        for iteration in range(self.max_iterations):
            best = None
            if not evaluation.all_satisfied:
                violating = em_report.violating_lines
                per_line = (
                    line_currents_from_voltages(compiled, analysis.voltages)
                    if violating
                    else {}
                )
                worst_x = float(compiled.node_x[analysis.worst_index])
                worst_y = float(compiled.node_y[analysis.worst_index])
                baseline_widths, resized = self._resize_core(
                    widths,
                    topology,
                    constraints,
                    violating_lines=violating,
                    per_line_current=per_line,
                    worst_ir_drop=analysis.worst_ir_drop,
                    worst_x=worst_x,
                    worst_y=worst_y,
                )
                if config is None:
                    candidates = [
                        CandidateMove(
                            kind="heuristic",
                            label="one-move baseline resize",
                            widths=baseline_widths,
                            lines_changed=resized,
                            protected=True,
                        )
                    ] if resized else []
                    kept = range(len(candidates))
                else:
                    candidates = generate_candidates(
                        widths=widths,
                        baseline_widths=baseline_widths,
                        topology=topology,
                        compiled=compiled,
                        drops=compiled.vdd - analysis.voltages,
                        rules=self.rules,
                        upsize_factor=self.upsize_factor,
                        config=config,
                        load_scale=decap_scale,
                    )
                    features = candidate_features(
                        candidates,
                        widths=widths,
                        topology=topology,
                        compiled=compiled,
                        worst_x=worst_x,
                        worst_y=worst_y,
                        worst_ir_drop=analysis.worst_ir_drop,
                        loads=loads,
                    )
                    if config.ranker is not None:
                        kept = config.ranker.select(
                            candidates, features, config.resolved_prune_to
                        )
                    else:
                        kept = range(len(candidates))
                    stats.candidates_generated += len(candidates)
                    stats.candidates_pruned += len(candidates) - len(kept)

                batch_time = 0.0
                for index in kept:
                    move = candidates[index]
                    clone_start = time.perf_counter()
                    if np.array_equal(move.widths, widths):
                        clone = compiled
                    else:
                        clone = builder.resize_compiled(compiled, topology, move.widths)
                    clone_time = time.perf_counter() - clone_start
                    move_loads = loads if move.load_scale is None else loads * move.load_scale
                    solved = self._analyze(clone, move_loads)
                    batch_time += solved.analysis_time
                    if stats is not None:
                        stats.candidates_solved += 1
                        stats.training_features.append(features[index])
                        stats.training_improvements.append(
                            analysis.worst_ir_drop - solved.worst_ir_drop
                        )
                    if best is None or solved.worst_ir_drop < best[0].worst_ir_drop:
                        best = (solved, move, clone, move_loads, clone_time)

            iterations.append(
                PlanningIteration(
                    index=iteration,
                    worst_ir_drop=analysis.worst_ir_drop,
                    em_violations=len(em_report.violations),
                    lines_resized=best[1].lines_changed if best else 0,
                    analysis_time=analysis.analysis_time,
                    build_time=build_time,
                )
            )
            if evaluation.all_satisfied or best is None:
                break

            solved, move, clone, loads, build_time = best
            if stats is not None:
                stats.committed.append(
                    CommittedMove(
                        iteration=iteration,
                        kind=move.kind,
                        label=move.label,
                        widths=move.widths.copy(),
                        loads=loads.copy(),
                        voltages=solved.voltages,
                        worst_ir_drop=solved.worst_ir_drop,
                        lines_changed=move.lines_changed,
                    )
                )
                stats.moves_committed += 1
            if move.kind == "decap":
                decap_scale = None
            widths = move.widths
            compiled = clone
            analysis = replace(solved, analysis_time=batch_time)
            analysis_time += batch_time
            em_report = self.em_checker.check_voltages(compiled, analysis.voltages)
            evaluation = self._evaluate(constraints, analysis, em_report, widths, topology)

        # Materialise the object-level deliverables once, outside the loop:
        # the final network for downstream consumers and the full IR-drop
        # result, built straight from the already-solved voltages.
        network = builder.build(floorplan, topology, widths, name=floorplan.name)
        ir_result = result_from_voltages(
            compiled, analysis.voltages, name=compiled.name,
            analysis_time=analysis.analysis_time,
        )
        total_time = time.perf_counter() - start
        return PowerPlanResult(
            benchmark=floorplan.name,
            widths=widths,
            network=network,
            ir_result=ir_result,
            em_report=em_report,
            evaluation=evaluation,
            iterations=iterations,
            converged=evaluation.all_satisfied,
            total_time=total_time,
            analysis_time=analysis_time,
            search=stats,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _analyze(self, compiled: CompiledGrid, loads: np.ndarray) -> _LoopAnalysis:
        """One one-column engine batch plus the array-level reductions the loop needs."""
        batch = self.analyzer.analyze_batch(compiled, loads[None])
        voltages = batch.voltages[:, 0]
        drops = compiled.vdd - voltages
        worst_index = int(drops.argmax()) if drops.size else 0
        return _LoopAnalysis(
            voltages=voltages,
            worst_index=worst_index,
            worst_ir_drop=float(drops[worst_index]) if drops.size else 0.0,
            analysis_time=batch.analysis_time,
        )

    def _evaluate(
        self,
        constraints: ReliabilityConstraints,
        analysis: _LoopAnalysis,
        em_report: EMReport,
        widths: np.ndarray,
        topology: GridTopology,
    ) -> ConstraintEvaluation:
        vertical = widths[: topology.num_vertical]
        horizontal = widths[topology.num_vertical :]
        return constraints.evaluate(analysis, em_report, vertical, horizontal, self.rules)

    def _resize_core(
        self,
        widths: np.ndarray,
        topology: GridTopology,
        constraints: ReliabilityConstraints,
        *,
        violating_lines: set[int],
        per_line_current: dict[int, float],
        worst_ir_drop: float,
        worst_x: float,
        worst_y: float,
    ) -> tuple[np.ndarray, int]:
        """Upsize lines that violate the IR-drop or EM constraints.

        EM-violating lines are resized to at least the width the EM limit
        requires; when the worst-case IR drop exceeds the margin, the lines
        nearest the worst node (and their neighbours) are upsized by the
        planner's upsize factor.
        """
        new_widths, resized = self._em_fix_widths(
            widths, constraints, violating_lines, per_line_current
        )

        if worst_ir_drop > constraints.ir_drop_limit:
            v_positions = np.asarray(topology.vertical_positions)
            h_positions = np.asarray(topology.horizontal_positions)
            # Upsize the few lines closest to the worst-drop location in both
            # directions; this is the local fix a designer would apply.
            num_local = max(1, topology.num_vertical // 8)
            v_order = np.argsort(np.abs(v_positions - worst_x))[:num_local]
            h_order = np.argsort(np.abs(h_positions - worst_y))[:num_local]
            for index in v_order:
                line_id = int(index)
                legal = self.rules.legalize_width(new_widths[line_id] * self.upsize_factor)
                if legal > new_widths[line_id]:
                    new_widths[line_id] = legal
                    resized.add(line_id)
            for index in h_order:
                line_id = topology.num_vertical + int(index)
                legal = self.rules.legalize_width(new_widths[line_id] * self.upsize_factor)
                if legal > new_widths[line_id]:
                    new_widths[line_id] = legal
                    resized.add(line_id)

        return new_widths, len(resized)

    def _em_fix_widths(
        self,
        widths: np.ndarray,
        constraints: ReliabilityConstraints,
        violating_lines: set[int],
        per_line_current: dict[int, float],
    ) -> tuple[np.ndarray, set[int]]:
        """Widths after the EM-mandated upsizes only (no IR move).

        EM fixes are legality requirements, not search decisions: every
        search candidate builds on top of them.
        """
        new_widths = widths.copy()
        resized: set[int] = set()
        for line_id in violating_lines:
            required = per_line_current.get(line_id, 0.0) / constraints.jmax
            target = max(new_widths[line_id] * self.upsize_factor, required)
            legal = self.rules.legalize_width(target)
            if legal > new_widths[line_id]:
                new_widths[line_id] = legal
                resized.add(line_id)
        return new_widths, resized
