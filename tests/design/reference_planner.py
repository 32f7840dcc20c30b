"""Rebuild-per-iteration reference of the conventional planner loop.

``ConventionalPowerPlanner.plan`` builds the grid's arrays once and then
only rewrites stripe conductances, solving each design as a one-column
engine batch and deciding every resize from array state.  This module
keeps the straightforward loop it replaces: every iteration rebuilds the
object-level network with ``GridBuilder.build``, solves it with
``engine.analyze``, checks EM with ``EMChecker.check`` and looks the
worst node up in the network.  Both loops resize through the planner's
own ``_resize_core``, so the differential tests require the planner's
one-move plans to equal this loop's bit for bit — widths, per-iteration
history, voltages, worst node, EM report and evaluation.  Keep its order
of operations unchanged.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import line_currents_from_voltages
from repro.design import (
    ConventionalPowerPlanner,
    PlanningIteration,
    PowerPlanResult,
    ReliabilityConstraints,
)
from repro.grid import Floorplan, GridBuilder, GridTopology


def reference_plan(
    planner: ConventionalPowerPlanner,
    floorplan: Floorplan,
    topology: GridTopology,
    constraints: ReliabilityConstraints | None = None,
    initial_widths: np.ndarray | None = None,
) -> PowerPlanResult:
    """Plan with ``planner``'s configuration and engine, rebuilding every iteration.

    This is the one-move loop; ``planner``'s search config, if any, is
    not consulted.
    """
    constraints = constraints or ReliabilityConstraints.from_technology(
        planner.technology, floorplan.core_width, floorplan.core_height
    )
    start = time.perf_counter()
    if initial_widths is None:
        widths = planner.sizer.size(floorplan, topology)
    else:
        widths = planner.rules.legalize_widths(initial_widths)
        if widths.shape != (topology.num_lines,):
            raise ValueError(f"initial_widths must have length {topology.num_lines}")

    builder = GridBuilder(planner.technology)
    iterations: list[PlanningIteration] = []
    analysis_time = 0.0

    def analyse(widths: np.ndarray):
        build_start = time.perf_counter()
        network = builder.build(floorplan, topology, widths)
        build_time = time.perf_counter() - build_start
        ir_result = planner.analyzer.analyze(network)
        em_report = planner.em_checker.check(network, ir_result)
        evaluation = constraints.evaluate(
            ir_result,
            em_report,
            widths[: topology.num_vertical],
            widths[topology.num_vertical :],
            planner.rules,
        )
        return network, build_time, ir_result, em_report, evaluation

    network, build_time, ir_result, em_report, evaluation = analyse(widths)
    analysis_time += ir_result.analysis_time
    for iteration in range(planner.max_iterations):
        resized = 0
        if not evaluation.all_satisfied:
            compiled = network.compile()
            violating = em_report.violating_lines
            per_line = (
                line_currents_from_voltages(
                    compiled, compiled.voltage_array(ir_result.node_voltages)
                )
                if violating
                else {}
            )
            worst = network.nodes[ir_result.worst_node]
            widths, resized = planner._resize_core(
                widths,
                topology,
                constraints,
                violating_lines=violating,
                per_line_current=per_line,
                worst_ir_drop=ir_result.worst_ir_drop,
                worst_x=worst.x,
                worst_y=worst.y,
            )
        iterations.append(
            PlanningIteration(
                index=iteration,
                worst_ir_drop=ir_result.worst_ir_drop,
                em_violations=len(em_report.violations),
                lines_resized=resized,
                analysis_time=ir_result.analysis_time,
                build_time=build_time,
            )
        )
        if evaluation.all_satisfied or resized == 0:
            break
        network, build_time, ir_result, em_report, evaluation = analyse(widths)
        analysis_time += ir_result.analysis_time

    return PowerPlanResult(
        benchmark=floorplan.name,
        widths=widths,
        network=network,
        ir_result=ir_result,
        em_report=em_report,
        evaluation=evaluation,
        iterations=iterations,
        converged=evaluation.all_satisfied,
        total_time=time.perf_counter() - start,
        analysis_time=analysis_time,
    )
