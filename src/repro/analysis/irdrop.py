"""Static IR-drop analysis of a power-grid network (the conventional method).

This is the "conventional approach" the paper benchmarks PowerPlanningDL
against: a full sparse solve of the grid's nodal equations, followed by
IR-drop extraction per node, worst-case reporting, and rasterisation of the
IR-drop values onto a 2-D map (the paper's Fig. 8 plots these maps on a
100 x 100 raster).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..grid.network import PowerGridNetwork
from .mna import MNAAssembler
# The legacy MNA-level analyzer is the documented consumer of the
# deprecated solver module; new code goes through BatchedAnalysisEngine.
from .solver import PowerGridSolver, SolverMethod  # reprolint: disable=RPR005


@dataclass
class IRDropResult:
    """Result of one static IR-drop analysis.

    Attributes:
        network_name: Name of the analysed grid.
        vdd: Nominal supply voltage used as the IR-drop reference.
        node_voltages: Mapping of node name to solved voltage.
        node_ir_drop: Mapping of node name to IR drop ``vdd - v`` in volts.
        worst_ir_drop: Worst-case (maximum) IR drop in volts.
        worst_node: Name of the node with the worst IR drop.
        average_ir_drop: Mean IR drop over all nodes in volts.
        analysis_time: Wall-clock time of assembly + solve in seconds.
        solver_method: Linear solver that was used.
        solver_iterations: Iterations of the linear solver (0 for direct).
    """

    network_name: str
    vdd: float
    node_voltages: dict[str, float]
    node_ir_drop: dict[str, float]
    worst_ir_drop: float
    worst_node: str
    average_ir_drop: float
    analysis_time: float
    solver_method: str
    solver_iterations: int

    @property
    def worst_ir_drop_mv(self) -> float:
        """Worst-case IR drop in millivolts (Table III units)."""
        return self.worst_ir_drop * 1000.0

    def ir_drop_of(self, node: str) -> float:
        """Return the IR drop of a node in volts.

        Raises:
            KeyError: If the node does not exist in the result.
        """
        return self.node_ir_drop[node]


class IRDropAnalyzer:
    """Full static IR-drop analysis via sparse nodal solve.

    Assembly runs on the network's cached compiled form (vectorised COO→CSR
    stamping), but every call still factorizes the system from scratch —
    this is the reference per-solve path.  Sweeps that only change loads or
    pad voltages should use
    :class:`~repro.analysis.engine.BatchedAnalysisEngine`, which shares one
    factorization across scenarios.

    Args:
        solver: Linear solver to use; a default auto-selecting solver is
            created if omitted.
    """

    def __init__(self, solver: PowerGridSolver | None = None) -> None:
        self.solver = solver or PowerGridSolver(method=SolverMethod.AUTO)
        self._assembler = MNAAssembler()

    def analyze(self, network: PowerGridNetwork) -> IRDropResult:
        """Run the analysis and return per-node voltages and IR drops.

        Raises:
            ValueError: If the grid has no pads, or a node that reaches
                neither a pad nor ground (the nodal system is singular).
        """
        start = time.perf_counter()
        system = self._assembler.assemble(network)
        network.compile().require_connected()
        solve_result = self.solver.solve(system)
        voltages = system.full_solution(solve_result.voltages)
        elapsed = time.perf_counter() - start

        ir_drop = {name: network.vdd - voltage for name, voltage in voltages.items()}
        worst_node = max(ir_drop, key=ir_drop.get)
        values = np.fromiter(ir_drop.values(), dtype=float)
        return IRDropResult(
            network_name=network.name,
            vdd=network.vdd,
            node_voltages=voltages,
            node_ir_drop=ir_drop,
            worst_ir_drop=float(values.max()),
            worst_node=worst_node,
            average_ir_drop=float(values.mean()),
            analysis_time=elapsed,
            solver_method=solve_result.method.value,
            solver_iterations=solve_result.iterations,
        )


def ir_drop_map(
    network: PowerGridNetwork,
    result: IRDropResult,
    resolution: int = 100,
    normalise_extent: bool = True,
) -> np.ndarray:
    """Rasterise per-node IR drops onto a square map (paper Fig. 8).

    Each node's IR drop is binned by its (x, y) coordinates; every bin stores
    the maximum IR drop of the nodes falling into it, and empty bins are
    filled with the map's minimum observed value so the map is dense like the
    paper's contour plots.

    Args:
        network: The analysed grid (provides node coordinates).
        result: The IR-drop analysis result for that grid.
        resolution: Number of bins per axis (the paper plots 100 x 100 maps).
        normalise_extent: If True, bin coordinates over the grid's bounding
            box; otherwise assume coordinates already span ``[0, resolution)``.

    Returns:
        A ``(resolution, resolution)`` array of IR drops in volts, indexed as
        ``map[y_bin, x_bin]``.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    names = list(network.nodes)
    xs = np.asarray([network.nodes[name].x for name in names], dtype=float)
    ys = np.asarray([network.nodes[name].y for name in names], dtype=float)
    drops = np.asarray([result.node_ir_drop[name] for name in names], dtype=float)

    if normalise_extent:
        x_min, x_max = xs.min(), xs.max()
        y_min, y_max = ys.min(), ys.max()
        x_span = max(x_max - x_min, 1e-12)
        y_span = max(y_max - y_min, 1e-12)
        x_bins = np.clip(((xs - x_min) / x_span * resolution).astype(int), 0, resolution - 1)
        y_bins = np.clip(((ys - y_min) / y_span * resolution).astype(int), 0, resolution - 1)
    else:
        x_bins = np.clip(xs.astype(int), 0, resolution - 1)
        y_bins = np.clip(ys.astype(int), 0, resolution - 1)

    grid = np.full((resolution, resolution), np.nan)
    for xb, yb, drop in zip(x_bins, y_bins, drops):
        current = grid[yb, xb]
        if np.isnan(current) or drop > current:
            grid[yb, xb] = drop
    observed_min = np.nanmin(grid) if np.any(~np.isnan(grid)) else 0.0
    grid = np.where(np.isnan(grid), observed_min, grid)
    return grid
