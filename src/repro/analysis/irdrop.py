"""Static IR-drop results and their rasterisation (paper Fig. 8).

The conventional approach the paper benchmarks PowerPlanningDL against is a
full sparse solve of the grid's nodal equations
(:class:`~repro.analysis.engine.BatchedAnalysisEngine`), followed by IR-drop
extraction per node, worst-case reporting, and rasterisation of the IR-drop
values onto a 2-D map (the paper's Fig. 8 plots these maps on a 100 x 100
raster).  This module holds the result type, its one builder from solved
voltages (:func:`result_from_voltages`) and the rasteriser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.compiled import CompiledGrid
from ..grid.network import PowerGridNetwork


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
    """

    network_name: str
    vdd: float
    node_voltages: dict[str, float]
    node_ir_drop: dict[str, float]
    worst_ir_drop: float
    worst_node: str
    average_ir_drop: float
    analysis_time: float

    @property
    def worst_ir_drop_mv(self) -> float:
        """Worst-case IR drop in millivolts (Table III units)."""
        return self.worst_ir_drop * 1000.0


def result_from_voltages(
    compiled: CompiledGrid,
    voltages: np.ndarray,
    *,
    name: str,
    analysis_time: float,
) -> IRDropResult:
    """Build the full result of one solved scenario.

    ``voltages`` are the scenario's per-node voltages in compiled node
    order.  The IR drops, the worst node (the first maximum) and the mean
    drop are reduced from them here, so every caller — a materialised
    batch column, a single analysis, the planner's converged design —
    reports its scenario the same way.
    """
    drops = compiled.vdd - voltages
    worst = int(drops.argmax())
    return IRDropResult(
        network_name=name,
        vdd=compiled.vdd,
        node_voltages=compiled.voltages_dict(voltages),
        node_ir_drop=compiled.voltages_dict(drops),
        worst_ir_drop=float(drops[worst]),
        worst_node=compiled.node_names[worst],
        average_ir_drop=float(drops.mean()),
        analysis_time=analysis_time,
    )


def rasterise_max(
    xs: np.ndarray,
    ys: np.ndarray,
    values: np.ndarray,
    origin: tuple[float, float],
    size: tuple[float, float],
    resolution: int,
) -> np.ndarray:
    """Bin point values onto a square map, keeping the maximum per bin.

    Point ``k`` falls into the bin of ``(xs[k], ys[k])`` within the window
    of extent ``size`` starting at ``origin``; points outside the window
    are clamped into the border bins.  Empty bins are filled with the
    smallest value any bin holds (0 when no point was binned), so the map
    is dense like the paper's contour plots.

    Returns:
        A ``(resolution, resolution)`` array indexed as ``map[y_bin, x_bin]``.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    x_bins = np.clip(((xs - origin[0]) / size[0] * resolution).astype(int), 0, resolution - 1)
    y_bins = np.clip(((ys - origin[1]) / size[1] * resolution).astype(int), 0, resolution - 1)
    grid = np.full((resolution, resolution), -np.inf)
    np.maximum.at(grid, (y_bins, x_bins), values)
    empty = grid == -np.inf
    observed = grid[~empty]
    grid[empty] = observed.min() if observed.size else 0.0
    return grid


def ir_drop_map(
    network: PowerGridNetwork,
    result: IRDropResult,
    resolution: int = 100,
) -> np.ndarray:
    """Rasterise per-node IR drops onto a square map (paper Fig. 8).

    Nodes are binned by their (x, y) coordinates over the grid's bounding
    box (:func:`rasterise_max`): every bin stores the maximum IR drop of
    the nodes falling into it, and empty bins take the map's minimum.

    Args:
        network: The analysed grid (provides node coordinates).
        result: The IR-drop analysis result for that grid.
        resolution: Number of bins per axis (the paper plots 100 x 100 maps).

    Returns:
        A ``(resolution, resolution)`` array of IR drops in volts, indexed as
        ``map[y_bin, x_bin]``.
    """
    nodes = network.nodes
    count = len(nodes)
    xs = np.fromiter((node.x for node in nodes.values()), dtype=float, count=count)
    ys = np.fromiter((node.y for node in nodes.values()), dtype=float, count=count)
    drops = np.fromiter((result.node_ir_drop[name] for name in nodes), dtype=float, count=count)
    x_min, y_min = xs.min(), ys.min()
    return rasterise_max(
        xs,
        ys,
        drops,
        origin=(x_min, y_min),
        size=(max(xs.max() - x_min, 1e-12), max(ys.max() - y_min, 1e-12)),
        resolution=resolution,
    )
