"""Construction of mesh power grids from a floorplan and per-line widths.

The grid builder turns a :class:`~repro.grid.floorplan.Floorplan` plus a
width assignment for every power-grid line (stripe) into a flat resistive
:class:`~repro.grid.network.PowerGridNetwork`:

* vertical stripes on the technology's vertical layer, horizontal stripes on
  the horizontal layer, connected by via resistors at every crossing;
* the switching current of every functional block is distributed over the
  grid nodes that cover the block;
* every power pad of the floorplan is snapped to the nearest grid node and
  attached through an ideal voltage source.

There is one mesh construction, :meth:`GridBuilder.build_compiled`, which
assembles the :class:`~repro.grid.compiled.CompiledGrid` arrays with
vectorised NumPy operations.  :meth:`GridBuilder.build` wraps that grid in
a network view whose element objects are created only on demand, and
:meth:`GridBuilder.resize_compiled` re-sizes a built grid's stripes in
place of a rebuild (the planner's per-iteration path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiled import CompiledGrid
from .floorplan import Floorplan
from .network import PowerGridNetwork
from .technology import Technology


@dataclass(frozen=True)
class GridTopology:
    """Topology of a mesh power grid: number and position of the stripes.

    Attributes:
        num_vertical: Number of vertical power-grid lines (stripes).
        num_horizontal: Number of horizontal power-grid lines.
        vertical_positions: X coordinate of each vertical line, in um.
        horizontal_positions: Y coordinate of each horizontal line, in um.
    """

    num_vertical: int
    num_horizontal: int
    vertical_positions: tuple[float, ...]
    horizontal_positions: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.num_vertical < 2 or self.num_horizontal < 2:
            raise ValueError("a mesh grid needs at least 2 lines per direction")
        if len(self.vertical_positions) != self.num_vertical:
            raise ValueError("vertical_positions length mismatch")
        if len(self.horizontal_positions) != self.num_horizontal:
            raise ValueError("horizontal_positions length mismatch")

    @property
    def num_lines(self) -> int:
        """Total number of power-grid lines (vertical + horizontal)."""
        return self.num_vertical + self.num_horizontal

    def line_position(self, line_id: int) -> float:
        """Return the coordinate of a line: x for vertical, y for horizontal.

        Line ids ``0 .. num_vertical-1`` are vertical lines; the remaining
        ids are horizontal lines.
        """
        if line_id < 0 or line_id >= self.num_lines:
            raise IndexError(f"line id {line_id} out of range")
        if line_id < self.num_vertical:
            return self.vertical_positions[line_id]
        return self.horizontal_positions[line_id - self.num_vertical]

    def is_vertical(self, line_id: int) -> bool:
        """Return True if ``line_id`` denotes a vertical line."""
        if line_id < 0 or line_id >= self.num_lines:
            raise IndexError(f"line id {line_id} out of range")
        return line_id < self.num_vertical


def uniform_topology(floorplan: Floorplan, num_vertical: int, num_horizontal: int) -> GridTopology:
    """Build a uniformly pitched topology covering the floorplan core.

    Lines are placed at equal pitch with a half-pitch margin from the core
    edges, which matches how power stripes are typically laid out over a
    core ring.
    """
    if num_vertical < 2 or num_horizontal < 2:
        raise ValueError("a mesh grid needs at least 2 lines per direction")
    xs = np.linspace(0.0, floorplan.core_width, num_vertical + 1)
    ys = np.linspace(0.0, floorplan.core_height, num_horizontal + 1)
    vertical = tuple(float(x) for x in (xs[:-1] + xs[1:]) / 2.0)
    horizontal = tuple(float(y) for y in (ys[:-1] + ys[1:]) / 2.0)
    return GridTopology(
        num_vertical=num_vertical,
        num_horizontal=num_horizontal,
        vertical_positions=vertical,
        horizontal_positions=horizontal,
    )


class GridBuilder:
    """Build mesh :class:`PowerGridNetwork` instances from floorplans.

    Args:
        technology: Technology parameters (sheet resistances, via resistance,
            Vdd) used to convert geometry into electrical values.
    """

    def __init__(self, technology: Technology) -> None:
        self.technology = technology

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        widths: np.ndarray | list[float] | float,
        name: str | None = None,
    ) -> PowerGridNetwork:
        """Build the power-grid network.

        The network is a view over :meth:`build_compiled`'s arrays
        (:meth:`PowerGridNetwork.from_compiled`): its
        :meth:`~repro.grid.network.PowerGridNetwork.compile` returns that
        compiled grid at once, and its node, resistor, pad and load objects
        are created from the arrays only when something asks for them.

        Args:
            floorplan: Floorplan providing core size, blocks and pads.
            topology: Stripe topology (counts and positions).
            widths: Per-line width in um.  Either a scalar (uniform width) or
                a sequence of length ``topology.num_lines`` ordered as all
                vertical lines followed by all horizontal lines.
            name: Optional name for the resulting network; defaults to the
                floorplan name.

        Returns:
            A fully connected :class:`PowerGridNetwork` with loads and pads.

        Raises:
            ValueError: As :meth:`build_compiled`.
        """
        return PowerGridNetwork.from_compiled(
            self.build_compiled(floorplan, topology, widths, name=name)
        )

    def build_compiled(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        widths: np.ndarray | list[float] | float,
        name: str | None = None,
    ) -> CompiledGrid:
        """Build the grid straight into its compiled array form.

        This is the one mesh construction: every array is assembled with
        vectorised NumPy operations, never through an object graph of
        :class:`GridNode` / :class:`Resistor` dataclasses.  The layout is
        the IBM netlist order — for each (vertical line i, horizontal line
        j) crossing with i outer, a lower-layer node then an upper-layer
        node; vertical segments, then horizontal segments, then one via
        per crossing (resistors ``R1``, ``R2``, ...); each block's loads
        over the lower-layer nodes it covers (``I1``, ...); each pad on
        the nearest upper-layer node, the first pad on a node winning
        (``V1``, ...).  Name-keyed views of the result are synthesised
        lazily on demand, and the resistances of the materialised
        :class:`Resistor` objects are the ``sheet_resistance * length /
        width`` values computed here.

        Args:
            floorplan: Floorplan providing core size, blocks and pads.
            topology: Stripe topology (counts and positions).
            widths: Per-line width in um (scalar or per-line vector).
            name: Optional name for the grid; defaults to the floorplan name.

        Raises:
            ValueError: If the width vector is malformed, two neighbouring
                stripes of one direction are not strictly increasing in
                position (naming the direction and both line indices), the
                via resistance is not positive, or the floorplan has no
                power pads.
        """
        width_vector = self._normalise_widths(topology, widths)
        v_layer = self.technology.vertical_layer
        h_layer = self.technology.horizontal_layer
        if self.technology.via_resistance <= 0:
            raise ValueError("via resistance must be positive to build a mesh grid")
        xs = np.asarray(topology.vertical_positions, dtype=float)
        ys = np.asarray(topology.horizontal_positions, dtype=float)
        nx, ny = len(xs), len(ys)
        v_pitch = np.diff(ys)
        h_pitch = np.diff(xs)
        # A zero pitch would make a zero-length segment (infinite
        # conductance, a singular matrix) and a negative one a negative
        # resistance: reject both before any array is built.
        for direction, positions, pitch in (("vertical", xs, h_pitch), ("horizontal", ys, v_pitch)):
            bad = np.flatnonzero(pitch <= 0)
            if bad.size:
                k = int(bad[0])
                raise ValueError(
                    f"{direction} lines {k} and {k + 1} are at {positions[k]:g} and "
                    f"{positions[k + 1]:g} um; stripe positions must be strictly increasing"
                )

        # Node layout: for each (vertical i, horizontal j) crossing, the
        # lower-layer node then the upper-layer node, with i as the outer
        # loop.  index(lower(i, j)) = 2 * (i * ny + j).
        num_nodes = 2 * nx * ny
        pair_x = np.repeat(xs, ny)
        pair_y = np.tile(ys, nx)
        node_x = np.repeat(pair_x, 2)
        node_y = np.repeat(pair_y, 2)
        node_layer_index = np.tile(np.asarray([1, 2], dtype=np.int8), nx * ny)

        # Vertical stripe segments (lower layer), i outer / j inner.
        v_i = np.repeat(np.arange(nx), ny - 1)
        v_j = np.tile(np.arange(ny - 1), nx)
        va = 2 * (v_i * ny + v_j)
        vb = va + 2
        v_length = np.tile(v_pitch, nx)
        v_width = np.repeat(width_vector[:nx], ny - 1)
        v_resistance = v_layer.sheet_resistance * v_length / v_width

        # Horizontal stripe segments (upper layer), j outer / i inner.
        h_j = np.repeat(np.arange(ny), nx - 1)
        h_i = np.tile(np.arange(nx - 1), ny)
        ha = 2 * (h_i * ny + h_j) + 1
        hb = ha + 2 * ny
        h_length = np.tile(h_pitch, ny)
        h_width = np.repeat(width_vector[nx:], nx - 1)
        h_resistance = h_layer.sheet_resistance * h_length / h_width

        # Vias at every crossing, i outer / j inner.
        via_a = 2 * np.arange(nx * ny)
        via_b = via_a + 1
        num_vias = nx * ny

        res_a = np.concatenate((va, ha, via_a))
        res_b = np.concatenate((vb, hb, via_b))
        resistance = np.concatenate(
            (v_resistance, h_resistance, np.full(num_vias, self.technology.via_resistance))
        )
        res_width = np.concatenate((v_width, h_width, np.zeros(num_vias)))
        res_length = np.concatenate((v_length, h_length, np.zeros(num_vias)))
        res_line_id = np.concatenate(
            (v_i, topology.num_vertical + h_j, np.full(num_vias, -1, dtype=np.int64))
        )
        res_layer_codes = np.concatenate(
            (
                np.zeros(len(va), dtype=np.int8),
                np.ones(len(ha), dtype=np.int8),
                np.full(num_vias, 2, dtype=np.int8),
            )
        )

        load_node, load_current, load_block = self._compiled_loads(floorplan, topology, xs, ys, ny)
        pad_node, pad_voltage_values = self._compiled_pads(floorplan, xs, ys, ny)

        return CompiledGrid.from_arrays(
            name=name or floorplan.name,
            vdd=self.technology.vdd,
            num_nodes=num_nodes,
            node_x=node_x,
            node_y=node_y,
            node_layer_index=node_layer_index,
            node_layer_names=(v_layer.name, h_layer.name),
            res_a=res_a,
            res_b=res_b,
            conductance=1.0 / resistance,
            res_resistance=resistance,
            res_width=res_width,
            res_length=res_length,
            res_line_id=res_line_id,
            res_layer_codes=res_layer_codes,
            res_layer_names=(v_layer.name, h_layer.name, "VIA"),
            pad_node=pad_node,
            pad_voltage_values=pad_voltage_values,
            load_node=load_node,
            load_current=load_current,
            load_block=load_block,
        )

    def resize_compiled(
        self,
        compiled: CompiledGrid,
        topology: GridTopology,
        widths: np.ndarray | list[float] | float,
    ) -> CompiledGrid:
        """Re-size the stripes of a compiled grid without rebuilding it.

        Only the conductances and drawn widths of the stripe segments
        change; vias, topology, loads and pads are shared with ``compiled``
        via :meth:`CompiledGrid.with_conductances`.  The result is
        bitwise-identical (same fingerprint) to ``build_compiled`` called
        with the new widths.

        Args:
            compiled: A grid previously built for the same topology.
            topology: The stripe topology the grid was built from.
            widths: New per-line widths in um.
        """
        width_vector = self._normalise_widths(topology, widths)
        segment = compiled.res_line_id >= 0
        line = compiled.res_line_id[segment]
        sheet_resistance = np.where(
            line < topology.num_vertical,
            self.technology.vertical_layer.sheet_resistance,
            self.technology.horizontal_layer.sheet_resistance,
        )
        resistance = sheet_resistance * compiled.res_length[segment] / width_vector[line]
        conductance = compiled.conductance.copy()
        conductance[segment] = 1.0 / resistance
        res_width = compiled.res_width.copy()
        res_width[segment] = width_vector[line]
        return compiled.with_conductances(conductance, res_width=res_width)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compiled_loads(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        xs: np.ndarray,
        ys: np.ndarray,
        ny: int,
    ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Spread each block's current evenly over the lower-layer nodes it covers.

        A block narrower than the stripe pitch covers no crossing and loads
        the node nearest its centre instead.  Sources are ordered by block,
        then by vertical line, then by horizontal line.
        """
        nodes: list[np.ndarray] = []
        currents: list[np.ndarray] = []
        blocks: list[str] = []
        for block in floorplan.iter_blocks():
            if block.switching_current <= 0:
                continue
            ix = np.where((xs >= block.x) & (xs <= block.x + block.width))[0]
            iy = np.where((ys >= block.y) & (ys <= block.y + block.height))[0]
            if ix.size == 0 or iy.size == 0:
                # Block smaller than the stripe pitch: snap to the nearest node.
                cx, cy = block.center
                ix = np.asarray([int(np.argmin(np.abs(xs - cx)))])
                iy = np.asarray([int(np.argmin(np.abs(ys - cy)))])
            share = block.switching_current / (ix.size * iy.size)
            block_nodes = (2 * (ix[:, None] * ny + iy[None, :])).ravel()
            nodes.append(block_nodes)
            currents.append(np.full(block_nodes.size, share))
            blocks.extend([block.name] * block_nodes.size)
        if not nodes:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=float),
                (),
            )
        return (
            np.concatenate(nodes).astype(np.int64, copy=False),
            np.concatenate(currents),
            tuple(blocks),
        )

    def _compiled_pads(
        self, floorplan: Floorplan, xs: np.ndarray, ys: np.ndarray, ny: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Snap every pad to its nearest upper-layer node; the first pad on a node wins."""
        pads = list(floorplan.iter_pads())
        if not pads:
            raise ValueError("floorplan has no power pads; the grid would be floating")
        pad_x = np.fromiter((pad.x for pad in pads), dtype=float, count=len(pads))
        pad_y = np.fromiter((pad.y for pad in pads), dtype=float, count=len(pads))
        pad_v = np.fromiter((pad.voltage for pad in pads), dtype=float, count=len(pads))
        i = np.argmin(np.abs(xs[None, :] - pad_x[:, None]), axis=1)
        j = np.argmin(np.abs(ys[None, :] - pad_y[:, None]), axis=1)
        node = 2 * (i * ny + j) + 1
        _, first = np.unique(node, return_index=True)
        keep = np.sort(first)
        return node[keep].astype(np.int64, copy=False), pad_v[keep]

    def _normalise_widths(
        self, topology: GridTopology, widths: np.ndarray | list[float] | float
    ) -> np.ndarray:
        if np.isscalar(widths):
            vector = np.full(topology.num_lines, float(widths))
        else:
            vector = np.asarray(widths, dtype=float)
        if vector.shape != (topology.num_lines,):
            raise ValueError(
                f"expected {topology.num_lines} widths, got shape {vector.shape}"
            )
        if np.any(vector <= 0):
            raise ValueError("all line widths must be positive")
        return vector
