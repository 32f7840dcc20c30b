"""Element-by-element reference of the mesh builder.

``GridBuilder.build_compiled`` assembles a mesh grid's arrays with
vectorised NumPy operations, and ``GridBuilder.build`` is a view over them.
This module keeps the straightforward construction they replace: one
``add_*`` call per node, resistor, load and pad, in the IBM netlist order.
The differential tests require the library's grids to equal it bit for bit
— arrays, names, element objects and netlist text — so keep its arithmetic,
and its order, unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.grid import (
    CurrentSource,
    Floorplan,
    GridNode,
    GridTopology,
    PowerGridNetwork,
    Resistor,
    Technology,
    VoltageSource,
)
from repro.grid.netlist import node_name


def build_network(
    technology: Technology,
    floorplan: Floorplan,
    topology: GridTopology,
    widths: np.ndarray | list[float] | float,
    name: str | None = None,
) -> PowerGridNetwork:
    """Build the mesh grid one element at a time."""
    if np.isscalar(widths):
        width_vector = np.full(topology.num_lines, float(widths))
    else:
        width_vector = np.asarray(widths, dtype=float)
    network = PowerGridNetwork(name=name or floorplan.name, vdd=technology.vdd)

    v_layer = technology.vertical_layer
    h_layer = technology.horizontal_layer
    xs = topology.vertical_positions
    ys = topology.horizontal_positions

    # Crossing nodes: one node per (vertical line, horizontal line) pair
    # on each of the two layers, connected by a via.
    lower_names: dict[tuple[int, int], str] = {}
    upper_names: dict[tuple[int, int], str] = {}
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lower = node_name(1, x, y)
            upper = node_name(2, x, y)
            network.add_node(GridNode(name=lower, x=x, y=y, layer=v_layer.name))
            network.add_node(GridNode(name=upper, x=x, y=y, layer=h_layer.name))
            lower_names[(i, j)] = lower
            upper_names[(i, j)] = upper

    resistor_count = 0

    def next_resistor_name() -> str:
        nonlocal resistor_count
        resistor_count += 1
        return f"R{resistor_count}"

    # Vertical stripe segments (lower layer).
    for i in range(len(xs)):
        width = width_vector[i]
        for j in range(len(ys) - 1):
            length = ys[j + 1] - ys[j]
            network.add_resistor(
                Resistor(
                    name=next_resistor_name(),
                    node_a=lower_names[(i, j)],
                    node_b=lower_names[(i, j + 1)],
                    resistance=v_layer.wire_resistance(length, width),
                    layer=v_layer.name,
                    width=width,
                    length=length,
                    line_id=i,
                )
            )

    # Horizontal stripe segments (upper layer).
    for j in range(len(ys)):
        width = width_vector[topology.num_vertical + j]
        for i in range(len(xs) - 1):
            length = xs[i + 1] - xs[i]
            network.add_resistor(
                Resistor(
                    name=next_resistor_name(),
                    node_a=upper_names[(i, j)],
                    node_b=upper_names[(i + 1, j)],
                    resistance=h_layer.wire_resistance(length, width),
                    layer=h_layer.name,
                    width=width,
                    length=length,
                    line_id=topology.num_vertical + j,
                )
            )

    # Vias at every crossing.
    for (i, j), lower in lower_names.items():
        network.add_resistor(
            Resistor(
                name=next_resistor_name(),
                node_a=lower,
                node_b=upper_names[(i, j)],
                resistance=technology.via_resistance,
                layer="VIA",
            )
        )

    _attach_loads(network, floorplan, topology, lower_names)
    _attach_pads(network, floorplan, topology, upper_names)
    return network


def _nearest_index(positions: tuple[float, ...], value: float) -> int:
    array = np.asarray(positions)
    return int(np.argmin(np.abs(array - value)))


def _attach_loads(
    network: PowerGridNetwork,
    floorplan: Floorplan,
    topology: GridTopology,
    lower_names: dict[tuple[int, int], str],
) -> None:
    """Distribute each block's switching current over covering grid nodes."""
    xs = np.asarray(topology.vertical_positions)
    ys = np.asarray(topology.horizontal_positions)
    load_count = 0
    for block in floorplan.iter_blocks():
        if block.switching_current <= 0:
            continue
        ix = np.where((xs >= block.x) & (xs <= block.x + block.width))[0]
        iy = np.where((ys >= block.y) & (ys <= block.y + block.height))[0]
        if ix.size == 0 or iy.size == 0:
            # Block smaller than the stripe pitch: snap to the nearest node.
            cx, cy = block.center
            ix = np.asarray([_nearest_index(topology.vertical_positions, cx)])
            iy = np.asarray([_nearest_index(topology.horizontal_positions, cy)])
        share = block.switching_current / (ix.size * iy.size)
        for i in ix:
            for j in iy:
                load_count += 1
                network.add_current_source(
                    CurrentSource(
                        name=f"I{load_count}",
                        node=lower_names[(int(i), int(j))],
                        current=share,
                        block=block.name,
                    )
                )


def _attach_pads(
    network: PowerGridNetwork,
    floorplan: Floorplan,
    topology: GridTopology,
    upper_names: dict[tuple[int, int], str],
) -> None:
    """Attach every power pad to its nearest upper-layer grid node."""
    pad_count = 0
    used_nodes: set[str] = set()
    for pad in floorplan.iter_pads():
        i = _nearest_index(topology.vertical_positions, pad.x)
        j = _nearest_index(topology.horizontal_positions, pad.y)
        node = upper_names[(i, j)]
        if node in used_nodes:
            continue
        used_nodes.add(node)
        pad_count += 1
        network.add_voltage_source(
            VoltageSource(name=f"V{pad_count}", node=node, voltage=pad.voltage)
        )
    if pad_count == 0:
        raise ValueError("floorplan has no power pads; the grid would be floating")
