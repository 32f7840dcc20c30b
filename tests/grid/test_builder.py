"""Tests for mesh power-grid construction."""

import dataclasses

import numpy as np
import pytest

from repro.grid import GridBuilder, GridTopology, uniform_topology


def coincident_lines(topology: GridTopology, direction: str) -> GridTopology:
    """``topology`` with the direction's lines 2 and 3 at one position."""
    field = f"{direction}_positions"
    positions = list(getattr(topology, field))
    positions[3] = positions[2]
    return dataclasses.replace(topology, **{field: tuple(positions)})


class TestTopology:
    def test_uniform_topology_counts(self, tiny_floorplan):
        topology = uniform_topology(tiny_floorplan, 6, 4)
        assert topology.num_vertical == 6
        assert topology.num_horizontal == 4
        assert topology.num_lines == 10

    def test_uniform_topology_positions_inside_core(self, tiny_floorplan):
        topology = uniform_topology(tiny_floorplan, 6, 4)
        assert all(0 < x < tiny_floorplan.core_width for x in topology.vertical_positions)
        assert all(0 < y < tiny_floorplan.core_height for y in topology.horizontal_positions)

    def test_line_position_and_direction(self, tiny_topology):
        assert tiny_topology.is_vertical(0)
        assert not tiny_topology.is_vertical(tiny_topology.num_vertical)
        assert tiny_topology.line_position(0) == tiny_topology.vertical_positions[0]
        assert (
            tiny_topology.line_position(tiny_topology.num_vertical)
            == tiny_topology.horizontal_positions[0]
        )

    def test_line_position_out_of_range(self, tiny_topology):
        with pytest.raises(IndexError):
            tiny_topology.line_position(tiny_topology.num_lines)
        with pytest.raises(IndexError):
            tiny_topology.is_vertical(-1)

    def test_rejects_too_few_lines(self, tiny_floorplan):
        with pytest.raises(ValueError):
            uniform_topology(tiny_floorplan, 1, 4)

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            GridTopology(
                num_vertical=2,
                num_horizontal=2,
                vertical_positions=(1.0,),
                horizontal_positions=(1.0, 2.0),
            )


class TestGridBuilder:
    def test_node_and_resistor_counts(self, technology, tiny_floorplan, tiny_topology):
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 5.0)
        nv, nh = tiny_topology.num_vertical, tiny_topology.num_horizontal
        stats = network.statistics()
        assert stats.num_nodes == 2 * nv * nh
        expected_resistors = nv * (nh - 1) + nh * (nv - 1) + nv * nh  # wires + vias
        assert stats.num_resistors == expected_resistors
        assert stats.num_sources == len(tiny_floorplan.pads)
        assert stats.num_loads > 0

    def test_total_load_current_preserved(self, technology, tiny_floorplan, tiny_topology):
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 5.0)
        assert network.total_load_current() == pytest.approx(
            tiny_floorplan.total_switching_current, rel=1e-9
        )

    def test_grid_is_connected_to_pads(self, tiny_grid):
        assert tiny_grid.is_connected_to_pads()

    def test_per_line_widths_set_segment_resistance(
        self, technology, tiny_floorplan, tiny_topology
    ):
        widths = np.linspace(2.0, 10.0, tiny_topology.num_lines)
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, widths)
        for resistor in network.iter_resistors():
            if resistor.is_via:
                continue
            layer = technology.layer(resistor.layer)
            expected = layer.wire_resistance(resistor.length, widths[resistor.line_id])
            assert resistor.resistance == pytest.approx(expected)

    def test_wider_lines_have_lower_resistance(self, technology, tiny_floorplan, tiny_topology):
        narrow = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 2.0)
        wide = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 8.0)
        narrow_total = sum(r.resistance for r in narrow.iter_resistors() if not r.is_via)
        wide_total = sum(r.resistance for r in wide.iter_resistors() if not r.is_via)
        assert wide_total < narrow_total

    def test_wrong_width_vector_length_raises(self, technology, tiny_floorplan, tiny_topology):
        with pytest.raises(ValueError):
            GridBuilder(technology).build(tiny_floorplan, tiny_topology, [5.0, 5.0])

    def test_nonpositive_width_raises(self, technology, tiny_floorplan, tiny_topology):
        widths = np.full(tiny_topology.num_lines, 5.0)
        widths[0] = 0.0
        with pytest.raises(ValueError):
            GridBuilder(technology).build(tiny_floorplan, tiny_topology, widths)

    def test_floorplan_without_pads_raises(self, technology, tiny_floorplan, tiny_topology):
        from repro.grid import Floorplan

        bare = Floorplan(
            name="no_pads",
            core_width=tiny_floorplan.core_width,
            core_height=tiny_floorplan.core_height,
            blocks=list(tiny_floorplan.iter_blocks()),
        )
        with pytest.raises(ValueError):
            GridBuilder(technology).build(bare, tiny_topology, 5.0)

    def test_line_ids_cover_all_lines(self, tiny_grid, tiny_topology):
        seen = {r.line_id for r in tiny_grid.iter_resistors() if r.line_id >= 0}
        assert seen == set(range(tiny_topology.num_lines))

    def test_loads_attach_to_lower_layer(self, tiny_grid, technology):
        lower = technology.vertical_layer.name
        for load in tiny_grid.iter_loads():
            assert tiny_grid.node(load.node).layer == lower

    def test_pads_attach_to_upper_layer(self, tiny_grid, technology):
        upper = technology.horizontal_layer.name
        for pad in tiny_grid.iter_pads():
            assert tiny_grid.node(pad.node).layer == upper


@pytest.mark.parametrize("direction", ["vertical", "horizontal"])
def test_coincident_lines_rejected(small_benchmark, direction):
    """A zero pitch names the lines when the topology is constructed, so no
    builder, planner or prediction ladder ever sees an infinite conductance."""
    with pytest.raises(ValueError, match=f"{direction} lines 2 and 3 are at"):
        coincident_lines(small_benchmark.topology, direction)


def test_decreasing_lines_rejected(small_benchmark):
    positions = small_benchmark.topology.horizontal_positions[::-1]
    with pytest.raises(ValueError, match="horizontal lines 0 and 1 .* strictly increasing"):
        dataclasses.replace(small_benchmark.topology, horizontal_positions=positions)


def test_nan_line_position_rejected(small_benchmark):
    positions = list(small_benchmark.topology.vertical_positions)
    positions[4] = float("nan")
    with pytest.raises(ValueError, match="vertical lines 3 and 4 are at .* nan um"):
        dataclasses.replace(small_benchmark.topology, vertical_positions=tuple(positions))
