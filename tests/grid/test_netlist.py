"""Tests for the IBM-style SPICE netlist reader/writer."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    NetlistFormatError,
    NetlistReader,
    NetlistWriter,
    node_name,
    parse_node_name,
    parse_spice_value,
    read_netlist,
    write_netlist,
)
from repro.grid.netlist import format_coordinate


class TestSpiceValues:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("0.85", 0.85),
            ("1k", 1000.0),
            ("4.7m", 4.7e-3),
            ("100u", 1e-4),
            ("3meg", 3e6),
            ("2n", 2e-9),
            ("1e-3", 1e-3),
            ("-5", -5.0),
        ],
    )
    def test_parse_spice_value(self, token, expected):
        assert parse_spice_value(token) == pytest.approx(expected)

    def test_parse_rejects_garbage(self):
        with pytest.raises(NetlistFormatError):
            parse_spice_value("abc")

    def test_parse_rejects_empty(self):
        with pytest.raises(NetlistFormatError):
            parse_spice_value("  ")

    def test_parse_rejects_unknown_suffix(self):
        with pytest.raises(NetlistFormatError):
            parse_spice_value("5q")


class TestNodeNames:
    def test_node_name_roundtrip(self):
        name = node_name(1, 120.0, 340.0)
        assert name == "n1_120_340"
        assert parse_node_name(name) == (1, 120.0, 340.0)

    def test_node_name_fractional(self):
        assert parse_node_name(node_name(2, 10.5, 2.25)) == (2, 10.5, 2.25)

    def test_parse_node_name_freeform_returns_none(self):
        assert parse_node_name("vdd_pin") is None

    @pytest.mark.parametrize(
        "value, text",
        [
            (3.0, "3"),
            (-2.0, "-2"),
            (-0.0, "0"),
            (0.5, "0.5"),
            (123.456789, "123.457"),
            (1e-7, "1e-07"),
        ],
    )
    def test_format_coordinate(self, value, text):
        """The one coordinate formatter behind ``node_name`` and the
        array-built grids' names: whole numbers as integers, else ``%g``."""
        assert format_coordinate(value) == text
        assert node_name(1, value, value) == f"n1_{text}_{text}"


class TestRoundTrip:
    def test_write_read_roundtrip(self, tiny_grid, tmp_path):
        path = write_netlist(tiny_grid, tmp_path / "tiny.spice")
        recovered = read_netlist(path)
        original = tiny_grid.statistics()
        assert recovered.statistics().as_row() == original.as_row()
        assert recovered.vdd == pytest.approx(tiny_grid.vdd)

    def test_roundtrip_preserves_resistances(self, tiny_grid, tmp_path):
        path = write_netlist(tiny_grid, tmp_path / "tiny.spice")
        recovered = read_netlist(path)
        for name, resistor in tiny_grid.resistors.items():
            assert recovered.resistors[name].resistance == pytest.approx(resistor.resistance)

    def test_roundtrip_preserves_load_currents(self, tiny_grid, tmp_path):
        path = write_netlist(tiny_grid, tmp_path / "tiny.spice")
        recovered = read_netlist(path)
        assert recovered.total_load_current() == pytest.approx(tiny_grid.total_load_current())

    def test_roundtrip_preserves_coordinates(self, tiny_grid, tmp_path):
        path = write_netlist(tiny_grid, tmp_path / "tiny.spice")
        recovered = read_netlist(path)
        for name, node in tiny_grid.nodes.items():
            assert recovered.nodes[name].x == pytest.approx(node.x)
            assert recovered.nodes[name].y == pytest.approx(node.y)


class TestReader:
    def test_reads_minimal_deck(self):
        deck = """* test deck
R1 n1_0_0 n1_0_100 0.5
V1 n1_0_0 0 1.0
I1 n1_0_100 0 0.004
.op
.end
"""
        network = NetlistReader().read(io.StringIO(deck), name="mini")
        assert network.statistics().as_row() == (2, 1, 1, 1)
        assert network.vdd == pytest.approx(1.0)

    def test_vdd_from_comment_overrides_sources(self):
        deck = "* vdd = 1.2\nR1 a b 1.0\nV1 a 0 1.0\n.end\n"
        network = NetlistReader().read(io.StringIO(deck))
        assert network.vdd == pytest.approx(1.2)

    def test_negative_load_current_becomes_magnitude(self):
        deck = "R1 a b 1.0\nV1 a 0 1.0\nI1 b 0 -0.02\n.end\n"
        network = NetlistReader().read(io.StringIO(deck))
        assert network.total_load_current() == pytest.approx(0.02)

    def test_rejects_short_line(self):
        with pytest.raises(NetlistFormatError):
            NetlistReader().read(io.StringIO("R1 a b\n"))

    def test_rejects_unknown_element(self):
        with pytest.raises(NetlistFormatError):
            NetlistReader().read(io.StringIO("C1 a b 1.0\n"))

    def test_freeform_node_names_accepted(self):
        deck = "R1 vdd_pin sink 2.0\nVsrc vdd_pin 0 1.0\nIload sink 0 0.001\n.end\n"
        network = NetlistReader().read(io.StringIO(deck))
        assert "vdd_pin" in network
        assert "sink" in network


class TestWriter:
    def test_written_deck_has_op_and_end(self, tiny_grid):
        buffer = io.StringIO()
        NetlistWriter().write(tiny_grid, buffer)
        text = buffer.getvalue()
        assert text.strip().endswith(".end")
        assert ".op" in text

    def test_written_deck_line_count(self, tiny_grid):
        buffer = io.StringIO()
        NetlistWriter().write(tiny_grid, buffer)
        stats = tiny_grid.statistics()
        element_lines = [
            line
            for line in buffer.getvalue().splitlines()
            if line and not line.startswith(("*", "."))
        ]
        assert len(element_lines) == stats.num_resistors + stats.num_sources + stats.num_loads


@settings(max_examples=30, deadline=None)
@given(
    value=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
)
def test_spice_value_format_parse_roundtrip(value):
    """Formatting then parsing a SPICE number recovers it to high precision."""
    from repro.grid.netlist import format_spice_value

    assert parse_spice_value(format_spice_value(value)) == pytest.approx(value, rel=1e-6)
