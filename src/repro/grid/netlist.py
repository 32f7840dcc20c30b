"""Reader / writer for IBM power-grid style SPICE netlists.

The IBM power-grid benchmarks are distributed as flat SPICE decks containing
only resistors, independent voltage sources and independent current sources::

    * comment
    R15 n1_100_200 n1_100_300 0.85
    V3  n1_0_0     0          1.8
    I27 n1_100_200 0          0.004
    .op
    .end

Node names encode the layer and the coordinates as ``n<layer>_<x>_<y>``.
This module parses and emits that format so that grids produced by the
synthetic benchmark generator can be written to disk, re-read and shared,
exactly as a user of the original benchmarks would.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, TextIO

from .elements import GROUND_NODE, CurrentSource, GridNode, Resistor, VoltageSource
from .network import PowerGridNetwork

_NODE_PATTERN = re.compile(r"^n(?P<layer>\d+)_(?P<x>-?\d+(?:\.\d+)?)_(?P<y>-?\d+(?:\.\d+)?)$")

_SI_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}


class NetlistFormatError(ValueError):
    """Raised when a SPICE netlist line cannot be parsed."""


def parse_spice_value(token: str) -> float:
    """Parse a SPICE numeric token with an optional SI suffix.

    Examples: ``"0.85"``, ``"1k"``, ``"4.7m"``, ``"100u"``, ``"3meg"``.

    Raises:
        NetlistFormatError: If the token is not a valid SPICE number.
    """
    token = token.strip().lower()
    if not token:
        raise NetlistFormatError("empty numeric token")
    match = re.match(r"^([-+]?[0-9]*\.?[0-9]+(?:e[-+]?[0-9]+)?)([a-z]*)$", token)
    if match is None:
        raise NetlistFormatError(f"invalid SPICE number {token!r}")
    value = float(match.group(1))
    suffix = match.group(2)
    if not suffix:
        return value
    if suffix.startswith("meg"):
        return value * _SI_SUFFIXES["meg"]
    scale = _SI_SUFFIXES.get(suffix[0])
    if scale is None:
        raise NetlistFormatError(f"unknown SI suffix in {token!r}")
    return value * scale


def format_spice_value(value: float) -> str:
    """Format a float as a plain SPICE number (no suffix, full precision)."""
    return f"{value:.9g}"


def format_coordinate(value: float) -> str:
    """Render one node-name coordinate: an integer when whole, else ``%g``."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def node_name(layer_index: int, x: float, y: float) -> str:
    """Build an IBM-style node name ``n<layer>_<x>_<y>``.

    Coordinates are rendered as integers when they are whole numbers to keep
    the netlists compact and round-trippable.
    """
    return f"n{layer_index}_{format_coordinate(x)}_{format_coordinate(y)}"


def parse_node_name(name: str) -> tuple[int, float, float] | None:
    """Parse an IBM-style node name into ``(layer_index, x, y)``.

    Returns ``None`` for names that do not follow the convention (such names
    are still accepted by the parser; they simply get coordinate 0, 0).
    """
    match = _NODE_PATTERN.match(name)
    if match is None:
        return None
    return (int(match.group("layer")), float(match.group("x")), float(match.group("y")))


class NetlistWriter:
    """Serialise a :class:`PowerGridNetwork` to the IBM SPICE format."""

    def write(self, network: PowerGridNetwork, stream: TextIO) -> None:
        """Write ``network`` to an open text stream."""
        stream.write(f"* power grid netlist: {network.name}\n")
        stream.write(f"* vdd = {format_spice_value(network.vdd)}\n")
        for resistor in network.iter_resistors():
            stream.write(
                f"{resistor.name} {resistor.node_a} {resistor.node_b} "
                f"{format_spice_value(resistor.resistance)}\n"
            )
        for source in network.iter_pads():
            stream.write(
                f"{source.name} {source.node} {GROUND_NODE} "
                f"{format_spice_value(source.voltage)}\n"
            )
        for load in network.iter_loads():
            stream.write(
                f"{load.name} {load.node} {GROUND_NODE} "
                f"{format_spice_value(load.current)}\n"
            )
        stream.write(".op\n.end\n")

    def write_file(self, network: PowerGridNetwork, path: str | Path) -> Path:
        """Write ``network`` to ``path`` and return the path."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as stream:
            self.write(network, stream)
        return path


class NetlistReader:
    """Parse an IBM power-grid SPICE deck into a :class:`PowerGridNetwork`.

    Node coordinates are recovered from the ``n<layer>_<x>_<y>`` naming
    convention when possible; nodes with free-form names are placed at the
    origin on layer ``"M?"`` so that purely electrical analyses still work.
    """

    def __init__(self, default_vdd: float = 1.0) -> None:
        if default_vdd <= 0:
            raise ValueError("default_vdd must be positive")
        self.default_vdd = default_vdd

    def read(self, stream: TextIO, name: str = "netlist") -> PowerGridNetwork:
        """Parse an open text stream into a power-grid network."""
        lines = stream.read().splitlines()
        return self.read_lines(lines, name=name)

    def read_file(self, path: str | Path) -> PowerGridNetwork:
        """Parse the netlist file at ``path``."""
        path = Path(path)
        with path.open("r", encoding="utf-8") as stream:
            return self.read(stream, name=path.stem)

    def read_lines(self, lines: Iterable[str], name: str = "netlist") -> PowerGridNetwork:
        """Parse an iterable of netlist lines."""
        raw_resistors: list[tuple[str, str, str, float]] = []
        raw_vsources: list[tuple[str, str, str, float]] = []
        raw_isources: list[tuple[str, str, str, float]] = []
        vdd = self.default_vdd
        vdd_from_comment = False

        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("*"):
                comment_match = re.search(r"vdd\s*=\s*([0-9.eE+-]+)", line)
                if comment_match:
                    vdd = float(comment_match.group(1))
                    vdd_from_comment = True
                continue
            if line.startswith("."):
                continue
            tokens = line.split()
            if len(tokens) < 4:
                raise NetlistFormatError(f"line {line_no}: expected 4 tokens, got {len(tokens)}")
            element, node_a, node_b = tokens[0], tokens[1], tokens[2]
            try:
                value = parse_spice_value(tokens[3])
            except NetlistFormatError as exc:
                raise NetlistFormatError(f"line {line_no}: {exc}") from exc
            kind = element[0].upper()
            if kind == "R":
                raw_resistors.append((element, node_a, node_b, value))
            elif kind == "V":
                raw_vsources.append((element, node_a, node_b, value))
            elif kind == "I":
                raw_isources.append((element, node_a, node_b, value))
            else:
                raise NetlistFormatError(f"line {line_no}: unsupported element {element!r}")

        if not vdd_from_comment and raw_vsources:
            positive = [value for _, _, _, value in raw_vsources if value > 0]
            if positive:
                vdd = max(positive)

        network = PowerGridNetwork(name=name, vdd=vdd)

        def ensure_node(node: str) -> None:
            if node == GROUND_NODE or node in network:
                return
            parsed = parse_node_name(node)
            if parsed is None:
                network.add_node(GridNode(name=node, x=0.0, y=0.0, layer="M?"))
            else:
                layer_index, x, y = parsed
                network.add_node(GridNode(name=node, x=x, y=y, layer=f"M{layer_index}"))

        for element, node_a, node_b, value in raw_resistors:
            ensure_node(node_a)
            ensure_node(node_b)
            network.add_resistor(
                Resistor(name=element, node_a=node_a, node_b=node_b, resistance=value)
            )
        for element, node_a, node_b, value in raw_vsources:
            node = node_a if node_b == GROUND_NODE else node_b
            ensure_node(node)
            network.add_voltage_source(VoltageSource(name=element, node=node, voltage=value))
        for element, node_a, node_b, value in raw_isources:
            node = node_a if node_b == GROUND_NODE else node_b
            ensure_node(node)
            network.add_current_source(CurrentSource(name=element, node=node, current=abs(value)))
        return network


def write_netlist(network: PowerGridNetwork, path: str | Path) -> Path:
    """Convenience wrapper: write ``network`` to ``path`` in SPICE format."""
    return NetlistWriter().write_file(network, path)


def read_netlist(path: str | Path, default_vdd: float = 1.0) -> PowerGridNetwork:
    """Convenience wrapper: read a SPICE power-grid netlist from ``path``."""
    return NetlistReader(default_vdd=default_vdd).read_file(path)
