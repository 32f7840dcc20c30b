"""In-memory model of a power-grid network.

:class:`PowerGridNetwork` is the object-level model of a grid: it owns the
grid nodes, the resistive branches, the supply pads (voltage sources) and
the workload current loads, keyed by name.  Netlist export, the dense test
oracle and any code that edits a grid work on these objects; analysis works
on the array form, :class:`~repro.grid.compiled.CompiledGrid`.

A network is either built element by element (``add_*`` calls, as the
netlist parser does) or is a *view* over an array-built compiled grid
(:meth:`PowerGridNetwork.from_compiled`, which is what
:meth:`~repro.grid.builder.GridBuilder.build` returns).  A view's
:meth:`~PowerGridNetwork.compile` hands its compiled grid back at once; its
element objects are created from the arrays the first time anything asks
for them, and from then on it behaves like any other network.

The statistics exposed by :meth:`PowerGridNetwork.statistics` intentionally
mirror Table II of the paper (``#n``, ``#r``, ``#v``, ``#i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .compiled import CompiledGrid
from .elements import GROUND_NODE, CurrentSource, GridNode, Resistor, VoltageSource


@dataclass(frozen=True)
class GridStatistics:
    """Size statistics of a power grid, mirroring Table II of the paper.

    Attributes:
        num_nodes: Total number of grid nodes (``#n``).
        num_resistors: Total number of resistive branches (``#r``).
        num_sources: Total number of supply voltage sources (``#v``).
        num_loads: Total number of workload current sources (``#i``).
    """

    num_nodes: int
    num_resistors: int
    num_sources: int
    num_loads: int

    def as_row(self) -> tuple[int, int, int, int]:
        """Return the statistics as the ``(#n, #r, #v, #i)`` tuple."""
        return (self.num_nodes, self.num_resistors, self.num_sources, self.num_loads)


class PowerGridNetwork:
    """A flat resistive power-grid network.

    The network is a container of :class:`~repro.grid.elements.GridNode`,
    :class:`~repro.grid.elements.Resistor`,
    :class:`~repro.grid.elements.VoltageSource` and
    :class:`~repro.grid.elements.CurrentSource` objects.  Element names are
    unique within their element class; node names are unique overall.  The
    ground node ``"0"`` is implicit and never stored.

    Args:
        name: Human-readable name of the grid (benchmark name).
        vdd: Nominal supply voltage the grid is designed for, in volts.
    """

    def __init__(self, name: str = "grid", vdd: float = 1.0) -> None:
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        self.name = name
        self.vdd = vdd
        self._nodes: dict[str, GridNode] = {}
        self._resistors: dict[str, Resistor] = {}
        self._voltage_sources: dict[str, VoltageSource] = {}
        self._current_sources: dict[str, CurrentSource] = {}
        self._node_index: dict[str, int] | None = None
        self._compiled: "CompiledGrid | None" = None
        # True while the elements exist only as the arrays of _compiled.
        self._lazy = False

    @classmethod
    def from_compiled(cls, compiled: CompiledGrid) -> "PowerGridNetwork":
        """Return a view over ``compiled`` that creates no element objects yet.

        :meth:`compile` returns ``compiled`` itself.  The node, resistor,
        pad and load objects are created from its arrays the first time
        anything asks for them — an element mapping, an ``iter_*``
        iterator, an ``add_*`` call, :meth:`copy` or :meth:`statistics` —
        and from then on the view behaves like a network built element by
        element: an ``add_*`` call drops the compiled form.
        """
        network = cls(name=compiled.name, vdd=compiled.vdd)
        network._compiled = compiled
        network._lazy = True
        return network

    def _materialise(self) -> None:
        """Create a view's element objects from its compiled arrays, once."""
        if not self._lazy:
            return
        grid = self._compiled
        names = grid.node_names
        self._nodes = {
            name: GridNode(name=name, x=x, y=y, layer=layer)
            for name, x, y, layer in zip(
                names, grid.node_x.tolist(), grid.node_y.tolist(), grid.node_layers, strict=True
            )
        }
        self._resistors = {resistor.name: resistor for resistor in grid.resistors}
        self._voltage_sources = {
            name: VoltageSource(name=name, node=names[node], voltage=voltage)
            for name, node, voltage in zip(
                grid.pad_names, grid.pad_node.tolist(), grid.pad_voltage_values.tolist(),
                strict=True,
            )
        }
        self._current_sources = {
            name: CurrentSource(name=name, node=names[node], current=current, block=block)
            for name, node, current, block in zip(
                grid.load_names, grid.load_node.tolist(), grid.load_current.tolist(),
                grid.load_block, strict=True,
            )
        }
        self._lazy = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: GridNode) -> GridNode:
        """Add a node to the grid.

        Adding a node with a name that already exists returns the existing
        node unchanged (idempotent), but adding a different node under an
        existing name raises.

        Raises:
            ValueError: If a different node is already registered under the
                same name.
        """
        existing = self.nodes.get(node.name)
        if existing is not None:
            if existing != node:
                raise ValueError(f"node {node.name!r} already exists with different attributes")
            return existing
        self._nodes[node.name] = node
        self._node_index = None
        self._compiled = None
        return node

    def add_resistor(self, resistor: Resistor) -> Resistor:
        """Add a resistive branch.

        Both terminals must be existing nodes or the ground node.

        Raises:
            ValueError: If the name is already used or a terminal is unknown.
        """
        if resistor.name in self.resistors:
            raise ValueError(f"resistor {resistor.name!r} already exists")
        self._require_node(resistor.node_a)
        self._require_node(resistor.node_b)
        self._resistors[resistor.name] = resistor
        self._compiled = None
        return resistor

    def add_voltage_source(self, source: VoltageSource) -> VoltageSource:
        """Add a supply pad (voltage source to ground).

        Raises:
            ValueError: If the name is already used or the node is unknown.
        """
        if source.name in self.voltage_sources:
            raise ValueError(f"voltage source {source.name!r} already exists")
        self._require_node(source.node)
        self._voltage_sources[source.name] = source
        self._compiled = None
        return source

    def add_current_source(self, source: CurrentSource) -> CurrentSource:
        """Add a workload current source (load).

        Raises:
            ValueError: If the name is already used or the node is unknown.
        """
        if source.name in self.current_sources:
            raise ValueError(f"current source {source.name!r} already exists")
        self._require_node(source.node)
        self._current_sources[source.name] = source
        self._compiled = None
        return source

    def _require_node(self, name: str) -> None:
        if name != GROUND_NODE and name not in self.nodes:
            raise ValueError(f"unknown node {name!r}")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    # Every read of the element dicts goes through these four properties,
    # so a view creates its element objects on first use.
    @property
    def nodes(self) -> dict[str, GridNode]:
        """Mapping of node name to node (excluding the implicit ground)."""
        self._materialise()
        return self._nodes

    @property
    def resistors(self) -> dict[str, Resistor]:
        """Mapping of resistor name to resistor."""
        self._materialise()
        return self._resistors

    @property
    def voltage_sources(self) -> dict[str, VoltageSource]:
        """Mapping of voltage-source name to voltage source."""
        self._materialise()
        return self._voltage_sources

    @property
    def current_sources(self) -> dict[str, CurrentSource]:
        """Mapping of current-source name to current source."""
        self._materialise()
        return self._current_sources

    def node(self, name: str) -> GridNode:
        """Return the node called ``name``.

        Raises:
            KeyError: If the node does not exist.
        """
        return self.nodes[name]

    def __contains__(self, node_name: str) -> bool:
        return node_name in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def iter_resistors(self) -> Iterator[Resistor]:
        """Iterate over the resistive branches in insertion order."""
        return iter(self.resistors.values())

    def iter_loads(self) -> Iterator[CurrentSource]:
        """Iterate over the workload current sources in insertion order."""
        return iter(self.current_sources.values())

    def iter_pads(self) -> Iterator[VoltageSource]:
        """Iterate over the supply pads in insertion order."""
        return iter(self.voltage_sources.values())

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def node_index(self) -> dict[str, int]:
        """Return a stable node-name -> dense index mapping.

        The mapping is cached and invalidated when nodes are added.  The
        ground node is not part of the mapping.
        """
        if self._node_index is None:
            self._node_index = {name: i for i, name in enumerate(self.nodes)}
        return self._node_index

    def compile(self) -> CompiledGrid:
        """Return the array-backed :class:`CompiledGrid` form of this network.

        The compiled form is cached and invalidated whenever an element is
        added, so repeated analyses of an unchanged network compile once.
        A view returns the compiled grid it was made over.
        """
        if self._compiled is None:
            self._compiled = CompiledGrid(self)
        return self._compiled

    def statistics(self) -> GridStatistics:
        """Return the Table II-style size statistics of the grid."""
        return GridStatistics(
            num_nodes=len(self.nodes),
            num_resistors=len(self.resistors),
            num_sources=len(self.voltage_sources),
            num_loads=len(self.current_sources),
        )

    def total_load_current(self) -> float:
        """Return the total workload current drawn from the grid, in amperes."""
        return sum(source.current for source in self.iter_loads())

    def pad_nodes(self) -> set[str]:
        """Return the set of node names that carry a supply pad."""
        return {source.node for source in self.iter_pads()}

    def load_by_node(self) -> dict[str, float]:
        """Return the total load current attached to each node."""
        loads: dict[str, float] = {}
        for source in self.iter_loads():
            loads[source.node] = loads.get(source.node, 0.0) + source.current
        return loads

    def lines(self) -> dict[int, list[Resistor]]:
        """Group wire-segment resistors by their power-grid line id.

        Vias and resistors without a line id (``line_id == -1``) are not
        included.
        """
        groups: dict[int, list[Resistor]] = {}
        for resistor in self.iter_resistors():
            if resistor.line_id < 0:
                continue
            groups.setdefault(resistor.line_id, []).append(resistor)
        return groups

    def is_connected_to_pads(self) -> bool:
        """Check that every node can reach at least one supply pad.

        The graph has one vertex per node and per resistor endpoint (so
        ground joins it when a resistor names it) and one edge per
        resistor.  This is stricter than what analysis needs: a node that
        reaches neither a pad nor ground makes the conductance matrix
        singular, and the analysis engine rejects such grids through
        :meth:`~repro.grid.compiled.CompiledGrid.require_connected`, which
        also accepts a resistive path to ground.  This pad-only check is a
        convenience for builders and tests; no analysis path calls it.
        """
        pads = self.pad_nodes()
        if not pads:
            return False
        # Deferred, as in CompiledGrid.floating_nodes: importing csgraph at
        # module level measurably slowed every interpreter's start-up.
        from scipy.sparse.csgraph import connected_components

        vertex = dict(self.node_index())
        ends = np.array(
            [
                vertex.setdefault(name, len(vertex))
                for resistor in self.iter_resistors()
                for name in (resistor.node_a, resistor.node_b)
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        graph = sp.coo_matrix(
            (np.ones(len(ends), dtype=np.int8), (ends[:, 0], ends[:, 1])),
            shape=(len(vertex), len(vertex)),
        )
        _, labels = connected_components(graph, directed=False)
        fed = [labels[vertex[pad]] for pad in pads if pad in vertex]
        return bool(np.isin(labels[: len(self.nodes)], fed).all())

    # ------------------------------------------------------------------
    # Copying / modification helpers
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "PowerGridNetwork":
        """Return a shallow copy of the grid (elements are immutable)."""
        clone = PowerGridNetwork(name=name or self.name, vdd=self.vdd)
        clone._nodes = dict(self.nodes)
        clone._resistors = dict(self.resistors)
        clone._voltage_sources = dict(self.voltage_sources)
        clone._current_sources = dict(self.current_sources)
        # Callers (with_scaled_loads, replace_loads, NetworkPerturbator)
        # overwrite the element dicts wholesale after copying, bypassing the
        # add_* invalidation hooks — reset the derived caches explicitly so
        # the clone can never serve a stale compiled form.
        clone._node_index = None
        clone._compiled = None
        return clone

    def with_scaled_loads(self, factor: float, name: str | None = None) -> "PowerGridNetwork":
        """Return a copy of the grid with every load current scaled by ``factor``."""
        clone = self.copy(name=name)
        clone._current_sources = {
            src_name: source.scaled(factor)
            for src_name, source in self.current_sources.items()
        }
        return clone

    def replace_loads(
        self, loads: Iterable[CurrentSource], name: str | None = None
    ) -> "PowerGridNetwork":
        """Return a copy of the grid with its loads replaced by ``loads``."""
        clone = self.copy(name=name)
        clone._current_sources = {}
        for source in loads:
            clone.add_current_source(source)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.statistics()
        return (
            f"PowerGridNetwork(name={self.name!r}, nodes={stats.num_nodes}, "
            f"resistors={stats.num_resistors}, sources={stats.num_sources}, "
            f"loads={stats.num_loads})"
        )
