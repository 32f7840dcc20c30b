"""Array-backed, analysis-ready representation of a power grid.

:class:`PowerGridNetwork` is the object-level model: every element lives in
a string-keyed dict and refers to its terminals by node name.  That is
convenient to edit and to export but slow to analyse.

:class:`CompiledGrid` is the analysis-side counterpart: integer-indexed
arrays (resistor endpoints, branch conductances, pad mask, load incidence)
from which the reduced nodal system is assembled with vectorised COO→CSR
operations.  A compiled grid is created in one of three ways:

* :meth:`CompiledGrid.from_arrays` — the mesh builder's form:
  :meth:`~repro.grid.builder.GridBuilder.build_compiled` assembles every
  mesh grid straight from the floorplan with vectorised NumPy operations,
  and :meth:`~repro.grid.builder.GridBuilder.build` returns a network view
  over that grid, whose :meth:`~PowerGridNetwork.compile` hands it back;
* :func:`compile_grid` / ``CompiledGrid(network)`` — a single pass over an
  object-level network: a parsed netlist, a hand-built network, or a view
  whose elements were edited;
* :meth:`CompiledGrid.with_conductances` — a value-only update that reuses
  the frozen topology, index maps and COO→CSR sparsity pattern of an
  existing compiled grid, which is what lets a planner resize iteration
  skip the full rebuild-and-recompile round trip.

The compiled form also exposes a **topology fingerprint** that identifies
the reduced conductance matrix: two grids with the same fingerprint share
the same matrix (pad voltages and load currents only enter the right-hand
side), which is what lets
:class:`~repro.analysis.engine.BatchedAnalysisEngine` reuse one sparse
factorization across thousands of load scenarios.

Name-keyed views (node names and layers, :class:`Resistor` objects, source
names) are materialised lazily: array-built grids only pay for them when a
consumer — netlist export, EM violation reporting, result dictionaries, a
network view's element objects — actually asks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .elements import GROUND_NODE, Resistor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import PowerGridNetwork

_GROUND_INDEX = -1
"""Endpoint index used for the implicit ground node."""

_VALUE_DEPENDENT_STATE = frozenset(
    {
        "conductance",
        "res_width",
        "_res_resistance",
        "_resistors_eager",
        # cached_property results that depend on the conductance values:
        "reduced_matrix",
        "pad_rhs",
        "pad_incidence",
        "fingerprint",
        "resistors",
    }
)
"""Attributes :meth:`CompiledGrid.with_conductances` must not share."""


@dataclass(frozen=True)
class _SparsityPattern:
    """Frozen COO→CSR mapping of the reduced-matrix stamps.

    Computed once per grid topology and shared across every
    :meth:`CompiledGrid.with_conductances` clone: ``rank[s]`` is the CSR
    data position of stamp ``s``, so a conductance update refreshes the
    matrix with one ``bincount`` instead of a full COO→CSR conversion.
    """

    size: int
    nnz: int
    indptr: np.ndarray
    indices: np.ndarray
    rank: np.ndarray

    @classmethod
    def build(cls, rows: np.ndarray, cols: np.ndarray, size: int) -> "_SparsityPattern":
        if rows.size == 0:
            return cls(
                size=size,
                nnz=0,
                indptr=np.zeros(size + 1, dtype=np.int64),
                indices=np.zeros(0, dtype=np.int64),
                rank=np.zeros(0, dtype=np.int64),
            )
        order = np.lexsort((cols, rows))
        sorted_rows = rows[order]
        sorted_cols = cols[order]
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        first[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (sorted_cols[1:] != sorted_cols[:-1])
        group = np.cumsum(first) - 1
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = group
        nnz = int(group[-1]) + 1
        counts = np.bincount(sorted_rows[first], minlength=size)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(size=size, nnz=nnz, indptr=indptr, indices=sorted_cols[first], rank=rank)

    def assemble(self, data: np.ndarray) -> sp.csr_matrix:
        """Sum duplicate stamps into CSR data positions and wrap as CSR."""
        values = np.bincount(self.rank, weights=data, minlength=self.nnz)
        return sp.csr_matrix(
            (values, self.indices, self.indptr), shape=(self.size, self.size)
        )


class CompiledGrid:
    """Array-backed, analysis-ready form of a power grid.

    Instances are treated as immutable: all arrays are derived once and
    never written to afterwards (:meth:`with_conductances` returns a new
    instance sharing the frozen topology).

    Attributes:
        name: Name of the source network.
        vdd: Nominal supply voltage of the source network.
        node_x: Per-node X coordinate in um (0 when unknown).
        node_y: Per-node Y coordinate in um.
        res_a: Resistor first-endpoint node indices (``-1`` for ground).
        res_b: Resistor second-endpoint node indices (``-1`` for ground).
        conductance: Per-resistor branch conductance in siemens.
        res_width: Per-resistor drawn width in um (0 for vias).
        res_length: Per-resistor segment length in um (0 for vias).
        res_line_id: Per-resistor power-grid line id (-1 for vias).
        is_pad: Boolean mask over nodes marking supply-pad nodes.
        unknown_sel: Indices of the unknown (non-pad) nodes, in
            reduced-system order.
        unknown_index: Per-node row of the reduced system (``-1`` for pad
            nodes); the inverse of ``unknown_sel``.
        pad_sel: Indices of the pad nodes, in node order.
        pad_voltage: Per-node pad voltage (0 for non-pad nodes).  When
            several pads share a node, the last added pad wins.
        pad_node: Per-pad node index, in insertion order.
        pad_voltage_values: Per-pad voltage, aligned with ``pad_node``.
        base_loads: Per-node total load current in amperes.
        load_node: Per-current-source node index, in insertion order.
        load_current: Per-current-source nominal current, aligned with
            ``load_node``.
        load_block: Per-current-source functional-block name ("" when the
            source is not tied to a block).
    """

    def __init__(self, network: "PowerGridNetwork") -> None:
        self.name = network.name
        self.vdd = network.vdd
        names = tuple(network.nodes)
        self._node_names_eager: tuple[str, ...] | None = names
        self._node_layer_index: np.ndarray | None = None
        index = {name: i for i, name in enumerate(names)}
        self.__dict__["node_index"] = index
        n = len(names)
        nodes = network.nodes
        self.node_x = np.fromiter((nodes[name].x for name in names), dtype=float, count=n)
        self.node_y = np.fromiter((nodes[name].y for name in names), dtype=float, count=n)
        self.__dict__["node_layers"] = tuple(nodes[name].layer for name in names)

        resistors = tuple(network.iter_resistors())
        self._resistors_eager: tuple[Resistor, ...] | None = resistors
        self._res_resistance: np.ndarray | None = None
        self._res_layer_codes: np.ndarray | None = None
        self._res_layer_names: tuple[str, ...] = ()
        m = len(resistors)
        self.res_a = np.fromiter(
            (index.get(r.node_a, _GROUND_INDEX) for r in resistors), dtype=np.int64, count=m
        )
        self.res_b = np.fromiter(
            (index.get(r.node_b, _GROUND_INDEX) for r in resistors), dtype=np.int64, count=m
        )
        self.conductance = np.fromiter(
            (1.0 / r.resistance for r in resistors), dtype=float, count=m
        )
        self.res_width = np.fromiter((r.width for r in resistors), dtype=float, count=m)
        self.res_length = np.fromiter((r.length for r in resistors), dtype=float, count=m)
        self.res_line_id = np.fromiter((r.line_id for r in resistors), dtype=np.int64, count=m)

        pads = tuple(network.iter_pads())
        self._pad_names_eager: tuple[str, ...] | None = tuple(pad.name for pad in pads)
        self.pad_node = np.fromiter(
            (index[pad.node] for pad in pads), dtype=np.int64, count=len(pads)
        )
        self.pad_voltage_values = np.fromiter(
            (pad.voltage for pad in pads), dtype=float, count=len(pads)
        )

        sources = tuple(network.iter_loads())
        self._load_names_eager: tuple[str, ...] | None = tuple(s.name for s in sources)
        self.load_block: tuple[str, ...] = tuple(s.block for s in sources)
        self.load_node = np.fromiter(
            (index[s.node] for s in sources), dtype=np.int64, count=len(sources)
        )
        self.load_current = np.fromiter(
            (s.current for s in sources), dtype=float, count=len(sources)
        )

        # Network-built grids keep the legacy scipy COO→CSR assembly for the
        # first matrix; array-built grids and conductance-update clones use
        # the shared sparsity pattern.
        self._use_pattern_assembly = False
        self._finalize(n)

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        *,
        name: str,
        vdd: float,
        num_nodes: int,
        node_x: np.ndarray,
        node_y: np.ndarray,
        node_layer_index: np.ndarray | None,
        node_layer_names: tuple[str, ...] = (),
        res_a: np.ndarray,
        res_b: np.ndarray,
        conductance: np.ndarray,
        res_resistance: np.ndarray | None = None,
        res_width: np.ndarray,
        res_length: np.ndarray,
        res_line_id: np.ndarray,
        res_layer_codes: np.ndarray | None = None,
        res_layer_names: tuple[str, ...] = (),
        pad_node: np.ndarray,
        pad_voltage_values: np.ndarray,
        load_node: np.ndarray,
        load_current: np.ndarray,
        load_block: tuple[str, ...] = (),
    ) -> "CompiledGrid":
        """Build a compiled grid directly from arrays (no object graph).

        All name-keyed views (node names and layers, resistor objects,
        source names) are synthesised lazily on first access;
        ``node_layer_index`` (1 for the lower layer, 2 for the upper)
        drives the IBM-style node-name synthesis, ``node_layer_names[k - 1]``
        names layer ``k``, and both may be omitted when names are never
        needed.  ``res_resistance``, when given, is what :attr:`resistors`
        reports instead of ``1 / conductance``, so the resistances the
        builder computed survive exactly; :meth:`with_conductances`
        clones do not inherit it.
        """
        self = object.__new__(cls)
        self.name = name
        self.vdd = float(vdd)
        self._node_names_eager = None
        self._node_layer_index = node_layer_index
        self._node_layer_names = node_layer_names
        self.node_x = np.asarray(node_x, dtype=float)
        self.node_y = np.asarray(node_y, dtype=float)
        self._resistors_eager = None
        self._res_layer_codes = res_layer_codes
        self._res_layer_names = res_layer_names
        self.res_a = np.asarray(res_a, dtype=np.int64)
        self.res_b = np.asarray(res_b, dtype=np.int64)
        self.conductance = np.asarray(conductance, dtype=float)
        self._res_resistance = res_resistance
        self.res_width = np.asarray(res_width, dtype=float)
        self.res_length = np.asarray(res_length, dtype=float)
        self.res_line_id = np.asarray(res_line_id, dtype=np.int64)
        self._pad_names_eager = None
        self.pad_node = np.asarray(pad_node, dtype=np.int64)
        self.pad_voltage_values = np.asarray(pad_voltage_values, dtype=float)
        self._load_names_eager = None
        self.load_block = load_block
        self.load_node = np.asarray(load_node, dtype=np.int64)
        self.load_current = np.asarray(load_current, dtype=float)
        self._use_pattern_assembly = True
        self._finalize(num_nodes)
        return self

    def with_conductances(
        self, conductance: np.ndarray, res_width: np.ndarray | None = None
    ) -> "CompiledGrid":
        """Return a copy with new branch conductances on the same topology.

        The clone shares every frozen topology structure — endpoint arrays,
        index maps, branch classification, the COO→CSR sparsity pattern and
        the topology part of the fingerprint — so only the value-dependent
        pieces (matrix data, pad RHS, fingerprint digest) are recomputed.
        This is the planner's resize fast path: a width change becomes a
        pure array update instead of a network rebuild plus full recompile.
        The clone keeps no reference to its parent, so clone chains do not
        pin their ancestors in memory.

        Args:
            conductance: New per-resistor conductances in siemens.
            res_width: Optional new per-resistor drawn widths (used by the
                EM checker); the previous widths are kept when omitted.

        Raises:
            ValueError: On shape mismatch or non-positive conductances.
        """
        conductance = np.asarray(conductance, dtype=float)
        if conductance.shape != (self.num_resistors,):
            raise ValueError(
                f"expected {self.num_resistors} conductances, got shape {conductance.shape}"
            )
        if np.any(conductance <= 0):
            raise ValueError("all branch conductances must be positive")
        if res_width is not None:
            res_width = np.asarray(res_width, dtype=float)
            if res_width.shape != (self.num_resistors,):
                raise ValueError(
                    f"expected {self.num_resistors} widths, got shape {res_width.shape}"
                )
        # Network-built grids carry layer information only inside their
        # eager Resistor tuple; snapshot the shareable name/layer views once
        # so clones can still materialise resistors lazily.
        if self._res_layer_codes is None and self._resistors_eager is not None:
            self.res_names
            self.res_layers
        self._topology_digest  # ensure the shared prefix digest exists
        clone = object.__new__(CompiledGrid)
        clone.__dict__.update(
            {k: v for k, v in self.__dict__.items() if k not in _VALUE_DEPENDENT_STATE}
        )
        clone.conductance = conductance
        clone.res_width = self.res_width if res_width is None else res_width
        clone._resistors_eager = None
        clone._res_resistance = None
        clone._use_pattern_assembly = True
        return clone

    # ------------------------------------------------------------------
    # Shared finalisation (reduced-system bookkeeping)
    # ------------------------------------------------------------------
    def _finalize(self, num_nodes: int) -> None:
        n = num_nodes
        self._num_nodes = n
        self.is_pad = np.zeros(n, dtype=bool)
        self.pad_voltage = np.zeros(n, dtype=float)
        if self.pad_node.size:
            self.is_pad[self.pad_node] = True
            # Several pads on one node: the last added pad sets its
            # voltage (fancy assignment resolves duplicates last-wins).
            self.pad_voltage[self.pad_node] = self.pad_voltage_values

        self.base_loads = (
            np.bincount(self.load_node, weights=self.load_current, minlength=n)
            if self.load_node.size
            else np.zeros(n, dtype=float)
        )

        # Unknown (non-pad) nodes keep their relative insertion order, so
        # the reduced system's row order is the network's node order.
        self.unknown_sel = np.flatnonzero(~self.is_pad)
        self.unknown_index = np.full(n, _GROUND_INDEX, dtype=np.int64)
        self.unknown_index[self.unknown_sel] = np.arange(len(self.unknown_sel))
        self.pad_sel = np.flatnonzero(self.is_pad)
        # Column of every node in the [unknowns | pad nodes] layout (the
        # pad part numbers pad_incidence's columns), and the pad-matrix
        # column feeding each pad node (last wins, like pad_voltage above).
        self._node_column = np.empty(n, dtype=np.int64)
        self._node_column[self.unknown_sel] = np.arange(len(self.unknown_sel))
        self._node_column[self.pad_sel] = len(self.unknown_sel) + np.arange(len(self.pad_sel))
        pad_of_node = np.zeros(n, dtype=np.int64)
        pad_of_node[self.pad_node] = np.arange(len(self.pad_node))
        self._pad_sel_column = pad_of_node[self.pad_sel]
        self._classify_branches()
        self._pattern_box: list[_SparsityPattern | None] = [None]
        self._floating_box: list[np.ndarray | None] = [None]

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of grid nodes (excluding the implicit ground)."""
        return self._num_nodes

    @property
    def num_resistors(self) -> int:
        """Number of resistive branches."""
        return len(self.res_a)

    @property
    def num_unknowns(self) -> int:
        """Number of unknown (non-pad) node voltages in the reduced system."""
        return len(self.unknown_sel)

    # ------------------------------------------------------------------
    # Lazily materialised name-keyed views
    # ------------------------------------------------------------------
    @cached_property
    def node_names(self) -> tuple[str, ...]:
        """All node names in insertion order (synthesised when array-built).

        An array-built grid's names are :func:`~repro.grid.netlist.node_name`
        strings.  A mesh has only ``num_vertical + num_horizontal``
        distinct coordinates, so each distinct x and y is formatted once
        and the names are joined from those strings.
        """
        if self._node_names_eager is not None:
            return self._node_names_eager
        if self._node_layer_index is None:
            return tuple(f"n{i}" for i in range(self.num_nodes))
        from .netlist import format_coordinate  # deferred: netlist imports network

        xs, x_of_node = np.unique(self.node_x, return_inverse=True)
        ys, y_of_node = np.unique(self.node_y, return_inverse=True)
        x_text = [format_coordinate(x) for x in xs.tolist()]
        y_text = [format_coordinate(y) for y in ys.tolist()]
        return tuple(
            f"n{layer}_{x_text[i]}_{y_text[j]}"
            for layer, i, j in zip(
                self._node_layer_index.tolist(), x_of_node.tolist(), y_of_node.tolist()
            )
        )

    @cached_property
    def node_layers(self) -> tuple[str, ...]:
        """Per-node layer names ("" when an array-built grid has none)."""
        if self._node_layer_index is None:
            return ("",) * self.num_nodes
        names = self._node_layer_names
        return tuple(names[index - 1] for index in self._node_layer_index.tolist())

    @cached_property
    def node_index(self) -> dict[str, int]:
        """Node-name → array-index mapping."""
        return {name: i for i, name in enumerate(self.node_names)}

    @cached_property
    def unknown_nodes(self) -> tuple[str, ...]:
        """Names of the unknown nodes, in reduced-system row order."""
        names = self.node_names
        return tuple(names[i] for i in self.unknown_sel)

    @cached_property
    def res_names(self) -> tuple[str, ...]:
        """Per-resistor element names (``R1``, ``R2``, ... when synthesised)."""
        if self._resistors_eager is not None:
            return tuple(r.name for r in self._resistors_eager)
        return tuple(f"R{i + 1}" for i in range(self.num_resistors))

    @cached_property
    def res_layers(self) -> tuple[str, ...]:
        """Per-resistor layer names."""
        if self._resistors_eager is not None:
            return tuple(r.layer for r in self._resistors_eager)
        if self._res_layer_codes is None:
            return ("",) * self.num_resistors
        names = self._res_layer_names
        return tuple(names[code] for code in self._res_layer_codes)

    @cached_property
    def resistors(self) -> tuple[Resistor, ...]:
        """The resistive branches as :class:`Resistor` objects.

        Array-built grids materialise the objects on first access; the hot
        analysis paths never touch them.  Their resistances are the
        builder's own when it supplied them, else ``1 / conductance``.
        """
        if self._resistors_eager is not None:
            return self._resistors_eager
        resistance = self._res_resistance
        if resistance is None:
            resistance = 1.0 / self.conductance
        # _GROUND_INDEX is -1, so the appended name serves ground endpoints.
        node_names = self.node_names + (GROUND_NODE,)
        return tuple(
            Resistor(name, node_names[a], node_names[b], r, layer, width, length, line_id)
            for name, a, b, r, layer, width, length, line_id in zip(
                self.res_names,
                self.res_a.tolist(),
                self.res_b.tolist(),
                resistance.tolist(),
                self.res_layers,
                self.res_width.tolist(),
                self.res_length.tolist(),
                self.res_line_id.tolist(),
                strict=True,
            )
        )

    @cached_property
    def pad_names(self) -> tuple[str, ...]:
        """Per-pad element names (``V1``, ``V2``, ... when synthesised)."""
        if self._pad_names_eager is not None:
            return self._pad_names_eager
        return tuple(f"V{i + 1}" for i in range(len(self.pad_node)))

    @cached_property
    def load_names(self) -> tuple[str, ...]:
        """Per-source element names (``I1``, ``I2``, ... when synthesised)."""
        if self._load_names_eager is not None:
            return self._load_names_eager
        return tuple(f"I{i + 1}" for i in range(len(self.load_node)))

    # ------------------------------------------------------------------
    # Branch classification (done once per topology)
    # ------------------------------------------------------------------
    def _classify_branches(self) -> None:
        a, b = self.res_a, self.res_b
        a_ground = a == _GROUND_INDEX
        b_ground = b == _GROUND_INDEX
        a_safe = np.where(a_ground, 0, a)
        b_safe = np.where(b_ground, 0, b)
        self._res_a_ground, self._res_b_ground = a_ground, b_ground
        self._res_a_safe, self._res_b_safe = a_safe, b_safe
        a_pad = ~a_ground & self.is_pad[a_safe]
        b_pad = ~b_ground & self.is_pad[b_safe]
        a_free = ~a_ground & ~a_pad
        b_free = ~b_ground & ~b_pad

        one_ground = a_ground ^ b_ground
        self.ground_connected = bool(one_ground.any())

        # Ground branch whose other endpoint is a free node: diagonal only.
        ground_free = one_ground & (np.where(a_ground, b_free, a_free))
        self._gf_sel = np.flatnonzero(ground_free)
        self._gf_node = self.unknown_index[np.where(a_ground, b_safe, a_safe)[ground_free]]

        # Pad-to-free branch: diagonal on the free node plus a pad-voltage
        # contribution on the right-hand side.
        pad_free = (a_pad & b_free) | (b_pad & a_free)
        self._pf_sel = np.flatnonzero(pad_free)
        free_end = np.where(a_pad, b_safe, a_safe)[pad_free]
        pad_end = np.where(a_pad, a_safe, b_safe)[pad_free]
        self._pf_free = self.unknown_index[free_end]
        self._pf_pad = pad_end

        # Free-to-free branch: two diagonal and two off-diagonal stamps.
        free_free = a_free & b_free
        self._ff_sel = np.flatnonzero(free_free)
        self._ff_i = self.unknown_index[a_safe[free_free]]
        self._ff_j = self.unknown_index[b_safe[free_free]]

    def _stamp_coords(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.concatenate(
            (self._gf_node, self._pf_free, self._ff_i, self._ff_j, self._ff_i, self._ff_j)
        )
        cols = np.concatenate(
            (self._gf_node, self._pf_free, self._ff_i, self._ff_j, self._ff_j, self._ff_i)
        )
        return rows, cols

    def _stamp_data(self) -> np.ndarray:
        g = self.conductance
        gf_g = g[self._gf_sel]
        pf_g = g[self._pf_sel]
        ff_g = g[self._ff_sel]
        return np.concatenate((gf_g, pf_g, ff_g, ff_g, -ff_g, -ff_g))

    # ------------------------------------------------------------------
    # Reduced system assembly
    # ------------------------------------------------------------------
    @cached_property
    def reduced_matrix(self) -> sp.csr_matrix:
        """Sparse SPD conductance matrix over the unknown nodes (CSR).

        Assembled fully vectorised.  Network-built grids use a one-shot
        COO→CSR conversion; array-built grids and conductance-update clones
        assemble through the shared :class:`_SparsityPattern`, so repeated
        value updates of the same topology cost one ``bincount`` each.
        """
        n = self.num_unknowns
        data = self._stamp_data()
        if not self._use_pattern_assembly:
            rows, cols = self._stamp_coords()
            matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
            matrix.sum_duplicates()
            return matrix
        pattern = self._pattern_box[0]
        if pattern is None or pattern.size != n:
            rows, cols = self._stamp_coords()
            pattern = _SparsityPattern.build(rows, cols, n)
            self._pattern_box[0] = pattern
        return pattern.assemble(data)

    @cached_property
    def pad_rhs(self) -> np.ndarray:
        """RHS contribution of the fixed pad voltages, over the unknowns."""
        rhs = np.zeros(self.num_unknowns, dtype=float)
        pf_g = self.conductance[self._pf_sel]
        np.add.at(rhs, self._pf_free, pf_g * self.pad_voltage[self._pf_pad])
        return rhs

    @cached_property
    def pad_incidence(self) -> sp.csr_matrix:
        """Sparse ``(num_unknowns, len(pad_sel))`` pad-conductance incidence.

        Column ``k`` belongs to pad node ``pad_sel[k]``.  Multiplying the
        pad-node voltages (:meth:`pad_node_voltages`) by this incidence
        yields the pad contribution to the reduced right-hand side — the
        batched generalisation of :attr:`pad_rhs`.  ``pad_sel`` is sorted,
        so each row holds its entries in node order, exactly as an
        incidence over all nodes would.
        """
        pf_g = self.conductance[self._pf_sel]
        matrix = sp.csr_matrix(
            (pf_g, (self._pf_free, self._node_column[self._pf_pad] - self.num_unknowns)),
            shape=(self.num_unknowns, len(self.pad_sel)),
        )
        matrix.sum_duplicates()
        return matrix

    def pad_rhs_matrix(self, pad_voltage_matrix: np.ndarray) -> np.ndarray:
        """Pad contribution to the RHS for many pad-voltage scenarios.

        Each column is computed on its own, so it does not depend on which
        other scenarios share the call.

        Returns:
            ``(num_unknowns, num_scenarios)`` matrix.
        """
        return self.pad_incidence @ self.pad_node_voltages(pad_voltage_matrix).T

    @cached_property
    def load_incidence(self) -> sp.csr_matrix:
        """Sparse ``(num_sources, num_nodes)`` current-source incidence.

        Multiplying a ``(k, num_sources)`` matrix of per-source currents by
        this incidence yields the ``(k, num_nodes)`` per-node load matrix —
        the bridge between per-source perturbation factors and RHS vectors.
        """
        m = len(self.load_node)
        return sp.csr_matrix(
            (np.ones(m), (np.arange(m), self.load_node)),
            shape=(m, self.num_nodes),
        )

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    @property
    def floating_nodes(self) -> np.ndarray:
        """Indices of the nodes with no resistive path to a pad or ground.

        A single such node makes the reduced matrix singular.  Found with
        one connected-components pass over the resistor graph in which the
        pads and ground are merged into one root, once per topology:
        conductances are positive, so :meth:`with_conductances` clones
        share the result.
        """
        if self._floating_box[0] is None:
            n = self.num_nodes
            root = n
            ends_a = np.where(self._res_a_ground, root, self.res_a)
            ends_b = np.where(self._res_b_ground, root, self.res_b)
            rows = np.concatenate((ends_a, self.pad_sel))
            cols = np.concatenate((ends_b, np.full(self.pad_sel.size, root)))
            graph = sp.coo_matrix(
                (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n + 1, n + 1)
            )
            # Deferred: importing csgraph with this module measurably
            # slowed every interpreter's start-up, and only this check uses it.
            from scipy.sparse.csgraph import connected_components

            _, labels = connected_components(graph, directed=False)
            self._floating_box[0] = np.flatnonzero(labels[:n] != labels[root])
        return self._floating_box[0]

    def require_connected(self) -> None:
        """Reject a grid in which some node reaches neither a pad nor ground.

        Raises:
            ValueError: Naming the grid, the number of floating nodes and
                the first of them.
        """
        floating = self.floating_nodes
        if floating.size:
            raise ValueError(
                f"grid {self.name!r} has {floating.size} node(s) with no resistive "
                f"path to a pad or ground, e.g. {self.node_names[floating[0]]!r}; "
                "the nodal system is singular"
            )

    # ------------------------------------------------------------------
    # Fingerprint
    # ------------------------------------------------------------------
    @cached_property
    def _topology_digest(self) -> "hashlib._Hash":
        """Partial digest over the value-independent fingerprint prefix.

        Shared across :meth:`with_conductances` clones, so a conductance
        update only re-hashes the value-dependent suffix.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.int64(self.num_nodes).tobytes())
        digest.update(self.res_a.tobytes())
        digest.update(self.res_b.tobytes())
        return digest

    @cached_property
    def fingerprint(self) -> str:
        """Digest identifying the reduced conductance matrix.

        Covers the node count, resistor endpoints, branch conductances and
        the pad mask — everything that shapes the matrix.  Pad *voltages*
        and load currents are deliberately excluded: they only affect the
        right-hand side, so grids differing only in those share a
        factorization.
        """
        digest = self._topology_digest.copy()
        digest.update(np.ascontiguousarray(self.conductance).tobytes())
        digest.update(np.packbits(self.is_pad).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Solution helpers
    # ------------------------------------------------------------------
    def pad_node_voltages(self, pad_voltage_matrix: np.ndarray) -> np.ndarray:
        """Per-pad voltage scenarios at the pad nodes.

        Args:
            pad_voltage_matrix: ``(num_scenarios, num_pads)`` voltages
                aligned with :attr:`pad_names`.

        Returns:
            ``(num_scenarios, len(pad_sel))`` voltages of the pad nodes in
            :attr:`pad_sel` order.  When several pads share a node, the
            last added pad sets its voltage, as in :attr:`pad_voltage`.
        """
        pad_voltage_matrix = np.asarray(pad_voltage_matrix, dtype=float)
        if pad_voltage_matrix.ndim != 2 or pad_voltage_matrix.shape[1] != len(self.pad_node):
            raise ValueError(
                f"expected pad voltage matrix of shape (k, {len(self.pad_node)}), "
                f"got {pad_voltage_matrix.shape}"
            )
        return pad_voltage_matrix[:, self._pad_sel_column]

    def voltages_dict(self, voltages: np.ndarray) -> dict[str, float]:
        """Convert a per-node voltage vector into a name-keyed mapping."""
        return {name: float(v) for name, v in zip(self.node_names, voltages)}

    def load_nodes_by_block(self) -> dict[str, np.ndarray]:
        """Node indices carrying each functional block's current sources.

        Returns:
            Mapping of block name to the (unique, sorted) node indices of
            that block's load sources.  Sources not tied to a block
            (empty block name) are omitted.
        """
        nodes: dict[str, list[int]] = {}
        for block, node in zip(self.load_block, self.load_node):
            if block:
                nodes.setdefault(block, []).append(int(node))
        return {
            block: np.unique(np.asarray(indices, dtype=np.int64))
            for block, indices in nodes.items()
        }

    def voltage_array(self, voltages: Mapping[str, float]) -> np.ndarray:
        """Convert a name-keyed voltage mapping into compiled node order."""
        return np.fromiter(
            (voltages[name] for name in self.node_names), dtype=float, count=self.num_nodes
        )

    def branch_current_array(self, voltages: np.ndarray) -> np.ndarray:
        """Vectorised Ohm's law over every branch.

        Args:
            voltages: Per-node voltages in compiled order.

        Returns:
            Signed currents flowing from ``node_a`` to ``node_b``, aligned
            with :attr:`resistors`.
        """
        v = np.asarray(voltages, dtype=float)
        va = np.where(self._res_a_ground, 0.0, v[self._res_a_safe])
        vb = np.where(self._res_b_ground, 0.0, v[self._res_b_safe])
        return (va - vb) * self.conductance

    def node_outflow(self, branch_currents: np.ndarray) -> np.ndarray:
        """Net branch current flowing out of each node, in amperes.

        Args:
            branch_currents: Signed per-branch currents (``node_a`` →
                ``node_b``), aligned with :attr:`resistors`.
        """
        branch_currents = np.asarray(branch_currents, dtype=float)
        outflow = np.zeros(self.num_nodes, dtype=float)
        a_live = ~self._res_a_ground
        b_live = ~self._res_b_ground
        np.add.at(outflow, self._res_a_safe[a_live], branch_currents[a_live])
        np.add.at(outflow, self._res_b_safe[b_live], -branch_currents[b_live])
        return outflow

    def block_factor_load_matrix(
        self, block_names: Sequence[str], factors: np.ndarray
    ) -> np.ndarray:
        """Per-node load scenarios from per-block current scale factors.

        Scenario ``i`` scales every current source belonging to block
        ``block_names[j]`` by ``factors[i, j]`` (sources without a matching
        block keep their nominal current), reproducing the loads of a grid
        rebuilt from a block-perturbed floorplan without any rebuild.

        Args:
            block_names: Block names, ordered like the factor columns.
            factors: ``(num_scenarios, len(block_names))`` scale factors.

        Returns:
            ``(num_scenarios, num_nodes)`` per-node current matrix.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.ndim != 2 or factors.shape[1] != len(block_names):
            raise ValueError(
                f"expected factors of shape (k, {len(block_names)}), got {factors.shape}"
            )
        block_index = {name: j for j, name in enumerate(block_names)}
        source_block = np.fromiter(
            (block_index.get(block, -1) for block in self.load_block),
            dtype=np.int64,
            count=len(self.load_block),
        )
        source_factors = np.ones((factors.shape[0], len(self.load_node)), dtype=float)
        matched = source_block >= 0
        source_factors[:, matched] = factors[:, source_block[matched]]
        per_source = source_factors * self.load_current
        return np.asarray(self.load_incidence.T.dot(per_source.T)).T

    def __getstate__(self) -> dict:
        """Drop the unpicklable cached hash object before pickling.

        Process-sharded sweeps ship the compiled grid to worker processes;
        everything in it is arrays and sparse matrices except the cached
        ``hashlib`` partial digest, which a clone recomputes on demand
        (the finished :attr:`fingerprint` string, if cached, travels
        along, so workers usually never re-hash).
        """
        state = self.__dict__.copy()
        state.pop("_topology_digest", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CompiledGrid(name={self.name!r}, nodes={self.num_nodes}, "
            f"resistors={self.num_resistors}, unknowns={self.num_unknowns})"
        )


def compile_grid(network: "PowerGridNetwork") -> CompiledGrid:
    """Compile ``network`` into its array-backed analysis form."""
    return CompiledGrid(network)
