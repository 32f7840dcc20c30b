"""Cached-factorization, multi-RHS power-grid analysis engine.

This is the repository's one IR-drop analysis path: the conventional
flow's analysis, the planner's analyse–resize loop, the vectorless bounds
and every sweep all solve through it.  For these workloads — perturbation
sweeps, vectorless budget bounds, planner iterations over many load
scenarios — the expensive part (the sparse factorization of the reduced
conductance matrix) depends only on the grid *topology* and branch
conductances, not on the loads or pad voltages.

:class:`BatchedAnalysisEngine` exploits that: it compiles the network once
(:class:`~repro.grid.compiled.CompiledGrid`), caches the sparse
factorization — SuperLU in symmetric mode
(:class:`~repro.analysis.solvers.SpluBackend`) — keyed on the compiled
grid's topology fingerprint, and solves arbitrarily many right-hand sides
against one factorization as multi-RHS triangular solves.  Every grid is
factored, whatever its size; one too large to factor in memory raises
:class:`~repro.analysis.solvers.LinearSolverError` naming its unknown
count.  Every entry point takes that one solve path: a single scenario
(:meth:`analyze`, :meth:`solve_voltages`) is a one-column batch,
assembled, solved and reduced exactly like each column of
:meth:`analyze_batch`.  A grid
derived by a conductance-only change
(:meth:`~repro.grid.compiled.CompiledGrid.with_conductances`, the
planner's resize step) has its own fingerprint and is factored fresh
like any other grid; only its assembly is cheaper.

Chunked and streamed sweeps run on a pluggable execution layer
(:mod:`repro.analysis.executors`), and ``executor=`` — an instance, or a
name for :func:`~repro.analysis.executors.make_executor` (``"serial"``,
``"threads"``, ``"processes"``, ``"hybrid"``, ``"remote"``) — is the one
way to choose a sweep's parallelism.  The local executor,
:class:`~repro.analysis.executors.HybridExecutor`, solves RHS chunks
concurrently on a thread pool (SuperLU's triangular solve and the large
NumPy reductions release the GIL) while the calling thread folds finished
chunks into the reductions and sinks strictly in ascending scenario order,
bitwise-identical to the serial sweep; with several shards it splits the
*scenario range* across worker processes — each with its own fold,
solving with the parent's factorization under ``fork`` — and merges the
shard results through the :class:`~repro.analysis.sinks.MergeableSink`
protocol, scaling sweeps past the GIL-bound fold.  A sweep without
``executor=`` runs serially, or on the
:data:`~repro.analysis.executors.EXECUTOR_ENV` executor when that is set.

Bad inputs fail where they enter, before any factorization or sink sees
them: a grid with no pads, or with a node that reaches neither a pad nor
ground, raises ``ValueError`` naming the grid and a floating node; a
non-finite load or pad voltage raises ``ValueError`` naming its row (or
global scenario) and its column with the node or pad; ``names`` given as
one string, or a ``num_scenarios`` that is not an integer, raises
``TypeError`` naming the argument.
"""

from __future__ import annotations

import operator
import os
import threading
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..grid.compiled import CompiledGrid
from ..grid.network import PowerGridNetwork
from .executors import (
    EXECUTOR_ENV,
    ExecutorIncompatibility,
    SweepExecutor,
    SweepPlan,
    make_executor,
)
from .irdrop import IRDropResult, result_from_voltages
from .sinks import IRDropSink, ScenarioSink
from .solvers import Factorization, LinearSolverError, SpluBackend

ScenarioSource = Callable[[int, int], tuple[np.ndarray | None, np.ndarray | None]]
"""Chunk generator for streamed sweeps.

Called with a half-open scenario range ``(begin, end)``; returns the
``(end - begin, num_nodes)`` load chunk and the ``(end - begin, num_pads)``
pad-voltage chunk for those scenarios (either may be ``None`` to use the
grid's own loads / pad voltages).  Sources must be pure functions of the
range so that resuming, re-chunking or *sharding* a sweep reproduces it
exactly — sharded executors call pickled copies of the source from their
worker processes, each over a sub-range.
"""


MIN_CHUNK_SIZE = 8
"""Smallest RHS chunk width :func:`resolve_chunk_size` will pick."""

MAX_CHUNK_SIZE = 4096
"""Largest RHS chunk width :func:`resolve_chunk_size` will pick."""

CHUNK_CACHE_BYTES = 1024 * 1024
"""Bytes of one ``(num_unknowns, chunk)`` double block the adaptive width targets."""

SOLVE_COLUMNS = 16
"""Most right-hand sides one :meth:`~repro.analysis.solvers.Factorization.solve` call takes.

SuperLU allocates two blocks the width of its right-hand side per call (a
Fortran-order copy, which becomes the solution, and ``dgstrs``' work
array).  At 16 columns they are small enough for the allocator to recycle
from one call to the next instead of handing them back to the kernel,
which faults them in afresh, and SuperLU's cost per column is already as
low as at a full chunk's width.  A block is cut at multiples of 16 from
its first row rather than into near-equal slices: on ibmpg1, ibmpg2 and
ibmpgnew1, slices that start at multiples of 4 columns reproduced a
17- to 96-column block's voltages bit for bit where slices of 1, 2, 7 or 14
columns moved them by up to 5.6e-16 V, and every suite grid's
adaptive-width sweep (ibmpg2's 28-column chunks cut 16 + 12) stays
bitwise what one call per chunk gives.
"""


def resolve_chunk_size(num_unknowns: int) -> int:
    """Adaptive RHS chunk width for streamed sweeps.

    Sizes one ``(num_unknowns, chunk)`` block of doubles to fit a core's
    cache, so the RHS assembly, the triangular solve and the drop-row
    assembly of a chunk work on cache-resident blocks instead of
    streaming from main memory:

    ``chunk = CHUNK_CACHE_BYTES // (8 * num_unknowns)``

    clamped to ``[MIN_CHUNK_SIZE, MAX_CHUNK_SIZE]``.  Every in-flight
    chunk sits in the cache of the core solving it, so the width does not
    depend on the executor's parallelism.  Each in-flight slot holds two
    such blocks for the whole sweep (the RHS rows and the node-order drop
    rows) and a one-byte-per-entry finiteness mask.  A chunk is solved in
    slices of at most :data:`SOLVE_COLUMNS` columns, so SuperLU's two
    transient blocks per call (its Fortran-order copy of the RHS, which
    becomes the solution, and its work array) are slice-sized, not
    chunk-sized; a sink that consumes raw voltages adds one more block per
    chunk.
    Streamed entry points use it whenever ``chunk_size`` is omitted.

    Args:
        num_unknowns: Unknown count of the reduced system
            (:attr:`~repro.grid.compiled.CompiledGrid.num_unknowns`).

    Returns:
        A chunk width in ``[MIN_CHUNK_SIZE, MAX_CHUNK_SIZE]``,
        non-increasing in ``num_unknowns``.
    """
    if num_unknowns < 0:
        raise ValueError("num_unknowns must be non-negative")
    chunk = CHUNK_CACHE_BYTES // (8 * max(1, num_unknowns))
    return int(min(MAX_CHUNK_SIZE, max(MIN_CHUNK_SIZE, chunk)))


def scenario_count(num_scenarios: int) -> int:
    """``num_scenarios`` as a plain ``int``, checked before a sweep starts.

    Any integer passes (NumPy's included); anything else — ``3.5``, a
    string — raises ``TypeError`` naming the argument, and a count below 1
    raises ``ValueError``.
    """
    try:
        count = operator.index(num_scenarios)
    except TypeError:
        raise TypeError(f"num_scenarios must be an integer, got {num_scenarios!r}") from None
    if count < 1:
        raise ValueError("num_scenarios must be at least 1")
    return count


@dataclass(frozen=True)
class MatrixScenarioSource:
    """Picklable :data:`ScenarioSource` slicing preassembled matrices.

    The batched entry points wrap their scenario matrices in this source
    so that sharded solves — whose workers pickle the source — read rows
    straight out of the shared arrays.

    Attributes:
        load_matrix: Optional ``(num_scenarios, num_nodes)`` loads.
        pad_voltage_matrix: Optional ``(num_scenarios, num_pads)`` pad
            voltages; at least one of the two must be given.
    """

    load_matrix: np.ndarray | None = None
    pad_voltage_matrix: np.ndarray | None = None

    def __call__(self, begin: int, end: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        return (
            None if self.load_matrix is None else self.load_matrix[begin:end],
            None if self.pad_voltage_matrix is None else self.pad_voltage_matrix[begin:end],
        )


@dataclass(frozen=True)
class CrossProductScenarioSource:
    """Picklable :data:`ScenarioSource` over a load × pad cross product.

    Scenario ``s`` combines load row ``s // num_pad_scenarios`` with pad
    row ``s % num_pad_scenarios`` (loads outer, pads inner) — the
    mega-sweep ordering.  Chunks gather their rows by index, so the
    combined scenario set is never materialised.

    The engine does not call the source per chunk: it builds the
    :class:`_CrossProductLayout` of the source once per grid and keeps it
    on the instance, where forked shard workers inherit it.  Pickles
    (spawned and remote workers) leave it behind and are rebuilt there.

    Attributes:
        load_matrix: ``(num_load_scenarios, num_nodes)`` load rows.
        pad_voltage_matrix: ``(num_pad_scenarios, num_pads)`` pad rows.
    """

    load_matrix: np.ndarray
    pad_voltage_matrix: np.ndarray

    def __call__(self, begin: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        indices = np.arange(begin, end)
        num_pad_rows = self.pad_voltage_matrix.shape[0]
        return (
            self.load_matrix[indices // num_pad_rows],
            self.pad_voltage_matrix[indices % num_pad_rows],
        )

    def _layout(self, compiled: CompiledGrid) -> "_CrossProductLayout":
        """The per-row parts of this cross product on ``compiled``, built once."""
        layout = self.__dict__.get("_cached_layout")
        if layout is None or layout.compiled is not compiled:
            layout = _CrossProductLayout(compiled, self.load_matrix, self.pad_voltage_matrix)
            # Frozen dataclass: the cache bypasses __setattr__.
            self.__dict__["_cached_layout"] = layout
        return layout

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_cached_layout", None)
        return state


def _require_finite(
    values: np.ndarray,
    row_label: str,
    compiled: CompiledGrid,
    column_kind: str,
    first: int = 0,
) -> None:
    """Reject a non-finite input entry, naming its row, column and node or pad.

    ``values`` is a ``(k, m)`` block whose row ``r`` is ``row_label``
    ``first + r`` (or one ``(m,)`` vector called ``row_label``) and whose
    column ``c`` is ``compiled``'s node ``c`` (``column_kind="node"``) or
    pad ``c`` (``"pad"``).  Names are looked up only on failure, so
    array-built grids never synthesise them for valid inputs.
    """
    finite = np.isfinite(values)
    if finite.all():
        return
    *row, column = (int(i) for i in np.argwhere(~finite)[0])
    where = f"{row_label} {first + row[0]}," if row else row_label
    names = compiled.node_names if column_kind == "node" else compiled.pad_names
    raise ValueError(
        f"{where} column {column} ({column_kind} {names[column]!r}) is "
        f"{values[(*row, column)]}; inputs must be finite"
    )


def _validate_source_chunk(
    compiled: CompiledGrid,
    load_chunk: np.ndarray | None,
    pad_chunk: np.ndarray | None,
    begin: int,
    end: int,
) -> None:
    """Reject malformed source chunks before any sink observes them.

    Errors name the offending half-open scenario range, so a bad
    generator in a 1e5-scenario sweep points at the scenarios that
    produced it instead of a shape mismatch deep inside the RHS
    assembly; a non-finite entry is named by its global scenario index,
    column and node or pad.
    """
    if load_chunk is None and pad_chunk is None:
        raise ValueError(
            f"scenario source returned neither loads nor pad voltages "
            f"for scenarios [{begin}, {end})"
        )
    for label, chunk, width in (
        ("a load chunk", load_chunk, compiled.num_nodes),
        ("a pad-voltage chunk", pad_chunk, len(compiled.pad_node)),
    ):
        if chunk is None:
            continue
        if chunk.ndim != 2:
            raise ValueError(
                f"scenario source returned {label} of shape {chunk.shape} for "
                f"scenarios [{begin}, {end}); expected ({end - begin}, {width})"
            )
        if chunk.shape[0] != end - begin:
            raise ValueError(
                f"scenario source returned {chunk.shape[0]} rows for "
                f"scenarios [{begin}, {end})"
            )
        if chunk.shape[1] != width:
            raise ValueError(
                f"scenario source returned {label} of width {chunk.shape[1]} for "
                f"scenarios [{begin}, {end}); expected {width}"
            )
    if load_chunk is not None:
        _require_finite(load_chunk, "scenario source load at scenario", compiled, "node", begin)
    if pad_chunk is not None:
        _require_finite(
            pad_chunk, "scenario source pad voltage at scenario", compiled, "pad", begin
        )


class _PairedLayout:
    """Chunk assembly for an arbitrary :data:`ScenarioSource`: one load and pad row per scenario.

    :meth:`fetch` calls the source and validates its chunk on the calling
    thread (sources need not be thread-safe); :meth:`assemble` writes the
    reduced right-hand sides into the caller's rows and may run on any
    thread.  Each row is the pad contribution
    (:attr:`~repro.grid.compiled.CompiledGrid.pad_rhs`, or
    :meth:`~repro.grid.compiled.CompiledGrid.pad_rhs_matrix` of the
    scenario's pad row) minus the scenario's loads at the unknown nodes.
    """

    def __init__(self, compiled: CompiledGrid, source: ScenarioSource) -> None:
        self.compiled = compiled
        self.source = source

    def fetch(self, begin: int, end: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        load_chunk, pad_chunk = self.source(begin, end)
        _validate_source_chunk(self.compiled, load_chunk, pad_chunk, begin, end)
        return load_chunk, pad_chunk

    def assemble(
        self, chunk: tuple[np.ndarray | None, np.ndarray | None], out: np.ndarray
    ) -> np.ndarray:
        """Fill ``out``'s ``(c, num_unknowns)`` rows; return the pad-node voltages.

        The voltages are ``(c, len(pad_sel))``, or the nominal
        ``(len(pad_sel),)`` row every scenario shares when the chunk has
        no pad voltages.
        """
        load_chunk, pad_chunk = chunk
        compiled = self.compiled
        if load_chunk is None:
            out[:] = compiled.base_loads[compiled.unknown_sel]
        else:
            np.asarray(load_chunk, dtype=float).take(
                compiled.unknown_sel, axis=1, out=out, mode="clip"
            )
        if pad_chunk is None:
            np.subtract(compiled.pad_rhs, out, out=out)
            return compiled.pad_voltage[compiled.pad_sel]
        np.subtract(compiled.pad_rhs_matrix(pad_chunk).T, out, out=out)
        return compiled.pad_node_voltages(pad_chunk)


class _CrossProductLayout:
    """A load × pad cross product split into its ``L + P`` distinct rows.

    Scenario ``(i, j)``'s reduced right-hand side is
    ``pad_incidence @ v_pad[j] − load[i][unknowns]``.  Both parts are
    computed once, per input row: :attr:`pad_part` (the sparse product of
    every pad row,
    :meth:`~repro.grid.compiled.CompiledGrid.pad_rhs_matrix`),
    :attr:`load_part` (every load row's unknown-node slice) and
    :attr:`pad_voltages` (every pad row at the pad nodes).  A
    chunk's RHS is then one gather of pad parts into the caller's rows and
    one broadcast subtract per load row the chunk spans, written
    scenario-major so each slice SuperLU copies is already Fortran-ordered.
    Every element is the same subtraction of the same operands as
    :class:`_PairedLayout` makes of the chunk's materialised rows
    (``pad_rhs_matrix`` of the pad row minus the load row's unknown-node
    slice; a CSR product's columns do not depend on which columns share
    it), so the solve sees bitwise the same rows.

    Construction checks the shapes and the finiteness of both matrices
    once, naming the first bad row and column.  :meth:`fetch` and
    :meth:`assemble` only read the parts, so they may run on any thread.
    """

    def __init__(
        self, compiled: CompiledGrid, load_matrix: np.ndarray, pad_voltage_matrix: np.ndarray
    ) -> None:
        load_matrix = np.asarray(load_matrix, dtype=float)
        if load_matrix.ndim != 2 or load_matrix.shape[1] != compiled.num_nodes:
            raise ValueError(
                f"load_matrix must be 2-D (num_load_scenarios, {compiled.num_nodes}), "
                f"got shape {load_matrix.shape}"
            )
        pad_voltage_matrix = np.asarray(pad_voltage_matrix, dtype=float)
        num_pads = len(compiled.pad_node)
        if pad_voltage_matrix.ndim != 2 or pad_voltage_matrix.shape[1] != num_pads:
            raise ValueError(
                f"pad_voltage_matrix must be 2-D (num_pad_scenarios, {num_pads}), "
                f"got shape {pad_voltage_matrix.shape}"
            )
        if load_matrix.shape[0] == 0 or pad_voltage_matrix.shape[0] == 0:
            raise ValueError("both matrices must contain at least one scenario row")
        _require_finite(load_matrix, "load_matrix row", compiled, "node")
        _require_finite(pad_voltage_matrix, "pad_voltage_matrix row", compiled, "pad")
        self.compiled = compiled
        self.num_pad_rows = pad_voltage_matrix.shape[0]
        self.num_scenarios = load_matrix.shape[0] * self.num_pad_rows
        self.pad_part = np.ascontiguousarray(compiled.pad_rhs_matrix(pad_voltage_matrix).T)
        # C-ordered, as every chunk subtracts whole rows, and gathered row by
        # row: a whole-matrix gather of a Fortran-ordered load matrix leaves
        # a matrix-sized temporary behind.
        self.load_part = np.empty((load_matrix.shape[0], compiled.num_unknowns))
        for loads, part in zip(load_matrix, self.load_part):
            loads.take(compiled.unknown_sel, out=part, mode="clip")
        self.pad_voltages = compiled.pad_node_voltages(pad_voltage_matrix)

    def fetch(self, begin: int, end: int) -> tuple[int, int]:
        if end > self.num_scenarios:
            raise ValueError(
                f"scenarios [{begin}, {end}) run past the cross product's "
                f"{self.num_scenarios} scenarios"
            )
        return begin, end

    def assemble(self, span: tuple[int, int], out: np.ndarray) -> np.ndarray:
        """Fill ``out``'s ``(c, num_unknowns)`` rows; return the pad-node voltages.

        The voltages are ``(c, len(pad_sel))``.
        """
        begin, end = span
        width = self.num_pad_rows
        pad_rows = np.arange(begin, end) % width
        self.pad_part.take(pad_rows, axis=0, out=out, mode="clip")
        for load_row in range(begin // width, (end - 1) // width + 1):
            rows = out[max(begin, load_row * width) - begin : (load_row + 1) * width - begin]
            np.subtract(rows, self.load_part[load_row], out=rows)
        return self.pad_voltages[pad_rows]


@dataclass(frozen=True)
class EngineCacheInfo:
    """Counters describing the engine's factorization cache behaviour.

    All counters survive :meth:`BatchedAnalysisEngine.clear_cache` (only
    ``entries`` drops to zero), so long-running consumers can report
    totals.

    Attributes:
        factorizations: Number of sparse factorizations performed.
        hits: Number of solves served by an already cached factorization.
        entries: Number of factorizations currently cached.
    """

    factorizations: int
    hits: int
    entries: int


def _column_reductions(ir_drop: np.ndarray) -> "BatchReductions":
    """Per-scenario worst / mean / worst-node over a ``(num_nodes, k)`` block.

    Reduces over contiguous per-scenario rows (the transposed layout) so the
    floating-point summation order per scenario is fixed no matter how many
    scenarios share the block: equal voltages give bitwise-equal
    reductions.  The voltages themselves may move in the last bit with the
    block width (SuperLU's multi-RHS solve is not width-invariant), so
    across chunk sizes the reductions agree to 1e-12 V rather than bitwise.
    """
    rows = np.ascontiguousarray(ir_drop.T)
    return BatchReductions(
        worst_ir_drop=rows.max(axis=1),
        average_ir_drop=rows.mean(axis=1),
        worst_node_index=rows.argmax(axis=1),
    )


def _chunk_slot(compiled: CompiledGrid, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One in-flight chunk's arrays, each with ``width`` scenario rows.

    The ``(width, num_unknowns)`` RHS rows (the transpose of each slice of
    rows is the Fortran-ordered block one SuperLU call solves), the
    ``(width, num_nodes)`` node-order drop rows the reductions and sinks
    read, and the ``(width, num_unknowns)`` finiteness mask, whose slices
    transposed match each slice's solution.  A chunk of ``c`` scenarios
    uses the first ``c`` rows of each.  Nothing else chunk-sized lives
    through a solve: SuperLU's own blocks are one slice wide
    (:data:`SOLVE_COLUMNS`).
    """
    return (
        np.empty((width, compiled.num_unknowns)),
        np.empty((width, compiled.num_nodes)),
        np.empty((width, compiled.num_unknowns), dtype=bool),
    )


def _feed_sinks(
    sinks: Sequence[ScenarioSink],
    voltages: np.ndarray | None,
    drop_rows: np.ndarray,
    scenario_offset: int,
) -> None:
    """Offer one solved chunk to every sink, sharing the drop rows.

    :class:`~repro.analysis.sinks.IRDropSink` subclasses take the
    precomputed contiguous ``(c, num_nodes)`` IR-drop block the engine
    already derived for its reductions — in a chunked sweep, its slot's
    buffer, rewritten for a later chunk once this call returns; other
    protocol implementations get the raw ``(num_nodes, c)`` voltage chunk,
    which the engine builds only when such a sink is attached.
    """
    for sink in sinks:
        if isinstance(sink, IRDropSink):
            sink.consume_drop_rows(drop_rows, scenario_offset)
        else:
            sink.consume(voltages, scenario_offset)


@dataclass(frozen=True)
class BatchReductions:
    """Per-scenario IR-drop reductions streamed out of a sharded solve.

    Attributes:
        worst_ir_drop: ``(num_scenarios,)`` worst IR drop per scenario.
        average_ir_drop: ``(num_scenarios,)`` mean IR drop per scenario.
        worst_node_index: ``(num_scenarios,)`` compiled node index of the
            worst-drop node per scenario.
    """

    worst_ir_drop: np.ndarray
    average_ir_drop: np.ndarray
    worst_node_index: np.ndarray


@dataclass
class BatchAnalysisResult:
    """Voltages of many load scenarios solved against one grid topology.

    The batched result intentionally keeps everything in arrays — per-node
    dictionaries are only materialised when a scenario is converted into a
    full :class:`~repro.analysis.irdrop.IRDropResult` via :meth:`result`.

    When the solve was sharded (``chunk_size`` passed to
    :meth:`BatchedAnalysisEngine.analyze_batch`), the dense
    ``(num_nodes, num_scenarios)`` voltage matrix is never materialised:
    :attr:`voltages` is ``None`` and the per-scenario reductions
    (:attr:`worst_ir_drop`, :attr:`average_ir_drop`,
    :attr:`worst_node_index`) were accumulated chunk by chunk.  They are
    bitwise-identical to the unsharded reductions.

    Attributes:
        compiled: The compiled grid all scenarios were solved on.
        voltages: ``(num_nodes, num_scenarios)`` node-voltage matrix in
            compiled node order, or ``None`` for sharded solves.
        scenario_names: One name per scenario (used for materialised
            results).
        analysis_time: Wall-clock time of the whole batched solve in
            seconds.
        factorization_reused: True if the solve was served from the engine's
            factorization cache instead of factorizing anew.
        reductions: Streamed per-scenario reductions (sharded solves only).
        sinks: The scenario sinks that observed this solve, in the order
            they were passed (empty when none were attached).
    """

    compiled: CompiledGrid
    voltages: np.ndarray | None
    scenario_names: tuple[str, ...]
    analysis_time: float
    factorization_reused: bool
    reductions: BatchReductions | None = None
    sinks: tuple[ScenarioSink, ...] = ()

    def sink_results(self) -> tuple:
        """Finished results of every attached sink, in sink order."""
        return tuple(sink.result() for sink in self.sinks)

    @property
    def num_scenarios(self) -> int:
        """Number of solved load scenarios."""
        return len(self.scenario_names)

    def _require_voltages(self) -> np.ndarray:
        if self.voltages is None:
            raise ValueError(
                "this batch was solved with RHS sharding; the dense voltage "
                "matrix was never materialised (only the streamed reductions "
                "are available)"
            )
        return self.voltages

    @cached_property
    def ir_drop(self) -> np.ndarray:
        """``(num_nodes, num_scenarios)`` IR-drop matrix ``vdd - v``.

        Raises:
            ValueError: If the batch was solved with RHS sharding.
        """
        return self.compiled.vdd - self._require_voltages()

    @cached_property
    def _reductions(self) -> BatchReductions:
        if self.reductions is not None:
            return self.reductions
        return _column_reductions(self.ir_drop)

    @property
    def worst_ir_drop(self) -> np.ndarray:
        """Worst-case IR drop of each scenario, in volts."""
        return self._reductions.worst_ir_drop

    @property
    def average_ir_drop(self) -> np.ndarray:
        """Mean IR drop of each scenario over all nodes, in volts."""
        return self._reductions.average_ir_drop

    @property
    def worst_node_index(self) -> np.ndarray:
        """Compiled node index of the worst-drop node per scenario."""
        return self._reductions.worst_node_index

    def worst_node(self, scenario: int) -> str:
        """Name of the worst-drop node of one scenario."""
        return self.compiled.node_names[int(self.worst_node_index[scenario])]

    def scenario_voltages(self, scenario: int) -> np.ndarray:
        """Per-node voltage vector of one scenario, in compiled order."""
        return self._require_voltages()[:, scenario]

    def result(self, scenario: int) -> IRDropResult:
        """Materialise one scenario as a full :class:`IRDropResult`."""
        return result_from_voltages(
            self.compiled,
            self._require_voltages()[:, scenario],
            name=self.scenario_names[scenario],
            analysis_time=self.analysis_time / max(1, self.num_scenarios),
        )

    def results(self) -> list[IRDropResult]:
        """Materialise every scenario as a full :class:`IRDropResult`."""
        return [self.result(i) for i in range(self.num_scenarios)]


@dataclass
class StreamedSweepResult:
    """Outcome of a chunk-streamed sweep that never held dense voltages.

    Streamed sweeps (:meth:`BatchedAnalysisEngine.analyze_scenario_stream`,
    :meth:`BatchedAnalysisEngine.analyze_mega_sweep`) solve scenarios in
    RHS chunks and keep only the per-scenario reductions plus whatever the
    attached :class:`~repro.analysis.sinks.ScenarioSink` objects
    accumulated — the memory high-water mark is ``O(num_nodes *
    chunk_size)`` regardless of sweep size.

    Attributes:
        compiled: The compiled grid every scenario was solved on.
        num_scenarios: Number of scenarios streamed.
        chunk_size: RHS chunk width used for the solve.
        reductions: Per-scenario worst / mean / worst-node reductions,
            bitwise-identical to an unsharded solve of the same scenarios.
        sinks: The scenario sinks that observed the sweep, in order.
        analysis_time: Wall-clock time of the whole sweep in seconds.
        factorization_reused: True if at least one chunk was served from
            a factorization cache (the engine's, or a process shard
            worker's).
        workers: Parallelism the sweep ran with — the executor's
            ``parallelism`` (``shard_workers × threads_per_shard`` for the
            local executor).  Does not affect any exact result value.
        executor: Name of the executor that drove the sweep (one of
            :data:`~repro.analysis.executors.EXECUTOR_NAMES`; ``"serial"``
            by default).
    """

    compiled: CompiledGrid
    num_scenarios: int
    chunk_size: int
    reductions: BatchReductions
    sinks: tuple[ScenarioSink, ...]
    analysis_time: float
    factorization_reused: bool
    workers: int = 1
    executor: str = "serial"

    @property
    def worst_ir_drop(self) -> np.ndarray:
        """Worst-case IR drop of each scenario, in volts."""
        return self.reductions.worst_ir_drop

    @property
    def average_ir_drop(self) -> np.ndarray:
        """Mean IR drop of each scenario over all nodes, in volts."""
        return self.reductions.average_ir_drop

    @property
    def worst_node_index(self) -> np.ndarray:
        """Compiled node index of the worst-drop node per scenario."""
        return self.reductions.worst_node_index

    @property
    def scenarios_per_second(self) -> float:
        """Solved-scenario throughput of the sweep."""
        return self.num_scenarios / self.analysis_time if self.analysis_time > 0 else 0.0

    def worst_node(self, scenario: int) -> str:
        """Name of the worst-drop node of one scenario."""
        return self.compiled.node_names[int(self.worst_node_index[scenario])]

    def sink_results(self) -> tuple:
        """Finished results of every attached sink, in sink order."""
        return tuple(sink.result() for sink in self.sinks)


@dataclass
class MegaSweepResult(StreamedSweepResult):
    """Streamed result of a pad-voltage × load cross-product mega-sweep.

    Scenario ``s`` combines load row ``s // num_pad_scenarios`` with pad
    row ``s % num_pad_scenarios`` (loads outer, pads inner).

    Attributes:
        num_load_scenarios: Number of rows of the load matrix swept.
        num_pad_scenarios: Number of rows of the pad-voltage matrix swept.
    """

    num_load_scenarios: int = 0
    num_pad_scenarios: int = 0

    def scenario_pair(self, scenario: int) -> tuple[int, int]:
        """Map a global scenario index to its (load row, pad row) pair."""
        if not 0 <= scenario < self.num_scenarios:
            raise IndexError(f"scenario {scenario} out of range [0, {self.num_scenarios})")
        return scenario // self.num_pad_scenarios, scenario % self.num_pad_scenarios


class BatchedAnalysisEngine:
    """IR-drop analysis with a cross-solve sparse-factorization cache.

    :meth:`analyze` returns one scenario's full
    :class:`~repro.analysis.irdrop.IRDropResult`; it is what the vectorless
    analyzer and the CLI consume; :meth:`solve_voltages` returns the
    voltages alone.  Both are one-column batches of the multi-RHS solve
    behind :meth:`analyze_batch` and the streamed sweeps, and the
    planner's loop solves each candidate as such a batch itself.

    Args:
        cache_size: Maximum number of factorizations kept alive (LRU).

    A sweep that passes no ``executor=`` runs on the executor named by
    :data:`~repro.analysis.executors.EXECUTOR_ENV`, read once here (a bad
    name raises ``ValueError`` naming the variable), or serially when it
    is unset.  That environment default is lenient: a sweep it cannot run
    (non-mergeable sinks or an unpicklable source on shards) runs serially
    instead, with a :class:`RuntimeWarning`.

    Attributes:
        solver_backend: The object that produces fresh factorizations, a
            :class:`~repro.analysis.solvers.SpluBackend`.  It may be
            replaced by any object with the same ``name`` / ``factor``
            interface (a timing wrapper, say); :meth:`shard_engine`
            hands shards that same object.
    """

    def __init__(self, cache_size: int = 8) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        env_name = os.environ.get(EXECUTOR_ENV, "").strip()
        try:
            self._default_executor = make_executor(env_name or "serial")
        except ValueError as exc:
            raise ValueError(f"{EXECUTOR_ENV}: {exc}") from exc
        self.cache_size = cache_size
        self.solver_backend = SpluBackend()
        self._cache_lock = threading.Lock()
        self._cache: OrderedDict[str, Factorization] = OrderedDict()  # guarded-by: _cache_lock
        self._factorizations = 0  # guarded-by: _cache_lock
        self._hits = 0  # guarded-by: _cache_lock

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> EngineCacheInfo:
        """Return the factorization and cache-hit counters.

        Taken under the cache lock so a snapshot read concurrently with
        parallel chunk workers is coherent (counters and entry count from
        one moment, not interleaved with a mid-flight factorization).
        """
        with self._cache_lock:
            return EngineCacheInfo(
                factorizations=self._factorizations,
                hits=self._hits,
                entries=len(self._cache),
            )

    def clear_cache(self) -> None:
        """Drop all cached factorizations (every counter is kept)."""
        with self._cache_lock:
            self._cache.clear()

    def shard_engine(self, compiled: CompiledGrid) -> "BatchedAnalysisEngine":
        """A single-threaded engine that starts with this one's factors of ``compiled``.

        The new engine mirrors this one's cache size, holds this engine's
        ``solver_backend`` object itself, and its cache holds the very
        factorization this engine cached for ``compiled`` — shared, not
        copied; empty if there is none.
        Sharded executors hand it to ``fork``-started workers, which
        inherit it with the parent's memory, so no worker factors again
        and every shard solves with the parent's factors.
        """
        engine = BatchedAnalysisEngine(cache_size=self.cache_size)
        engine.solver_backend = self.solver_backend
        key = compiled.fingerprint
        with self._cache_lock:
            factor = self._cache.get(key)
        if factor is not None:
            with engine._cache_lock:
                engine._store_factor(key, factor)
        return engine

    # requires-lock: _cache_lock
    def _store_factor(self, key: str, factor: Factorization) -> None:
        self._cache[key] = factor
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _factor(self, compiled: CompiledGrid) -> tuple[Factorization, bool]:
        """Return the (cached) factorization of the reduced matrix.

        Serialised by a lock so that parallel chunk workers racing on a
        cold cache perform exactly one factorization (and keep the LRU
        bookkeeping consistent); cache hits only pay an uncontended
        acquire.  A miss factors the grid fresh.
        """
        key = compiled.fingerprint
        with self._cache_lock:
            factor = self._cache.get(key)
            if factor is not None:
                self._hits += 1
                self._cache.move_to_end(key)
                return factor, True
            factor = self.solver_backend.factor(compiled.reduced_matrix)
            self._factorizations += 1
            self._store_factor(key, factor)
            return factor, False

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    @staticmethod
    def _compiled(network: PowerGridNetwork | CompiledGrid) -> CompiledGrid:
        """The compiled grid of ``network``, rejected if its system is singular.

        Every entry point passes through here: a grid without pads, or
        with a node that reaches neither a pad nor ground
        (:meth:`~repro.grid.compiled.CompiledGrid.require_connected`,
        checked once per topology), raises ``ValueError``.  That is what
        lets the direct backend factor the reduced matrix as SPD.
        """
        compiled = network if isinstance(network, CompiledGrid) else network.compile()
        if compiled.pad_node.size == 0:
            raise ValueError("network has no voltage sources; the nodal system is singular")
        compiled.require_connected()
        return compiled

    def _sweep_executor(
        self, executor: SweepExecutor | str | None
    ) -> tuple[SweepExecutor, bool]:
        """The ``(executor, lenient)`` pair one sweep runs with.

        An ``executor`` argument — an instance, or a name for
        :func:`~repro.analysis.executors.make_executor` — is strict;
        without one the engine default applies, and ``lenient`` marks it:
        a sweep it cannot run downgrades to the serial pipeline
        (:meth:`_stream_scenarios`).
        """
        if executor is None:
            return self._default_executor, True
        if isinstance(executor, str):
            return make_executor(executor), False
        return executor, False

    def _analyze_one(
        self,
        network: PowerGridNetwork | CompiledGrid,
        loads: np.ndarray | None,
        name: str | None,
    ) -> BatchAnalysisResult:
        """Solve one scenario as a one-column :meth:`analyze_batch`.

        ``loads`` (per-node, compiled order; the grid's own loads when
        omitted) is checked here, so a bad entry is named as ``loads``
        rather than as a batch row.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        if loads is None:
            loads = compiled.base_loads
        else:
            loads = np.asarray(loads, dtype=float)
            if loads.shape != (compiled.num_nodes,):
                raise ValueError(
                    f"expected loads of shape ({compiled.num_nodes},), got {loads.shape}"
                )
            _require_finite(loads, "loads", compiled, "node")
        return self._solve_batch(
            start, compiled, loads[None], None, (name or compiled.name,), None, (), None,
            "analyze",
        )

    def solve_voltages(
        self,
        network: PowerGridNetwork | CompiledGrid,
        loads: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve one scenario and return per-node voltages in compiled order."""
        return self._analyze_one(network, loads, None).voltages[:, 0]

    def analyze(
        self,
        network: PowerGridNetwork | CompiledGrid,
        loads: np.ndarray | None = None,
        name: str | None = None,
    ) -> IRDropResult:
        """Run one IR-drop analysis and return the full per-node result.

        Args:
            network: The grid (or its compiled form) to analyse.
            loads: Optional per-node load override, in compiled node order.
            name: Optional result name override.
        """
        return self._analyze_one(network, loads, name).result(0)

    def _solve_node_rows(
        self,
        compiled: CompiledGrid,
        rhs_rows: np.ndarray,
        pad_voltages: np.ndarray,
        out: np.ndarray,
        finite: np.ndarray | None = None,
    ) -> bool:
        """Solve ``c`` scenarios' right-hand sides into node-order voltage rows.

        Every solve of the engine runs here, a single scenario as one row.
        ``rhs_rows`` are the ``(c, num_unknowns)`` reduced right-hand
        sides, ``pad_voltages`` the ``(c, len(pad_sel))`` pad-node voltages
        (one ``(len(pad_sel),)`` row broadcasts to every scenario), and
        ``out`` the ``(c, num_nodes)`` rows that receive the voltages.  The
        factorization is looked up once; the rows are solved in
        ``ceil(c / SOLVE_COLUMNS)`` slices of :data:`SOLVE_COLUMNS` rows,
        the last taking the rest.  Each slice's solution is checked for
        finiteness — into its rows of ``finite``, a ``(c, num_unknowns)``
        boolean array, or a slice-sized temporary when it is omitted —
        then gathered straight into its rows of ``out`` by the nodes'
        unknown indices; the pad columns are written last.  No
        chunk-sized solution exists, and every path slices a block alike,
        so equal rows give bitwise-equal voltages.  Returns whether a
        cached factorization was reused.
        """
        reused = False
        if compiled.num_unknowns:
            factor, reused = self._factor(compiled)
            for begin in range(0, len(rhs_rows), SOLVE_COLUMNS):
                end = begin + SOLVE_COLUMNS
                unknown = factor.solve(rhs_rows[begin:end].T)
                mask = None if finite is None else finite[begin:end].T
                if not np.isfinite(unknown, out=mask).all():
                    raise LinearSolverError("direct solve produced non-finite voltages")
                # Pad nodes (unknown index -1) clip to column 0; their
                # columns are overwritten below.
                unknown.T.take(compiled.unknown_index, axis=1, out=out[begin:end], mode="clip")
        out[:, compiled.pad_sel] = pad_voltages
        return reused

    def _stream_scenarios(
        self,
        compiled: CompiledGrid,
        scenario_source: ScenarioSource,
        num_scenarios: int,
        chunk_size: int,
        sinks: Sequence[ScenarioSink],
        executor: SweepExecutor,
        lenient: bool,
        entry_point: str,
    ) -> tuple[BatchReductions, bool, SweepExecutor]:
        """Run one chunked sweep on an executor, with lenient fallback.

        ``lenient`` marks the engine's default executor: if it declares
        the sweep incompatible (:class:`ExecutorIncompatibility`, raised
        before any sink binds), the sweep downgrades to the serial
        in-process pipeline instead of failing — with a
        :class:`RuntimeWarning` naming the entry point and the offending
        sink class / source, so environment-sharded suites show which
        sweeps silently ran in-process.  Returns the reductions, reuse
        flag and the executor that actually ran the sweep.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        plan = SweepPlan(
            engine=self,
            compiled=compiled,
            scenario_source=scenario_source,
            num_scenarios=num_scenarios,
            chunk_size=chunk_size,
            sinks=tuple(sinks),
        )
        try:
            reductions, reused = executor.execute(plan)
        except ExecutorIncompatibility as exc:
            if not lenient:
                raise
            warnings.warn(
                f"{entry_point}: the environment-default {executor.name!r} executor "
                f"cannot run this sweep ({exc}); falling back to the in-process pipeline",
                RuntimeWarning,
                stacklevel=4,
            )
            executor = make_executor("serial")
            reductions, reused = executor.execute(plan)
        return reductions, reused, executor

    @staticmethod
    def _chunk_layout(
        compiled: CompiledGrid, scenario_source: ScenarioSource
    ) -> "_CrossProductLayout | _PairedLayout":
        """How the chunks of ``scenario_source`` are fetched and assembled.

        A :class:`CrossProductScenarioSource` is served from its per-row
        parts, built (and checked) once per grid; any other source is
        called and validated per chunk.  The only place the pipeline
        tells the two apart.
        """
        if isinstance(scenario_source, CrossProductScenarioSource):
            return scenario_source._layout(compiled)
        return _PairedLayout(compiled, scenario_source)

    def _run_chunk_pipeline(
        self,
        compiled: CompiledGrid,
        scenario_source: ScenarioSource,
        num_scenarios: int,
        chunk_size: int,
        sinks: Sequence[ScenarioSink],
        threads: int = 1,
        first: int = 0,
    ) -> tuple[BatchReductions, bool]:
        """Solve a sweep chunk by chunk, feeding reductions and sinks.

        This is the engine-side pipeline every executor drives: in-process
        for a single shard, and once per shard inside shard workers.  The
        dense ``(num_nodes, num_scenarios)`` voltage matrix never exists:
        each ``≤chunk_size``-scenario chunk is solved, its IR-drop rows
        written directly (:meth:`_solve_node_rows`), reduced into the
        sweep's per-scenario vectors and folded into every attached sink.
        Per-node voltages are built only for sinks that consume raw
        voltages.

        The chunk arrays are allocated once per call, one set per
        in-flight slot (:func:`_chunk_slot`): the RHS rows, the node-order
        drop rows and the solution's finiteness mask.  Every chunk writes
        into its slot's arrays, so a warm sweep allocates no
        chunk-sized block of its own, and a slot is reused only after its
        chunk has folded.  Sinks therefore see the slot's drop rows,
        valid only during their call.

        ``first`` is the global index of the sweep's first scenario — a
        shard's range start.  Chunks are fetched, and validated, at
        ``first + local`` indices (:meth:`_chunk_layout`), so errors name
        the scenarios of the whole sweep; reductions and sinks use local
        offsets, which :meth:`~repro.analysis.sinks.MergeableSink.merge`
        re-bases.

        With ``threads > 1`` the chunk solves run on a thread pool while
        this thread keeps three sequential roles: it *produces* chunks (the
        scenario source is always called from the calling thread, in
        ascending order, so sources need not be thread-safe), it *bounds*
        the in-flight window at ``threads`` chunks (memory stays
        ``O(num_nodes * chunk_size * threads)``, one slot per in-flight
        chunk: chunk ``i`` uses slot ``i % threads``, whose previous chunk
        has folded before chunk ``i`` is submitted), and it *folds*
        finished chunks strictly in ascending scenario order (futures are
        awaited FIFO).  Each chunk's solve is deterministic and
        chunk-local, so the reductions and every sink state are
        bitwise-identical to the sequential path.
        """
        layout = self._chunk_layout(compiled, scenario_source)
        with_voltages = any(not isinstance(sink, IRDropSink) for sink in sinks)
        for sink in sinks:
            sink.bind(compiled, num_scenarios)
        worst = np.empty(num_scenarios, dtype=float)
        average = np.empty(num_scenarios, dtype=float)
        worst_index = np.empty(num_scenarios, dtype=np.int64)
        reused = False
        ranges = [
            (begin, min(begin + chunk_size, num_scenarios))
            for begin in range(0, num_scenarios, chunk_size)
        ]
        threads = max(1, min(threads, len(ranges)))
        slots = [_chunk_slot(compiled, ranges[0][1]) for _ in range(threads)]

        def produce(begin: int, end: int) -> object:
            return layout.fetch(first + begin, first + end)

        def solve_chunk(
            begin: int, end: int, chunk: object, slot: tuple[np.ndarray, ...]
        ) -> tuple[np.ndarray | None, np.ndarray, bool]:
            rhs_rows, drop_rows, finite = (array[: end - begin] for array in slot)
            pad_voltages = layout.assemble(chunk, rhs_rows)
            rows = np.empty_like(drop_rows) if with_voltages else drop_rows
            chunk_reused = self._solve_node_rows(compiled, rhs_rows, pad_voltages, rows, finite)
            np.subtract(compiled.vdd, rows, out=drop_rows)
            # The chunk-local reductions are deterministic, so computing
            # them here keeps them on the worker pool instead of adding to
            # the fold thread's serial work.
            drop_rows.max(axis=1, out=worst[begin:end])
            drop_rows.mean(axis=1, out=average[begin:end])
            drop_rows.argmax(axis=1, out=worst_index[begin:end])
            return (rows.T if with_voltages else None), drop_rows, chunk_reused

        def fold(begin: int, solved: tuple[np.ndarray | None, np.ndarray, bool]) -> None:
            nonlocal reused
            voltages, drop_rows, chunk_reused = solved
            reused = reused or chunk_reused
            _feed_sinks(sinks, voltages, drop_rows, begin)

        if threads == 1:
            for begin, end in ranges:
                fold(begin, solve_chunk(begin, end, produce(begin, end), slots[0]))
        else:
            # Warm the lazily-built shared state (reduced matrix, pad RHS /
            # incidence) from this thread so workers only ever read it.
            compiled.reduced_matrix
            compiled.pad_rhs
            compiled.pad_incidence
            in_flight: deque = deque()
            with ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-chunk"
            ) as pool:
                for index, (begin, end) in enumerate(ranges):
                    while len(in_flight) >= threads:
                        oldest_begin, future = in_flight.popleft()
                        fold(oldest_begin, future.result())
                    chunk = produce(begin, end)
                    slot = slots[index % threads]
                    in_flight.append((begin, pool.submit(solve_chunk, begin, end, chunk, slot)))
                while in_flight:
                    oldest_begin, future = in_flight.popleft()
                    fold(oldest_begin, future.result())
        reductions = BatchReductions(
            worst_ir_drop=worst, average_ir_drop=average, worst_node_index=worst_index
        )
        return reductions, reused

    def _solve_batch(
        self,
        start: float,
        compiled: CompiledGrid,
        load_matrix: np.ndarray | None,
        pad_voltage_matrix: np.ndarray | None,
        names: Sequence[str] | None,
        chunk_size: int | None,
        sinks: Sequence[ScenarioSink],
        executor: SweepExecutor | str | None,
        entry_point: str,
    ) -> BatchAnalysisResult:
        """Shared body of every batch, one-column single solves included, after input checks.

        Without ``chunk_size`` the full ``(num_nodes, k)`` voltage matrix is
        returned (and offered to the sinks as one chunk); with it, scenarios
        are solved in RHS blocks of at most ``chunk_size`` columns and only
        the per-scenario worst / mean / worst-node reductions plus the sink
        states are accumulated, so the dense voltage matrix (and the dense
        RHS matrix) never exist for huge sweeps.  The executor only applies
        to the chunked path (an unsharded batch is a single RHS block).
        """
        executor_used, lenient = self._sweep_executor(executor)
        k = (load_matrix if pad_voltage_matrix is None else pad_voltage_matrix).shape[0]
        scenario_names = self._scenario_names(compiled, k, names)
        source = MatrixScenarioSource(load_matrix, pad_voltage_matrix)
        voltages = reductions = None
        if chunk_size is None:
            for sink in sinks:
                sink.bind(compiled, k)
            rhs_rows = np.empty((k, compiled.num_unknowns))
            pad_voltages = _PairedLayout(compiled, source).assemble(
                (load_matrix, pad_voltage_matrix), rhs_rows
            )
            rows = np.empty((k, compiled.num_nodes))
            reused = self._solve_node_rows(compiled, rhs_rows, pad_voltages, rows)
            voltages = rows.T
            if sinks:
                _feed_sinks(sinks, voltages, compiled.vdd - rows, 0)
        else:
            reductions, reused, _ = self._stream_scenarios(
                compiled, source, k, chunk_size, sinks, executor_used, lenient, entry_point
            )
        return BatchAnalysisResult(
            compiled=compiled,
            voltages=voltages,
            scenario_names=scenario_names,
            analysis_time=time.perf_counter() - start,
            factorization_reused=reused,
            reductions=reductions,
            sinks=tuple(sinks),
        )

    @staticmethod
    def _scenario_names(
        compiled: CompiledGrid, k: int, names: Sequence[str] | None
    ) -> tuple[str, ...]:
        if names is None:
            return tuple(f"{compiled.name}[{i}]" for i in range(k))
        if isinstance(names, str):
            raise TypeError(f"names must be a sequence of {k} scenario names, not one string")
        if len(names) != k:
            raise ValueError(f"expected {k} scenario names, got {len(names)}")
        return tuple(names)

    def analyze_batch(
        self,
        network: PowerGridNetwork | CompiledGrid,
        load_matrix: np.ndarray,
        names: Sequence[str] | None = None,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        executor: SweepExecutor | str | None = None,
    ) -> BatchAnalysisResult:
        """Solve many load scenarios against one factorization.

        Args:
            network: The grid (or its compiled form) all scenarios share.
            load_matrix: ``(num_scenarios, num_nodes)`` per-node currents in
                compiled node order.
            names: Optional per-scenario names (a sequence, not one string).
            chunk_size: Optional RHS shard size.  When given, scenarios are
                solved in blocks of at most this many right-hand sides and
                the worst / mean / worst-node reductions are streamed, so
                the dense ``(num_nodes, num_scenarios)`` voltage matrix is
                never allocated — the memory high-water mark is
                ``O(num_nodes * chunk_size)`` regardless of sweep size.
            sinks: Scenario sinks to stream every solved voltage chunk
                into (see :mod:`repro.analysis.sinks`); composes with
                ``chunk_size``.  Each sink observes every scenario exactly
                once, in order.
            executor: Sweep-execution strategy for the chunked path — an
                executor instance or a name from
                :data:`~repro.analysis.executors.EXECUTOR_NAMES`
                (``"processes"`` requires every sink to be mergeable);
                results are bitwise-identical to the serial sweep.
                ``None`` uses the engine default.  Without ``chunk_size``
                the batch is a single RHS block, so it has no effect.

        Returns:
            A :class:`BatchAnalysisResult` — with the full voltage matrix,
            or (sharded) with streamed reductions only.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        load_matrix = np.asarray(load_matrix, dtype=float)
        if load_matrix.ndim != 2 or load_matrix.shape[1] != compiled.num_nodes:
            raise ValueError(
                f"load_matrix must be 2-D (num_scenarios, {compiled.num_nodes}), "
                f"got shape {load_matrix.shape}"
            )
        if load_matrix.shape[0] == 0:
            raise ValueError("load_matrix must contain at least one scenario")
        _require_finite(load_matrix, "load_matrix row", compiled, "node")
        return self._solve_batch(
            start, compiled, load_matrix, None, names, chunk_size, sinks, executor,
            "analyze_batch",
        )

    def analyze_pad_batch(
        self,
        network: PowerGridNetwork | CompiledGrid,
        pad_voltage_matrix: np.ndarray,
        load_matrix: np.ndarray | None = None,
        names: Sequence[str] | None = None,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        executor: SweepExecutor | str | None = None,
    ) -> BatchAnalysisResult:
        """Solve many pad-voltage scenarios against one factorization.

        Pad voltages only enter the right-hand side of the reduced system,
        so a NODE_VOLTAGES sweep (paper Fig. 9) shares a single
        factorization exactly like a current-only sweep: scenario ``i``
        fixes each pad to ``pad_voltage_matrix[i]`` instead of the grid's
        nominal pad voltages.

        Args:
            network: The grid (or its compiled form) all scenarios share.
            pad_voltage_matrix: ``(num_scenarios, num_pads)`` per-pad
                voltages aligned with the compiled grid's ``pad_names``.
            load_matrix: Optional ``(num_scenarios, num_nodes)`` per-node
                currents (the grid's own loads are used when omitted),
                letting one batch sweep currents and pad voltages together.
            names: Optional per-scenario names (see :meth:`analyze_batch`).
            chunk_size: Optional RHS shard size (see :meth:`analyze_batch`).
            sinks: Scenario sinks to stream every solved voltage chunk
                into (see :meth:`analyze_batch`).
            executor: Sweep-execution strategy for the chunked path (see
                :meth:`analyze_batch`).

        Returns:
            A :class:`BatchAnalysisResult`; scenario voltages report each
            pad node at its per-scenario voltage.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        pad_voltage_matrix = np.asarray(pad_voltage_matrix, dtype=float)
        if pad_voltage_matrix.ndim != 2 or pad_voltage_matrix.shape[1] != len(compiled.pad_node):
            raise ValueError(
                "pad_voltage_matrix must be 2-D (num_scenarios, "
                f"{len(compiled.pad_node)}), got shape {pad_voltage_matrix.shape}"
            )
        if pad_voltage_matrix.shape[0] == 0:
            raise ValueError("pad_voltage_matrix must contain at least one scenario")
        if load_matrix is not None:
            load_matrix = np.asarray(load_matrix, dtype=float)
            expected = (pad_voltage_matrix.shape[0], compiled.num_nodes)
            if load_matrix.shape != expected:
                raise ValueError(
                    f"load_matrix must have shape {expected} (num_scenarios, "
                    f"num_nodes) matching pad_voltage_matrix, got shape "
                    f"{load_matrix.shape}"
                )
            _require_finite(load_matrix, "load_matrix row", compiled, "node")
        _require_finite(pad_voltage_matrix, "pad_voltage_matrix row", compiled, "pad")
        return self._solve_batch(
            start, compiled, load_matrix, pad_voltage_matrix, names, chunk_size, sinks,
            executor, "analyze_pad_batch",
        )

    def _sweep(
        self,
        start: float,
        compiled: CompiledGrid,
        scenario_source: ScenarioSource,
        num_scenarios: int,
        chunk_size: int | None,
        sinks: Sequence[ScenarioSink],
        executor: SweepExecutor | str | None,
        entry_point: str,
        result_type: type[StreamedSweepResult] = StreamedSweepResult,
        **fields: int,
    ) -> StreamedSweepResult:
        """Shared body of the streamed entry points, after their input checks.

        Resolves the adaptive chunk width, runs the sweep and builds its
        ``result_type`` (``fields`` are the subclass's own).
        """
        executor_used, lenient = self._sweep_executor(executor)
        if chunk_size is None:
            chunk_size = resolve_chunk_size(compiled.num_unknowns)
        reductions, reused, executor_used = self._stream_scenarios(
            compiled, scenario_source, num_scenarios, chunk_size, sinks, executor_used,
            lenient, entry_point,
        )
        return result_type(
            compiled=compiled,
            num_scenarios=num_scenarios,
            chunk_size=chunk_size,
            reductions=reductions,
            sinks=tuple(sinks),
            analysis_time=time.perf_counter() - start,
            factorization_reused=reused,
            workers=executor_used.parallelism,
            executor=executor_used.name,
            **fields,
        )

    def analyze_scenario_stream(
        self,
        network: PowerGridNetwork | CompiledGrid,
        scenario_source: ScenarioSource,
        num_scenarios: int,
        *,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        executor: SweepExecutor | str | None = None,
    ) -> StreamedSweepResult:
        """Stream arbitrarily many generated scenarios through the sinks.

        Scenarios are *produced* chunk by chunk too: ``scenario_source``
        is asked for at most ``chunk_size`` rows at a time, so sweeps
        whose scenario set is generated (cross products, random sampling)
        never materialise the full ``(num_scenarios, num_nodes)`` load
        matrix either — the whole pipeline, inputs included, runs in
        ``O(num_nodes * chunk_size)`` memory (times the executor's
        parallelism when solving in parallel).

        Args:
            network: The grid (or its compiled form) all scenarios share.
            scenario_source: Chunk generator; see :data:`ScenarioSource`.
                A single-shard executor calls it from the calling thread
                in ascending order; sharded executors call pickled copies
                from their workers, each over a contiguous sub-range.
            num_scenarios: Total number of scenarios to stream, an integer
                (NumPy integers included) of at least 1.
            chunk_size: RHS chunk width (and source request size).
                ``None`` picks an adaptive width via
                :func:`resolve_chunk_size` from the grid size.
            sinks: Scenario sinks to stream every solved chunk into.
            executor: Sweep-execution strategy (see :meth:`analyze_batch`);
                sinks still fold in ascending scenario order, so every
                result is bitwise-identical to the serial sweep.

        Returns:
            A :class:`StreamedSweepResult` with the per-scenario
            reductions and the consumed sinks.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        num_scenarios = scenario_count(num_scenarios)
        return self._sweep(
            start, compiled, scenario_source, num_scenarios, chunk_size, sinks, executor,
            "analyze_scenario_stream",
        )

    def analyze_mega_sweep(
        self,
        network: PowerGridNetwork | CompiledGrid,
        load_matrix: np.ndarray,
        pad_voltage_matrix: np.ndarray,
        *,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        executor: SweepExecutor | str | None = None,
    ) -> MegaSweepResult:
        """Sweep the full load × pad-voltage cross product, streamed.

        Every combination of a load row and a pad-voltage row becomes one
        scenario (``num_load_scenarios * num_pad_scenarios`` in total,
        loads outer, pads inner), solved against a single cached
        factorization.  The combined scenario set is never materialised:
        the pad part and the load part of the right-hand side are computed
        once per input row, and each chunk's right-hand side is one gather
        and subtract of those rows, so a ``400 × 256 = 102 400``-scenario
        mega-sweep costs the memory of one chunk plus ``400 + 256`` rows
        of unknowns next to the two input matrices.  Both matrices are
        checked once, before any sink binds: a wrong shape or a
        non-finite entry raises ``ValueError`` naming its row and column.
        This is the vectorless-
        style workload entry point: pair it with quantile / histogram /
        exceedance / top-k sinks to characterise the whole operating
        envelope in one pass.

        Args:
            network: The grid (or its compiled form) all scenarios share.
            load_matrix: ``(num_load_scenarios, num_nodes)`` per-node
                currents in compiled node order (e.g. from
                :func:`~repro.grid.perturbation.floorplan_perturbed_load_matrix`).
            pad_voltage_matrix: ``(num_pad_scenarios, num_pads)`` per-pad
                voltages aligned with the compiled ``pad_names`` (e.g.
                from
                :func:`~repro.grid.perturbation.perturbed_pad_voltage_matrix`).
            chunk_size: RHS chunk width bounding the working memory
                (``None`` = adaptive, see :func:`resolve_chunk_size`).
            sinks: Scenario sinks to stream every solved chunk into.
            executor: Sweep-execution strategy (see :meth:`analyze_batch`);
                ``"processes"`` shards the cross product across worker
                processes and merges the mergeable sinks.

        Returns:
            A :class:`MegaSweepResult` over all combined scenarios.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        cross_source = CrossProductScenarioSource(
            np.asarray(load_matrix, dtype=float), np.asarray(pad_voltage_matrix, dtype=float)
        )
        # Checks both matrices and builds the per-row parts once, here in
        # the parent: before any sink binds, and before any shard forks.
        layout = cross_source._layout(compiled)
        return self._sweep(
            start, compiled, cross_source, layout.num_scenarios, chunk_size, sinks, executor,
            "analyze_mega_sweep", MegaSweepResult,
            num_load_scenarios=layout.num_scenarios // layout.num_pad_rows,
            num_pad_scenarios=layout.num_pad_rows,
        )
