"""Streamed per-chunk scenario sinks for mega-sweeps.

Sharded sweeps (:meth:`~repro.analysis.engine.BatchedAnalysisEngine.analyze_batch`
with ``chunk_size``) deliberately never materialise the dense
``(num_nodes, num_scenarios)`` voltage matrix — which also means the only
things a caller could learn about a huge sweep were the built-in worst /
mean / worst-node reductions.  Vectorless-style statistical workloads need
more: quantiles of the worst-drop distribution, per-node IR-drop
histograms, per-node exceedance probabilities against a noise budget, the
handful of worst scenarios worth re-examining in full.

This module provides that as a pluggable subsystem.  A
:class:`ScenarioSink` observes each solved voltage chunk exactly once, in
scenario order, and folds it into whatever bounded-memory state it needs;
``result()`` returns the finished statistic.  The engine streams chunks
into any number of sinks alongside its own reductions, so one pass over a
1e5-scenario sweep can produce quantiles, histograms, exceedance counts
and a top-k shortlist simultaneously — all in ``O(num_nodes * chunk_size)``
working memory.

Exact sinks (:class:`NodeHistogramSink`, :class:`ExceedanceCountSink`,
:class:`JointExceedanceSink`, :class:`TopKScenarioSink`) are
bitwise-independent of the chunk size: they produce the identical result
whether the sweep arrives in one dense block or one scenario at a time.
Approximate sinks trade exactness for O(1) state (:class:`P2QuantileSink`)
or a log-bucketed count (:class:`QuantileSketchSink`, within a set
relative error of the true quantile and bitwise-independent of the
chunking).

Most sinks additionally implement the :class:`MergeableSink` capability —
:meth:`snapshot` freezes the state accumulated over a contiguous scenario
shard into a picklable :class:`SinkSnapshot`, and :meth:`merge` folds such
a snapshot into another instance of the same sink.  That is what lets the
process-sharded executor (:mod:`repro.analysis.executors`) split a sweep's
scenario range across worker processes and combine the per-shard sink
states afterwards: the exact sinks and the quantile sketch merge exactly
(counter addition, top-k union), and :class:`P2QuantileSink` is
deliberately *not* mergeable — its marker state is order-dependent — so
process-sharded sweeps reject it up front and steer users to the quantile
sketch instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..grid.compiled import CompiledGrid
    from ..grid.network import PowerGridNetwork
    from .engine import BatchedAnalysisEngine, ScenarioSource
    from .irdrop import IRDropResult

_SCENARIO_STATISTICS = ("worst", "mean")
"""Per-scenario scalar statistics the scalar-stream sinks can track."""

_SCRATCH_ROWS = 16
"""Drop rows an exact sink folds per step.

The per-node sinks work through each drop block this many rows at a
time, so their scratch arrays (:meth:`IRDropSink._scratch`) have this
many rows whatever the chunk width.  Counting is integral, so the
blocking never changes a result."""


def _row_blocks(drops: np.ndarray):
    """``(start, rows)`` for consecutive ``_SCRATCH_ROWS``-row views of ``drops``."""
    for start in range(0, drops.shape[0], _SCRATCH_ROWS):
        yield start, drops[start : start + _SCRATCH_ROWS]


@runtime_checkable
class ScenarioSink(Protocol):
    """Protocol of a streamed per-chunk reduction sink.

    The engine calls :meth:`bind` once before a sweep starts, then
    :meth:`consume` once per solved chunk in ascending scenario order, and
    the caller reads :meth:`result` when the sweep is done.  A sink
    instance observes one sweep; create a fresh sink per sweep.
    """

    def bind(self, compiled: "CompiledGrid", num_scenarios: int) -> None:
        """Prepare for a sweep of ``num_scenarios`` over ``compiled``."""
        ...  # pragma: no cover - protocol

    def consume(self, chunk_voltages: np.ndarray, scenario_offset: int) -> None:
        """Fold one ``(num_nodes, c)`` voltage chunk into the sink state.

        Column ``j`` holds the per-node voltages (compiled node order) of
        scenario ``scenario_offset + j``.
        """
        ...  # pragma: no cover - protocol

    def result(self) -> object:
        """Return the finished statistic (sink-specific type)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SinkSnapshot:
    """Picklable mergeable state of a sink over one contiguous scenario shard.

    Attributes:
        sink_type: Class name of the sink that produced the snapshot; a
            snapshot only merges into a sink of the same type.
        num_scenarios: Number of scenarios the snapshot accumulates.  Any
            scenario indices inside ``state`` are shard-local (the first
            scenario of the shard is index 0); :meth:`MergeableSink.merge`
            re-bases them onto the merging sink's running offset.
        state: Sink-specific arrays plus the configuration needed to check
            that the two sinks are compatible (bin edges, thresholds, k,
            ...).  Arrays are copies — mutating the source sink afterwards
            does not change the snapshot.
    """

    sink_type: str
    num_scenarios: int
    state: dict


@runtime_checkable
class MergeableSink(Protocol):
    """Capability of sinks whose per-shard states can be combined.

    A sweep split into contiguous scenario shards ``[0, s1), [s1, s2), ...``
    is reconstructed by binding one sink to the full sweep and merging the
    shard snapshots **in ascending shard order**: each :meth:`merge` call
    appends ``snapshot.num_scenarios`` scenarios at the sink's current
    offset, exactly like consuming the shard's chunks directly.  The
    merged result is bitwise-identical to the sequential sweep.
    """

    def snapshot(self) -> SinkSnapshot:
        """Freeze the accumulated state into a picklable snapshot."""
        ...  # pragma: no cover - protocol

    def merge(self, snapshot: SinkSnapshot) -> None:
        """Fold a shard snapshot into this sink at its current offset."""
        ...  # pragma: no cover - protocol


class IRDropSink:
    """Base class handling binding, ordering checks and IR-drop conversion.

    Concrete sinks implement :meth:`_consume_drops` over the per-scenario
    *row* layout (``(c, num_nodes)``, contiguous rows) — the same layout
    the engine's own reductions use, which is what keeps per-scenario
    reductions bitwise-independent of the chunk size.

    Per-node sinks reuse their working arrays across chunks
    (:meth:`_scratch`); those are not state, so pickles and snapshots
    leave them out.
    """

    def __init__(self) -> None:
        self._vdd = 0.0
        self._num_nodes = 0
        self._expected_scenarios = 0
        self._consumed = 0
        self._bound = False
        self._scratch_arrays: dict[str, np.ndarray] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_scratch_arrays"] = {}
        return state

    def _scratch(self, name: str, dtype: type) -> np.ndarray:
        """The ``(_SCRATCH_ROWS, num_nodes)`` working array ``name``, made on first use.

        Fold code writes a row block into its leading rows with ``out=``
        and reads them back within the same call; the array is reused for
        every later block and chunk.
        """
        array = self._scratch_arrays.get(name)
        if array is None:
            array = np.empty((_SCRATCH_ROWS, self._num_nodes), dtype=dtype)
            self._scratch_arrays[name] = array
        return array

    @property
    def num_consumed(self) -> int:
        """Number of scenarios folded into the sink so far."""
        return self._consumed

    def _require_bound(self) -> None:
        """Raise when ``result()`` is read off a sink that saw no sweep.

        Every sink calls this first, so an accidentally detached sink (one
        that was never passed to the engine) fails loudly instead of
        returning an empty-looking statistic.
        """
        if not self._bound:
            raise ValueError(f"{type(self).__name__} was never bound to a sweep")

    def bind(self, compiled: "CompiledGrid", num_scenarios: int) -> None:
        if self._bound:
            raise ValueError(
                f"{type(self).__name__} already observed a sweep; create a fresh sink per sweep"
            )
        if num_scenarios < 1:
            raise ValueError("num_scenarios must be at least 1")
        self._vdd = float(compiled.vdd)
        self._num_nodes = compiled.num_nodes
        self._expected_scenarios = num_scenarios
        self._bound = True
        self._on_bind(compiled, num_scenarios)

    def consume(self, chunk_voltages: np.ndarray, scenario_offset: int) -> None:
        if not self._bound:
            raise ValueError(f"{type(self).__name__} was not bound before consuming")
        chunk_voltages = np.asarray(chunk_voltages, dtype=float)
        if chunk_voltages.ndim != 2 or chunk_voltages.shape[0] != self._num_nodes:
            raise ValueError(
                f"expected a ({self._num_nodes}, c) voltage chunk, "
                f"got shape {chunk_voltages.shape}"
            )
        self._ingest(self._vdd - np.ascontiguousarray(chunk_voltages.T), scenario_offset)

    def consume_drop_rows(self, drop_rows: np.ndarray, scenario_offset: int) -> None:
        """Fast path: fold precomputed contiguous ``(c, num_nodes)`` IR-drop rows.

        The engine already derives the contiguous transposed drop block of
        each chunk for its own reductions; handing the same block to every
        :class:`IRDropSink` skips one transpose + subtraction per sink per
        chunk.  Semantically identical to :meth:`consume` on the chunk's
        voltages.

        ``drop_rows`` is the engine's buffer: in a chunked sweep, every
        chunk of an in-flight slot is written into the same array.  It is
        valid only during this call, so a sink copies whatever it keeps
        and never holds a view of it.
        """
        if not self._bound:
            raise ValueError(f"{type(self).__name__} was not bound before consuming")
        drop_rows = np.asarray(drop_rows, dtype=float)
        if drop_rows.ndim != 2 or drop_rows.shape[1] != self._num_nodes:
            raise ValueError(
                f"expected a (c, {self._num_nodes}) IR-drop row block, "
                f"got shape {drop_rows.shape}"
            )
        self._ingest(drop_rows, scenario_offset)

    def _ingest(self, drops: np.ndarray, scenario_offset: int) -> None:
        if scenario_offset != self._consumed:
            raise ValueError(
                f"chunks must arrive in scenario order: expected offset "
                f"{self._consumed}, got {scenario_offset}"
            )
        count = drops.shape[0]
        if self._consumed + count > self._expected_scenarios:
            raise ValueError(
                f"chunk overruns the sweep: {self._consumed} consumed + {count} new "
                f"> {self._expected_scenarios} expected"
            )
        self._consume_drops(drops, scenario_offset)
        self._consumed += count

    def _begin_merge(self, snapshot: SinkSnapshot) -> int:
        """Validate a shard snapshot against this sink; return its offset.

        Mergeable subclasses call this first from :meth:`merge`: it checks
        the snapshot came from the same sink type and fits inside the
        sweep, and returns the global scenario offset the shard lands at
        (the sink's current consumed count — shards must merge in
        ascending order).  The caller folds the state and then advances
        the offset with :meth:`_finish_merge`.
        """
        self._require_bound()
        if snapshot.sink_type != type(self).__name__:
            raise ValueError(
                f"cannot merge a {snapshot.sink_type} snapshot into {type(self).__name__}"
            )
        if snapshot.num_scenarios < 0:
            raise ValueError("snapshot num_scenarios must be non-negative")
        if self._consumed + snapshot.num_scenarios > self._expected_scenarios:
            raise ValueError(
                f"merged shard overruns the sweep: {self._consumed} consumed + "
                f"{snapshot.num_scenarios} new > {self._expected_scenarios} expected"
            )
        return self._consumed

    def _finish_merge(self, snapshot: SinkSnapshot) -> None:
        self._consumed += snapshot.num_scenarios

    def _on_bind(self, compiled: "CompiledGrid", num_scenarios: int) -> None:
        """Hook for subclasses needing grid-dependent state."""

    def _consume_drops(self, drops: np.ndarray, scenario_offset: int) -> None:
        raise NotImplementedError


def _scenario_scalars(drops: np.ndarray, statistic: str) -> np.ndarray:
    """Per-scenario scalar over contiguous ``(c, num_nodes)`` drop rows."""
    if statistic == "worst":
        return drops.max(axis=1)
    return drops.mean(axis=1)


class _ScalarStreamSink(IRDropSink):
    """Base of sinks that reduce each scenario to one scalar first."""

    def __init__(self, statistic: str = "worst") -> None:
        super().__init__()
        if statistic not in _SCENARIO_STATISTICS:
            raise ValueError(f"statistic must be one of {_SCENARIO_STATISTICS}, got {statistic!r}")
        self.statistic = statistic

    def _consume_drops(self, drops: np.ndarray, scenario_offset: int) -> None:
        self._consume_scalars(_scenario_scalars(drops, self.statistic), scenario_offset)

    def _consume_scalars(self, scalars: np.ndarray, scenario_offset: int) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class QuantileEstimate:
    """Streamed quantile estimates of a per-scenario scalar distribution.

    Attributes:
        statistic: Which per-scenario scalar was tracked (worst / mean).
        quantiles: The requested quantile levels, ascending.
        values: Estimated value at each level, aligned with ``quantiles``.
        num_scenarios: Number of scenarios observed.
        exact: True when the estimates are exact empirical quantiles (the
            whole stream was retained), False for streaming approximations.
    """

    statistic: str
    quantiles: tuple[float, ...]
    values: np.ndarray
    num_scenarios: int
    exact: bool

    def value(self, quantile: float) -> float:
        """Value estimated for one of the requested quantile levels."""
        try:
            return float(self.values[self.quantiles.index(quantile)])
        except ValueError as exc:
            raise KeyError(f"quantile {quantile} was not tracked: {self.quantiles}") from exc


_P2_BLOCK = 64
"""Internal batch width of the vectorised P² update.

Incoming per-scenario scalars are buffered to blocks of this fixed width
before the marker state is updated, so the estimate depends only on the
scenario order — never on how the engine chunked the sweep."""


class _P2MarkerBank:
    """Vectorised multi-estimator P² state (Jain & Chlamtac, CACM 1985).

    One row of five markers per tracked quantile level.  Instead of the
    textbook one-observation-at-a-time update, whole blocks of
    observations are folded at once: the marker *positions* advance by the
    block's per-cell counts (a single vectorised comparison), and the
    marker *heights* are then re-adjusted with the piecewise-parabolic
    formula — generalised to integer steps of any size, clamped to keep
    positions strictly monotone, falling back to a unit linear step when
    the parabolic prediction leaves the bracketing interval.  All levels
    update simultaneously as NumPy array ops, which is what makes quantile
    tracking cheap relative to the chunk solves it rides along with.
    """

    def __init__(self, quantiles: Sequence[float]) -> None:
        p = np.asarray(quantiles, dtype=float)
        m = p.size
        self.count = 0
        self.heights = np.zeros((m, 5))
        self.positions = np.tile(np.arange(1.0, 6.0), (m, 1))
        self.increments = np.column_stack(
            (np.zeros(m), p / 2.0, p, (1.0 + p) / 2.0, np.ones(m))
        )
        self.desired = np.column_stack(
            (np.ones(m), 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, np.full(m, 5.0))
        )
        self._quantiles = p
        self._seed: list[float] = []

    def clone(self) -> "_P2MarkerBank":
        """Independent copy (used to estimate without flushing buffers)."""
        other = object.__new__(_P2MarkerBank)
        other.count = self.count
        other.heights = self.heights.copy()
        other.positions = self.positions.copy()
        other.increments = self.increments
        other.desired = self.desired.copy()
        other._quantiles = self._quantiles
        other._seed = list(self._seed)
        return other

    def insert(self, values: np.ndarray) -> None:
        """Fold a block of observations (in scenario order) into the markers."""
        values = np.asarray(values, dtype=float)
        self.count += values.size
        if len(self._seed) < 5:
            take = min(5 - len(self._seed), values.size)
            self._seed.extend(float(v) for v in values[:take])
            values = values[take:]
            if len(self._seed) == 5:
                self.heights[:] = np.sort(np.array(self._seed))
        if values.size == 0 or len(self._seed) < 5:
            return
        heights, positions = self.heights, self.positions
        heights[:, 0] = np.minimum(heights[:, 0], values.min())
        heights[:, 4] = np.maximum(heights[:, 4], values.max())
        below = (values[None, None, :] < heights[:, 1:4, None]).sum(axis=2)
        positions[:, 1:4] += below
        positions[:, 4] += values.size
        self.desired += self.increments * values.size
        # Positions stay integer-valued, so every pass moves each marker at
        # least one whole position; any residual deficit simply carries
        # into the next block's adjustment.
        for _ in range(2 * values.size):
            if not self._adjust():
                break

    def _adjust(self) -> bool:
        """One vectorised height/position adjustment pass; True if moved."""
        heights, positions = self.heights, self.positions
        moved = False
        for i in (1, 2, 3):
            d = self.desired[:, i] - positions[:, i]
            gap_up = positions[:, i + 1] - positions[:, i]
            gap_down = positions[:, i] - positions[:, i - 1]
            up = (d >= 1.0) & (gap_up > 1.0)
            down = (d <= -1.0) & (gap_down > 1.0)
            active = up | down
            if not active.any():
                continue
            moved = True
            step = np.where(
                up,
                np.minimum(np.floor(d), gap_up - 1.0),
                np.maximum(np.ceil(d), 1.0 - gap_down),
            )
            qm, qi, qp = heights[:, i - 1], heights[:, i], heights[:, i + 1]
            nm, ni, npl = positions[:, i - 1], positions[:, i], positions[:, i + 1]
            parabolic = qi + step / (npl - nm) * (
                (ni - nm + step) * (qp - qi) / (npl - ni)
                + (npl - ni - step) * (qi - qm) / (ni - nm)
            )
            valid = (qm < parabolic) & (parabolic < qp)
            unit = np.where(step > 0.0, 1.0, -1.0)
            linear = qi + unit * (np.where(step > 0.0, qp, qm) - qi) / (
                np.where(step > 0.0, npl, nm) - ni
            )
            heights[:, i] = np.where(active, np.where(valid, parabolic, linear), qi)
            positions[:, i] = ni + np.where(active, np.where(valid, step, unit), 0.0)
        return moved

    def estimate(self) -> np.ndarray:
        """Current estimate per level (exact while ≤ 5 observations)."""
        if self.count == 0:
            return np.full(self._quantiles.size, np.nan)
        if self.count <= 5:
            return np.quantile(np.array(self._seed), self._quantiles)
        return self.heights[:, 2].copy()


def _validated_quantiles(quantiles: Sequence[float]) -> tuple[float, ...]:
    levels = tuple(float(q) for q in quantiles)
    if not levels:
        raise ValueError("at least one quantile level is required")
    if any(not 0.0 <= q <= 1.0 for q in levels):
        raise ValueError(f"quantile levels must be in [0, 1], got {levels}")
    if list(levels) != sorted(set(levels)):
        raise ValueError(f"quantile levels must be strictly ascending, got {levels}")
    return levels


class P2QuantileSink(_ScalarStreamSink):
    """O(1)-memory streaming quantiles of a per-scenario scalar (P²).

    A vectorised bank of five-marker P² estimators (one row per requested
    level) tracks the quantiles of the per-scenario worst (or mean) IR
    drop without retaining the stream.  Incoming scalars are buffered to
    fixed-width internal blocks (:data:`_P2_BLOCK`) and folded with a
    NumPy multi-estimator batch step, so the estimate depends only on the
    scenario order — never on the engine's chunking — and the fold costs
    a few vectorised array ops per block instead of a Python marker update
    per scenario.  The estimate is approximate; use
    :class:`QuantileSketchSink` when a bounded relative error is
    preferred.

    The marker state is order-dependent, so this sink is **not**
    mergeable across process shards — process-sharded sweeps reject it
    and steer to :class:`QuantileSketchSink`.

    Args:
        quantiles: Quantile levels in [0, 1], strictly ascending.
        statistic: Per-scenario scalar to track (``"worst"`` or ``"mean"``).
    """

    def __init__(self, quantiles: Sequence[float], statistic: str = "worst") -> None:
        super().__init__(statistic)
        self.quantiles = _validated_quantiles(quantiles)
        self._bank = _P2MarkerBank(self.quantiles)
        self._pending = np.empty(_P2_BLOCK, dtype=float)
        self._pending_len = 0

    def _consume_scalars(self, scalars: np.ndarray, scenario_offset: int) -> None:
        scalars = np.asarray(scalars, dtype=float)
        position = 0
        while position < scalars.size:
            take = min(_P2_BLOCK - self._pending_len, scalars.size - position)
            self._pending[self._pending_len : self._pending_len + take] = scalars[
                position : position + take
            ]
            self._pending_len += take
            position += take
            if self._pending_len == _P2_BLOCK:
                self._bank.insert(self._pending)
                self._pending_len = 0

    def result(self) -> QuantileEstimate:
        """Current quantile estimates (exact while ≤ 5 scenarios seen).

        Non-destructive: the buffered tail is folded into a clone of the
        marker bank, so reading an estimate mid-sweep does not disturb the
        fixed block boundaries.
        """
        self._require_bound()
        bank = self._bank
        if self._pending_len:
            bank = bank.clone()
            bank.insert(self._pending[: self._pending_len])
        return QuantileEstimate(
            statistic=self.statistic,
            quantiles=self.quantiles,
            values=bank.estimate(),
            num_scenarios=self._consumed,
            exact=self._consumed <= 5,
        )


class QuantileSketchSink(_ScalarStreamSink):
    """Deterministic log-bucketed quantile sketch of a per-scenario scalar.

    A DDSketch-style estimator: every scalar ``v >= min_value`` lands in
    the logarithmic bucket ``ceil(log(v) / log(gamma))`` with
    ``gamma = (1 + relative_error) / (1 - relative_error)``, and the sketch
    keeps only the integer count per occupied bucket.  Reported quantile
    values are the buckets' relative-error midpoints
    (``2 * gamma**i / (gamma + 1)``), so every estimate is within
    ``relative_error`` (relative) of the true empirical quantile whenever
    that quantile is at least ``min_value``.  Scalars below ``min_value``
    are pooled in a dedicated low bucket reported as ``0.0`` — quantiles
    landing there carry no relative-error guarantee (on IR-drop sweeps the
    tracked statistics sit far above any sensible ``min_value``).

    The state is a pure integer counter array: it is invariant to the
    *order* scalars arrive in, and the merge is aligned counter addition.
    A sweep split into contiguous shards —
    process-sharded, remote-sharded, any chunk size — therefore merges to
    the **bitwise-identical** sketch the sequential sweep builds, at every
    shard count.  That determinism is what makes this the recommended
    quantile sink under the process and remote executors, where
    :class:`P2QuantileSink` is rejected (order-dependent markers).

    Memory is one ``int64`` per occupied bucket:
    ``O(log(max / min_value) / relative_error)``.  The bucket span is
    capped at ``max_buckets`` — a sweep whose dynamic range would exceed
    it raises instead of silently degrading the error bound.

    Args:
        quantiles: Quantile levels in [0, 1], strictly ascending.
        statistic: Per-scenario scalar to track (``"worst"`` or ``"mean"``).
        relative_error: Guaranteed relative accuracy ``alpha`` in (0, 1)
            for quantile values ``>= min_value``.
        min_value: Smallest magnitude resolved by the log buckets; smaller
            scalars pool in the low bucket.
        max_buckets: Hard cap on the contiguous bucket span.
    """

    def __init__(
        self,
        quantiles: Sequence[float],
        statistic: str = "worst",
        relative_error: float = 0.01,
        min_value: float = 1e-9,
        max_buckets: int = 8192,
    ) -> None:
        super().__init__(statistic)
        self.quantiles = _validated_quantiles(quantiles)
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error must be in (0, 1), got {relative_error}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        if max_buckets < 1:
            raise ValueError("max_buckets must be at least 1")
        self.relative_error = float(relative_error)
        self.min_value = float(min_value)
        self.max_buckets = int(max_buckets)
        self._gamma = (1.0 + self.relative_error) / (1.0 - self.relative_error)
        self._log_gamma = np.log(self._gamma)
        self._counts = np.zeros(0, dtype=np.int64)
        self._index_offset = 0  # bucket index of _counts[0]
        self._low_count = 0  # scalars below min_value

    def _bucket_indices(self, values: np.ndarray) -> np.ndarray:
        return np.ceil(np.log(values) / self._log_gamma).astype(np.int64)

    def _ensure_span(self, lo: int, hi: int) -> None:
        """Grow the dense counter array to cover bucket indices [lo, hi]."""
        if self._counts.size == 0:
            span = hi - lo + 1
            if span > self.max_buckets:
                raise ValueError(
                    f"sketch span {span} buckets exceeds max_buckets={self.max_buckets}; "
                    "raise max_buckets or relative_error"
                )
            self._counts = np.zeros(span, dtype=np.int64)
            self._index_offset = lo
            return
        lo = min(lo, self._index_offset)
        hi = max(hi, self._index_offset + self._counts.size - 1)
        span = hi - lo + 1
        if span > self.max_buckets:
            raise ValueError(
                f"sketch span {span} buckets exceeds max_buckets={self.max_buckets}; "
                "raise max_buckets or relative_error"
            )
        if span == self._counts.size:
            return
        grown = np.zeros(span, dtype=np.int64)
        start = self._index_offset - lo
        grown[start : start + self._counts.size] = self._counts
        self._counts = grown
        self._index_offset = lo

    def _consume_scalars(self, scalars: np.ndarray, scenario_offset: int) -> None:
        scalars = np.asarray(scalars, dtype=float)
        if not np.isfinite(scalars).all():
            raise ValueError("quantile sketch requires finite per-scenario scalars")
        low = scalars < self.min_value
        self._low_count += int(low.sum())
        values = scalars[~low]
        if values.size == 0:
            return
        indices = self._bucket_indices(values)
        self._ensure_span(int(indices.min()), int(indices.max()))
        self._counts += np.bincount(
            indices - self._index_offset, minlength=self._counts.size
        ).astype(np.int64)

    def snapshot(self) -> SinkSnapshot:
        """Freeze the bucket counters (order-invariant shard state)."""
        self._require_bound()
        return SinkSnapshot(
            sink_type=type(self).__name__,
            num_scenarios=self._consumed,
            state={
                "quantiles": self.quantiles,
                "statistic": self.statistic,
                "relative_error": self.relative_error,
                "min_value": self.min_value,
                "counts": self._counts.copy(),
                "index_offset": self._index_offset,
                "low_count": self._low_count,
            },
        )

    def merge(self, snapshot: SinkSnapshot) -> None:
        """Fold a shard sketch by aligned counter addition (exact, bitwise).

        Counter addition is associative and commutative over integers, so
        any shard partition of the sweep merges to the identical sketch —
        the property the remote executor's work-stolen shards rely on.
        """
        self._begin_merge(snapshot)
        state = snapshot.state
        if (
            state["quantiles"] != self.quantiles
            or state["statistic"] != self.statistic
            or state["relative_error"] != self.relative_error
            or state["min_value"] != self.min_value
        ):
            raise ValueError(
                "cannot merge quantile sketches with different quantiles / statistic / "
                "relative_error / min_value"
            )
        other = np.asarray(state["counts"], dtype=np.int64)
        self._low_count += int(state["low_count"])
        if other.size:
            offset = int(state["index_offset"])
            self._ensure_span(offset, offset + other.size - 1)
            start = offset - self._index_offset
            self._counts[start : start + other.size] += other
        self._finish_merge(snapshot)

    def result(self) -> QuantileEstimate:
        """Quantiles from the bucket midpoints (relative error ≤ ``relative_error``)."""
        self._require_bound()
        total = self._low_count + int(self._counts.sum())
        if total == 0:
            values = np.full(len(self.quantiles), np.nan)
        else:
            ranks = np.floor(np.asarray(self.quantiles) * (total - 1)).astype(np.int64)
            cumulative = self._low_count + np.cumsum(self._counts)
            positions = np.searchsorted(cumulative, ranks, side="right")
            indices = positions + self._index_offset
            midpoints = 2.0 * np.exp(indices * self._log_gamma) / (self._gamma + 1.0)
            values = np.where(ranks < self._low_count, 0.0, midpoints)
        return QuantileEstimate(
            statistic=self.statistic,
            quantiles=self.quantiles,
            values=np.asarray(values, dtype=float),
            num_scenarios=self._consumed,
            exact=False,
        )


@dataclass(frozen=True)
class NodeHistogram:
    """Per-node IR-drop histogram accumulated over a sweep.

    Attributes:
        edges: ``(num_bins + 1,)`` ascending bin edges in volts.
        counts: ``(num_nodes, num_bins)`` scenario counts per node and bin;
            bin ``i`` covers ``[edges[i], edges[i+1])``, the last bin is
            closed on the right (``numpy.histogram`` semantics).
        underflow: Per-node count of scenarios below ``edges[0]``.
        overflow: Per-node count of scenarios above ``edges[-1]``.
        num_scenarios: Number of scenarios observed.
    """

    edges: np.ndarray
    counts: np.ndarray
    underflow: np.ndarray
    overflow: np.ndarray
    num_scenarios: int

    @property
    def total(self) -> np.ndarray:
        """``(num_nodes,)`` per-node total count including under/overflow."""
        return self.counts.sum(axis=1) + self.underflow + self.overflow


class NodeHistogramSink(IRDropSink):
    """Exact per-node IR-drop histograms with fixed bin edges.

    Counting is integral, so the accumulated histogram is bitwise-identical
    for every chunking of the same drops and equals a dense single-shot
    ``numpy.histogram`` per node over the same voltages.

    Every drop maps to a *slot*: 0 is underflow, ``i + 1`` is bin ``i`` and
    ``num_bins + 1`` is overflow, so slot ``s`` holds the drops ``x`` with
    ``bounds[s - 1] <= x < bounds[s]`` over the padded edges
    ``bounds = [e0, ..., e_{nb-1}, nextafter(e_nb, +inf)]`` (``-inf`` and
    ``+inf`` beyond the ends).  The ``nextafter`` closes the last bin on
    the right, as ``numpy.histogram`` does.  When every edge lies within
    half a bin of its uniform position (``np.linspace`` edges,
    :meth:`uniform`), the slot is estimated by arithmetic, as
    ``numpy.histogram`` does for uniform bins, and the estimate — at most
    one slot off — is corrected once in each direction against ``bounds``;
    other edges bin by ``searchsorted`` on the same ``bounds``.  The fold
    works through each chunk :data:`_SCRATCH_ROWS` rows at a time in
    reused estimate, slot and step arrays, and ``np.add.at`` counts every
    node's slots in place.  NaN drops are rejected; ``±inf`` count as
    underflow / overflow.

    Args:
        edges: Ascending bin edges in volts (``num_bins + 1`` values).
    """

    def __init__(self, edges: Sequence[float] | np.ndarray) -> None:
        super().__init__()
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-D array of at least two bin edges")
        if not np.all(np.isfinite(edges)):
            raise ValueError("edges must be finite; ±inf drops count as underflow / overflow")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly ascending")
        self.edges = edges
        num_bins = edges.size - 1
        self._bounds = np.append(edges[:-1], np.nextafter(edges[-1], np.inf))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = num_bins / (edges[-1] - edges[0])
            offsets = np.abs(edges - np.linspace(edges[0], edges[-1], num_bins + 1)) * scale
        uniform = np.isfinite(scale) and scale > 0 and np.all(offsets <= 0.5)
        self._scale = float(scale) if uniform else None
        self._slot_counts: np.ndarray | None = None

    @classmethod
    def uniform(cls, lo: float, hi: float, num_bins: int) -> "NodeHistogramSink":
        """Sink with ``num_bins`` equal-width bins spanning ``[lo, hi]``."""
        if num_bins < 1:
            raise ValueError("num_bins must be at least 1")
        if not hi > lo:
            raise ValueError("hi must be greater than lo")
        return cls(np.linspace(lo, hi, num_bins + 1))

    @property
    def num_bins(self) -> int:
        """Number of histogram bins."""
        return self.edges.size - 1

    def _on_bind(self, compiled: "CompiledGrid", num_scenarios: int) -> None:
        slots = self.num_bins + 2
        self._slot_counts = np.zeros((compiled.num_nodes, slots), dtype=np.int64)
        self._node_base = np.arange(compiled.num_nodes, dtype=np.intp) * slots

    def _slots(self, drops: np.ndarray) -> np.ndarray:
        """Slot of every drop of a row block (0 underflow, ``i + 1`` bin ``i``, last overflow)."""
        bounds = self._bounds
        if self._scale is None:
            return np.searchsorted(bounds, drops, side="right")
        # Clipping before the cast truncates like floor and keeps the
        # estimated bin b in [0, num_bins - 1], so the true slot is one of
        # b, b + 1, b + 2: b plus the number of bounds[b], bounds[b + 1]
        # the drop reaches.  ``estimate`` is reused for the looked-up bounds.
        count = drops.shape[0]
        estimate = self._scratch("estimate", float)[:count]
        slots = self._scratch("slots", np.intp)[:count]
        step = self._scratch("step", bool)[:count]
        with np.errstate(over="ignore"):
            np.subtract(drops, self.edges[0], out=estimate)
            estimate *= self._scale
        np.clip(estimate, 0, self.num_bins - 1, out=estimate)
        np.copyto(slots, estimate, casting="unsafe")
        lower = bounds.take(slots, mode="clip", out=estimate)
        np.greater_equal(drops, lower, out=step)
        upper = bounds[1:].take(slots, mode="clip", out=estimate)
        slots += step
        slots += np.greater_equal(drops, upper, out=step)
        return slots

    def _consume_drops(self, drops: np.ndarray, scenario_offset: int) -> None:
        if drops.size and np.isnan(drops.min()):
            row, node = np.argwhere(np.isnan(drops))[0]
            raise ValueError(
                f"{type(self).__name__}: NaN IR drop at scenario "
                f"{scenario_offset + int(row)}, node {int(node)}"
            )
        counts = self._slot_counts.reshape(-1)
        for _, rows in _row_blocks(drops):
            slots = self._slots(rows)
            slots += self._node_base
            np.add.at(counts, slots.ravel(), 1)

    def snapshot(self) -> SinkSnapshot:
        """Freeze the accumulated per-node counters."""
        self._require_bound()
        return SinkSnapshot(
            sink_type=type(self).__name__,
            num_scenarios=self._consumed,
            state={"edges": self.edges.copy(), "slot_counts": self._slot_counts.copy()},
        )

    def merge(self, snapshot: SinkSnapshot) -> None:
        """Add a shard's counters (exact — counting is associative)."""
        self._begin_merge(snapshot)
        if not np.array_equal(snapshot.state["edges"], self.edges):
            raise ValueError("cannot merge histograms with different bin edges")
        self._slot_counts += snapshot.state["slot_counts"]
        self._finish_merge(snapshot)

    def result(self) -> NodeHistogram:
        """The accumulated per-node histogram."""
        self._require_bound()
        return NodeHistogram(
            edges=self.edges,
            counts=self._slot_counts[:, 1:-1],
            underflow=self._slot_counts[:, 0],
            overflow=self._slot_counts[:, -1],
            num_scenarios=self._consumed,
        )


@dataclass(frozen=True)
class ExceedanceCounts:
    """Per-node exceedance statistics against an IR-drop threshold.

    Attributes:
        threshold: IR-drop threshold in volts (strict ``>`` comparison).
        counts: ``(num_nodes,)`` number of scenarios whose drop at the node
            exceeds the threshold.
        num_scenarios: Number of scenarios observed.
    """

    threshold: float
    counts: np.ndarray
    num_scenarios: int

    @property
    def rates(self) -> np.ndarray:
        """Per-node exceedance probability over the observed scenarios.

        NaN for every node when no scenario was observed — an undefined
        probability must not masquerade as "never exceeds".
        """
        if self.num_scenarios == 0:
            return np.full(self.counts.shape, np.nan)
        return self.counts / self.num_scenarios

    @property
    def worst_node_index(self) -> int:
        """Compiled index of the node exceeding the threshold most often."""
        return int(self.counts.argmax())

    @property
    def any_exceedance_scenarios(self) -> int:
        """Lower bound on scenarios with at least one exceeding node.

        The per-node counters cannot distinguish which scenarios overlap,
        so this is simply the maximum per-node count — a lower bound on
        the true 'any node exceeds' scenario count, exact when one node
        dominates.
        """
        return int(self.counts.max()) if self.counts.size else 0


class ExceedanceCountSink(IRDropSink):
    """Exact per-node counts of scenarios exceeding an IR-drop threshold.

    Integral counting makes the result bitwise-identical for every
    chunking, equal to ``(ir_drop > threshold).sum(axis=1)`` on the dense
    matrix.

    Args:
        threshold: IR-drop threshold in volts (strictly-greater counts).
    """

    def __init__(self, threshold: float) -> None:
        super().__init__()
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = float(threshold)
        self._exceed: np.ndarray | None = None

    def _on_bind(self, compiled: "CompiledGrid", num_scenarios: int) -> None:
        self._exceed = np.zeros(compiled.num_nodes, dtype=np.int64)

    def _consume_drops(self, drops: np.ndarray, scenario_offset: int) -> None:
        mask = self._scratch("mask", bool)
        for _, rows in _row_blocks(drops):
            above = np.greater(rows, self.threshold, out=mask[: rows.shape[0]])
            self._exceed += above.sum(axis=0)

    def snapshot(self) -> SinkSnapshot:
        """Freeze the accumulated per-node exceedance counters."""
        self._require_bound()
        return SinkSnapshot(
            sink_type=type(self).__name__,
            num_scenarios=self._consumed,
            state={"threshold": self.threshold, "counts": self._exceed.copy()},
        )

    def merge(self, snapshot: SinkSnapshot) -> None:
        """Add a shard's counters (exact — counting is associative)."""
        self._begin_merge(snapshot)
        if snapshot.state["threshold"] != self.threshold:
            raise ValueError("cannot merge exceedance counters with different thresholds")
        self._exceed += snapshot.state["counts"]
        self._finish_merge(snapshot)

    def result(self) -> ExceedanceCounts:
        """The accumulated exceedance counters."""
        self._require_bound()
        return ExceedanceCounts(
            threshold=self.threshold,
            counts=self._exceed,
            num_scenarios=self._consumed,
        )


@dataclass(frozen=True)
class JointExceedance:
    """Joint (per-scenario) exceedance statistics against an IR-drop threshold.

    Where :class:`ExceedanceCounts` counts scenarios per node — and can
    therefore only lower-bound "some node exceeds" probabilities — this
    reduction counts *violating nodes per scenario*, so the joint question
    is answered exactly.

    Attributes:
        threshold: IR-drop threshold in volts (strict ``>`` comparison).
        violating_node_counts: ``(max_violating_nodes + 1,)`` histogram:
            entry ``v`` is the number of scenarios with exactly ``v``
            nodes over the threshold (entry 0 = fully clean scenarios).
        num_scenarios: Number of scenarios observed.
    """

    threshold: float
    violating_node_counts: np.ndarray
    num_scenarios: int

    @property
    def scenarios_with_violation(self) -> int:
        """Exact count of scenarios where at least one node exceeds."""
        return int(self.violating_node_counts[1:].sum())

    @property
    def any_exceedance_rate(self) -> float:
        """P(≥ 1 node exceeds) over the observed scenarios.

        NaN when no scenario was observed — an undefined probability must
        not masquerade as "never exceeds".
        """
        if self.num_scenarios == 0:
            return float("nan")
        return self.scenarios_with_violation / self.num_scenarios

    @property
    def max_violating_nodes(self) -> int:
        """Largest number of simultaneously violating nodes seen."""
        nonzero = np.flatnonzero(self.violating_node_counts)
        return int(nonzero[-1]) if nonzero.size else 0


class JointExceedanceSink(IRDropSink):
    """Exact joint exceedance statistics: violating-node counts per scenario.

    Each scenario is reduced to its number of nodes over the threshold;
    the sink keeps the exact integer histogram of those counts.  Counting
    is associative, so the result is bitwise-identical for every chunking
    and merges exactly across process shards.

    Args:
        threshold: IR-drop threshold in volts (strictly-greater counts).
    """

    def __init__(self, threshold: float) -> None:
        super().__init__()
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = float(threshold)
        self._counts = np.zeros(1, dtype=np.int64)

    def _consume_drops(self, drops: np.ndarray, scenario_offset: int) -> None:
        mask = self._scratch("mask", bool)
        violating = np.empty(drops.shape[0], dtype=np.intp)
        for start, rows in _row_blocks(drops):
            above = np.greater(rows, self.threshold, out=mask[: rows.shape[0]])
            above.sum(axis=1, out=violating[start : start + rows.shape[0]])
        self._counts = _padded_add(self._counts, np.bincount(violating))

    def snapshot(self) -> SinkSnapshot:
        """Freeze the violating-node-count histogram."""
        self._require_bound()
        return SinkSnapshot(
            sink_type=type(self).__name__,
            num_scenarios=self._consumed,
            state={"threshold": self.threshold, "counts": self._counts.copy()},
        )

    def merge(self, snapshot: SinkSnapshot) -> None:
        """Add a shard's histogram (exact — counting is associative)."""
        self._begin_merge(snapshot)
        if snapshot.state["threshold"] != self.threshold:
            raise ValueError("cannot merge joint exceedance sinks with different thresholds")
        self._counts = _padded_add(self._counts, snapshot.state["counts"])
        self._finish_merge(snapshot)

    def result(self) -> JointExceedance:
        """The accumulated joint exceedance statistics."""
        self._require_bound()
        return JointExceedance(
            threshold=self.threshold,
            violating_node_counts=self._counts,
            num_scenarios=self._consumed,
        )


def _padded_add(accumulated: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Sum two 1-D integer histograms of possibly different lengths."""
    if extra.size > accumulated.size:
        accumulated = np.pad(accumulated, (0, extra.size - accumulated.size))
    accumulated[: extra.size] += extra
    return accumulated


@dataclass(frozen=True)
class TopKScenarios:
    """The ``k`` worst scenarios of a sweep, by per-scenario worst IR drop.

    Attributes:
        scenario_index: ``(k,)`` global scenario indices, worst first (ties
            break toward the lower index).
        worst_ir_drop: ``(k,)`` worst IR drop of each listed scenario.
        worst_node_index: ``(k,)`` compiled node index where each listed
            scenario's worst drop occurs.
        num_scenarios: Number of scenarios observed.
    """

    scenario_index: np.ndarray
    worst_ir_drop: np.ndarray
    worst_node_index: np.ndarray
    num_scenarios: int

    @property
    def k(self) -> int:
        """Number of scenarios retained."""
        return len(self.scenario_index)


class TopKScenarioSink(IRDropSink):
    """Exact top-k worst scenarios with their indices and worst nodes.

    Selection by ``(worst drop descending, scenario index ascending)`` is
    associative, so merging chunk-local candidates into the running top-k
    yields the identical shortlist for every chunking — bitwise equal to
    sorting the dense per-scenario worst vector.

    Args:
        k: Number of worst scenarios to retain.
    """

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._values = np.empty(0, dtype=float)
        self._indices = np.empty(0, dtype=np.int64)
        self._nodes = np.empty(0, dtype=np.int64)

    def _consume_drops(self, drops: np.ndarray, scenario_offset: int) -> None:
        values = np.concatenate((self._values, drops.max(axis=1)))
        nodes = np.concatenate((self._nodes, drops.argmax(axis=1)))
        indices = np.concatenate(
            (self._indices, scenario_offset + np.arange(drops.shape[0], dtype=np.int64))
        )
        order = np.lexsort((indices, -values))[: self.k]
        self._values = values[order]
        self._indices = indices[order]
        self._nodes = nodes[order]

    def snapshot(self) -> SinkSnapshot:
        """Freeze the shortlist (scenario indices stay shard-local)."""
        self._require_bound()
        return SinkSnapshot(
            sink_type=type(self).__name__,
            num_scenarios=self._consumed,
            state={
                "k": self.k,
                "values": self._values.copy(),
                "indices": self._indices.copy(),
                "nodes": self._nodes.copy(),
            },
        )

    def merge(self, snapshot: SinkSnapshot) -> None:
        """Union a shard's shortlist (exact — selection is associative).

        The shard's scenario indices are re-based onto this sink's current
        offset, so merging shards in ascending order reproduces the global
        indices — and therefore the exact sequential shortlist, including
        tie-breaks toward the lower index.
        """
        offset = self._begin_merge(snapshot)
        if snapshot.state["k"] != self.k:
            raise ValueError("cannot merge top-k sinks with different k")
        values = np.concatenate((self._values, snapshot.state["values"]))
        indices = np.concatenate((self._indices, snapshot.state["indices"] + offset))
        nodes = np.concatenate((self._nodes, snapshot.state["nodes"]))
        order = np.lexsort((indices, -values))[: self.k]
        self._values = values[order]
        self._indices = indices[order]
        self._nodes = nodes[order]
        self._finish_merge(snapshot)

    def result(self) -> TopKScenarios:
        """The accumulated shortlist, worst scenario first."""
        self._require_bound()
        return TopKScenarios(
            scenario_index=self._indices,
            worst_ir_drop=self._values,
            worst_node_index=self._nodes,
            num_scenarios=self._consumed,
        )

    def rematerialize(
        self,
        engine: "BatchedAnalysisEngine",
        network: "PowerGridNetwork | CompiledGrid",
        scenario_source: "ScenarioSource",
        names: Sequence[str] | None = None,
    ) -> "list[IRDropResult]":
        """Replay the shortlisted scenarios unsharded, as full results.

        Streamed sweeps keep only reductions and sink states; this closes
        the triage loop: the shortlisted scenario indices are regenerated
        one row at a time through ``scenario_source`` (the same pure
        function of the scenario range the sweep ran on — e.g. a
        :class:`~repro.analysis.engine.CrossProductScenarioSource` for a
        mega-sweep) and solved through the unsharded batch path, so each
        worst offender comes back as a complete
        :class:`~repro.analysis.irdrop.IRDropResult` with per-node
        voltages and drops.

        Args:
            engine: The analysis engine to solve the replay with (reuses
                its cached factorization when the sweep ran on it).
            network: The grid (or compiled grid) the sweep analysed.
            scenario_source: Chunk generator covering the swept range.
            names: Optional per-result names (default
                ``"scenario <index>"``).

        Returns:
            One :class:`IRDropResult` per shortlisted scenario, worst
            first (aligned with :attr:`TopKScenarios.scenario_index`).
        """
        self._require_bound()
        if self._indices.size == 0:
            return []
        load_rows: list[np.ndarray] = []
        pad_rows: list[np.ndarray] = []
        for index in self._indices:
            loads, pads = scenario_source(int(index), int(index) + 1)
            if loads is not None:
                load_rows.append(np.asarray(loads, dtype=float).reshape(1, -1))
            if pads is not None:
                pad_rows.append(np.asarray(pads, dtype=float).reshape(1, -1))
        if len(load_rows) not in (0, self._indices.size) or len(pad_rows) not in (
            0,
            self._indices.size,
        ):
            raise ValueError(
                "scenario source must return loads / pad voltages consistently "
                "for every scenario"
            )
        if not load_rows and not pad_rows:
            raise ValueError("scenario source returned neither loads nor pad voltages")
        load_matrix = np.vstack(load_rows) if load_rows else None
        pad_matrix = np.vstack(pad_rows) if pad_rows else None
        if names is None:
            names = tuple(f"scenario {int(index)}" for index in self._indices)
        if pad_matrix is not None:
            batch = engine.analyze_pad_batch(
                network, pad_matrix, load_matrix=load_matrix, names=names
            )
        else:
            batch = engine.analyze_batch(network, load_matrix, names=names)
        return batch.results()
