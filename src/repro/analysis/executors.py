"""Pluggable sweep-execution layer for chunked / streamed scenario sweeps.

:class:`~repro.analysis.engine.BatchedAnalysisEngine` describes *what* a
sweep is — a scenario source, a chunk width, reductions and sinks.  This
module decides *how* it runs.  A :class:`SweepExecutor` receives the
engine's :class:`SweepPlan` and drives the chunk pipeline.

One local executor, :class:`HybridExecutor`, covers the whole
``(shards × threads)`` grid, and :func:`make_executor` names its rows:

=============  =======  ====================================================
name           shape    what runs
=============  =======  ====================================================
``serial``     1 × 1    produce → solve → fold on the calling thread
``threads``    1 × t    chunk solves on ``t`` threads, one ordered fold
``processes``  s × 1    ``s`` process shards, a serial pipeline in each
``hybrid``     s × t    ``s`` process shards, ``t`` solver threads in each
=============  =======  ====================================================

A sweep chooses its executor, and with it all of its parallelism, through
the engine's one ``executor=`` argument: an instance, or one of the names
(``remote`` included) for :func:`make_executor`.  Without it the sweep
runs on the :data:`EXECUTOR_ENV` executor, or serially when that is
unset.

A single shard *is* the engine's in-process chunk pipeline: the source is
called from the calling thread in ascending order, chunk solves run on
``t`` threads (SuperLU releases the GIL) and finished chunks fold FIFO,
so every result — every sink included, P² too — is bitwise-identical to
the serial sweep.  Several shards split the *scenario range* across a
``ProcessPoolExecutor``: each worker runs that pipeline over its
sub-range with fresh copies of the sinks, and the parent merges the
shard reductions (exact by construction — per-scenario reductions are
chunk-local) and the shard sink snapshots through the
:class:`~repro.analysis.sinks.MergeableSink` protocol, so the fold itself
runs in parallel.  The remote executor (:mod:`repro.analysis.remote`)
ships the same shards to a coordinator's worker fleet.

Executors are stateless between calls (pools are created per sweep), so
one instance can be shared across engines and sweeps.  The local
executor also publishes a ``last_stats`` dict (shard / thread / task
counts, payload bytes, rebalances) describing the *most recent*
``execute`` call — observability only, overwritten per sweep.

Worker context
--------------

Sharded sweeps prefer the ``fork`` start method (:func:`start_context`).
Under ``fork`` nothing ships: the parent factors the grid, builds the
workers' context — the compiled grid with its lazily-built arrays
warmed, the scenario source (a cross product's per-row parts
included), unbound copies of the sinks and a
single-threaded engine already holding the parent's cached
factorization (:meth:`~repro.analysis.engine.BatchedAnalysisEngine.shard_engine`)
— and hands it to the pool initializer as a live object the forked
children inherit.  No worker unpickles a grid or factors it again, and
every shard solves with the very factors the parent's own solves use.

Under ``spawn`` / ``forkserver`` the initializer receives the pickled
sweep payload (:func:`pickle_sweep_payload`) — the same bytes a remote
worker loads — and each worker rebuilds it with :func:`load_shard_state`
and factors the grid once.

Sharding contract
-----------------

Whatever the start method, a sweep on more than one shard needs every
sink to implement :class:`~repro.analysis.sinks.MergeableSink`
(``P2QuantileSink`` is order-dependent and rejected with a pointer to the
quantile sketch) and a picklable scenario source and sinks — the
engine's own sources (matrix slices, cross products, the vectorless
budget sampler) are; ad-hoc lambdas and closures are not.
:func:`require_shardable` checks both with a cheap pickle probe, so a
sweep is accepted or rejected the same way on every platform and for
every scenario count.  Incompatible sweeps raise
:class:`ExecutorIncompatibility` *before* any sink observes the sweep —
the engine downgrades to the in-process pipeline instead when the
executor was only an environment default (:data:`EXECUTOR_ENV`), so
exporting ``REPRO_TEST_EXECUTOR=processes`` runs an entire test suite
process-sharded wherever that is well-defined.

Exactness: shard boundaries fall on the sequential sweep's chunk
boundaries (:func:`shard_ranges`), so every shard solves the very RHS
blocks the sequential sweep solves, and the streamed worst / mean /
worst-node reductions and every *exact* sink (histogram, exceedance,
joint exceedance, top-k, quantile sketch) are bitwise-identical to the
sequential sweep for every shape and start method, on resized clones
(:meth:`~repro.grid.compiled.CompiledGrid.with_conductances`) too:
``fork`` shards solve with the parent's factorization, and ``spawn`` /
``forkserver`` workers factor the same matrix with the same backend.
P² does not merge at all: sharded quantiles come from the quantile
sketch.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import pickle
import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .sinks import MergeableSink, ScenarioSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..grid.compiled import CompiledGrid
    from .engine import BatchedAnalysisEngine, BatchReductions, ScenarioSource

EXECUTOR_ENV = "REPRO_TEST_EXECUTOR"
"""Environment variable supplying the engine's default sweep executor.

Lets CI (and local runs) push the whole test suite through one execution
strategy without touching any call site: every chunked / streamed sweep
that passes no ``executor=`` uses this strategy, built by
:func:`make_executor` from its name alone.  Accepted values are the
:data:`EXECUTOR_NAMES`; unset or empty means ``serial``.  Sweeps a
strategy cannot run (non-mergeable sinks or an unpicklable source under
``processes``) fall back to the serial pipeline with a
:class:`RuntimeWarning` — an explicit ``executor=`` argument raises
instead.
"""

EXECUTOR_NAMES = ("serial", "threads", "processes", "hybrid", "remote")
"""Names accepted by :func:`make_executor` (and :data:`EXECUTOR_ENV`)."""

MAX_OVERSUBSCRIBE = 8
"""Upper bound on tail pieces per shard worker after a re-split, so
per-task overhead stays bounded."""


class ExecutorIncompatibility(ValueError):
    """A sweep cannot run on the requested executor as specified.

    Raised *before* any sink observes the sweep, so the engine can fall
    back to the in-process pipeline when the executor was only an
    environment default.
    """


@dataclass(frozen=True)
class SweepPlan:
    """Everything an executor needs to drive one chunked sweep.

    Attributes:
        engine: The engine that owns the factorization cache and the
            chunk pipeline.
        compiled: The compiled grid every scenario is solved on.
        scenario_source: Chunk generator; a pure function of the half-open
            scenario range (see
            :data:`~repro.analysis.engine.ScenarioSource`).
        num_scenarios: Total number of scenarios to sweep.
        chunk_size: RHS chunk width of the solve pipeline.
        sinks: Scenario sinks observing the sweep, in caller order.
    """

    engine: "BatchedAnalysisEngine"
    compiled: "CompiledGrid"
    scenario_source: "ScenarioSource"
    num_scenarios: int
    chunk_size: int
    sinks: tuple[ScenarioSink, ...]


class SweepExecutor(ABC):
    """Strategy driving the chunk pipeline of one scenario sweep.

    Contract: :meth:`execute` must (1) bind every sink in ``plan.sinks``
    to the full sweep exactly once, (2) ensure each scenario is folded
    into the reductions and every sink exactly once in ascending scenario
    order, and (3) return the per-scenario reductions and the
    factorization-reuse flag.  Any incompatibility with the plan must raise
    :class:`ExecutorIncompatibility` before the first sink is bound.
    """

    @property
    @abstractmethod
    def name(self) -> str:
        """The executor's entry in :data:`EXECUTOR_NAMES`."""

    @property
    @abstractmethod
    def parallelism(self) -> int:
        """Worker count the sweep runs with (1 = sequential)."""

    @abstractmethod
    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool]":
        """Run the sweep; return ``(reductions, reused)``."""


class HybridExecutor(SweepExecutor):
    """The local executor: process shards, each running the threaded chunk pipeline.

    Multiplies the repo's two scaling axes: the scenario range is split
    across ``shard_workers`` worker processes (parallel folds — the
    process axis), and *within* each shard the chunk solves run on
    ``threads_per_shard`` solver threads (SuperLU releases the GIL — the
    thread axis).  Effective parallelism is the product, which is exactly
    what :attr:`parallelism` reports: up to ``shard_workers ×
    threads_per_shard`` chunks are in flight at once, each of the
    cache-sized width :func:`~repro.analysis.engine.resolve_chunk_size`
    picks.  :attr:`name` is the row of the module's shape table.

    With ``shard_workers == 1`` :meth:`execute` is the engine's
    in-process chunk pipeline at ``threads_per_shard`` threads: no pool,
    no pickling, and any sink (P² included) or source (closures
    included) runs.  With more shards the sweep must pass
    :func:`require_shardable` — whatever its scenario count — and the
    parent factors the grid first, so follow-up
    single solves — e.g.
    :meth:`~repro.analysis.sinks.TopKScenarioSink.rematerialize` — reuse
    it and the usual one-factorization-per-sweep accounting holds.  Each
    worker installs the sweep's context once (:func:`shard_worker_context`):
    under ``fork`` it inherits the parent's compiled grid and cached
    factorization, so nothing is pickled and no worker factors; under
    ``spawn`` / ``forkserver`` it loads the pickled payload and factors
    the grid once.

    Exactness is inherited three times over: every shard range is whole
    chunks of the serial sweep, so a shard solves the serial sweep's RHS
    blocks; the threaded pipeline is bitwise-identical to serial within
    each shard; and shard snapshots merge in ascending range order — so
    every result, including every exact sink, is bitwise-identical to
    the serial sweep for every ``(shards, threads, chunk_size)``
    combination and every start method: a worker that factors the grid
    itself factors the same matrix with the same backend as the parent.

    Cost-based auto-balancing: only about half the chunks are committed
    up-front (one task per shard worker).  The first task to complete
    prices a scenario, and the held-back tail is re-split into pieces of
    whole chunks sized from that measured cost — small enough that a
    straggler worker holds one piece instead of a fixed share of the
    sweep, bounded by :data:`MAX_OVERSUBSCRIBE` pieces per worker.  Fast
    workers drain more tail pieces from the pool's pull-based queue.
    Outcomes fold in ascending range order regardless of completion
    order, so balancing never affects results.

    Memory: each shard holds ``O(num_nodes * chunk_size * threads_per_shard)``
    chunk state.  Forked workers share the parent's grid and
    factorization copy-on-write; ``spawn`` / ``forkserver`` workers each
    hold an unpickled copy of the grid and a factorization.

    Args:
        shard_workers: Worker processes / scenario shards.  ``None``
            auto-resolves from ``os.cpu_count()`` (at least 2, so the
            sharded path is exercised even on small hosts).
        threads_per_shard: Solver threads inside each shard.  ``None``
            auto-resolves so the product roughly matches the host CPU
            count.
        start_method: ``multiprocessing`` start method of the shard
            workers; ``None`` prefers ``fork`` where available
            (:func:`start_context`).
    """

    def __init__(
        self,
        shard_workers: int | None = None,
        threads_per_shard: int | None = None,
        start_method: str | None = None,
    ) -> None:
        cpu = os.cpu_count() or 1
        if shard_workers is None:
            shard_workers = max(2, cpu // (threads_per_shard or 2))
        if shard_workers < 1:
            raise ValueError("shard_workers must be at least 1")
        if threads_per_shard is None:
            threads_per_shard = max(1, min(4, cpu // shard_workers))
        if threads_per_shard < 1:
            raise ValueError("threads_per_shard must be at least 1")
        start_context(start_method)
        self.shard_workers = shard_workers
        self.threads_per_shard = threads_per_shard
        self.start_method = start_method
        self.last_stats: dict = {}

    @property
    def name(self) -> str:
        """``serial``, ``threads``, ``processes`` or ``hybrid``, by shape."""
        if self.shard_workers == 1:
            return "serial" if self.threads_per_shard == 1 else "threads"
        return "processes" if self.threads_per_shard == 1 else "hybrid"

    @property
    def parallelism(self) -> int:
        """Effective parallel width: ``shard_workers × threads_per_shard``.

        Every shard keeps ``threads_per_shard`` chunks in flight at
        once, so this product bounds the in-flight chunk count; the chunk
        width itself does not depend on it.
        """
        return self.shard_workers * self.threads_per_shard

    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool]":
        engine, compiled, sinks = plan.engine, plan.compiled, plan.sinks
        if self.shard_workers > 1:
            require_shardable(plan, self.name)
        shards = min(self.shard_workers, -(-plan.num_scenarios // plan.chunk_size))
        if shards <= 1:
            self._record(shards=1)
            return engine._run_chunk_pipeline(
                compiled,
                plan.scenario_source,
                plan.num_scenarios,
                plan.chunk_size,
                sinks,
                threads=self.threads_per_shard,
            )
        _, reused = engine._factor(compiled)
        pool_arguments, payload_bytes = shard_worker_context(
            plan, self.start_method, self.threads_per_shard
        )
        for sink in sinks:
            sink.bind(compiled, plan.num_scenarios)
        with ProcessPoolExecutor(max_workers=shards, **pool_arguments) as pool:
            outcomes, rebalances = self._drive(
                pool, plan.num_scenarios, shards, plan.chunk_size
            )
        self._record(shards, payload_bytes, rebalances, tasks=len(outcomes))
        return fold_shard_outcomes(plan, outcomes, reused)

    def _record(
        self, shards: int, payload_bytes: int = 0, rebalances: int = 0, tasks: int = 1
    ) -> None:
        self.last_stats = {
            "shards": shards,
            "threads_per_shard": self.threads_per_shard,
            "payload_bytes_shared": payload_bytes,
            "rebalances": rebalances,
            "tasks": tasks,
        }

    @staticmethod
    def _drive(
        pool: ProcessPoolExecutor, num_scenarios: int, shards: int, chunk_size: int
    ) -> tuple[list[tuple], int]:
        """Submit shard tasks, re-splitting the held-back tail by cost.

        The head and every tail piece are whole chunks of the serial
        sweep (:func:`shard_ranges`).  Returns the shard outcome tuples
        sorted ascending by range start (coverage of
        ``[0, num_scenarios)`` is exact by construction) and the number
        of rebalance events.
        """
        num_chunks = -(-num_scenarios // chunk_size)
        head_chunks = max(shards, num_chunks // 2)
        if num_chunks - head_chunks < shards:
            head_chunks = num_chunks  # tail too small to be worth re-splitting
        head = min(num_scenarios, head_chunks * chunk_size)
        start = time.perf_counter()
        pending = {
            pool.submit(_solve_shard, begin, end)
            for begin, end in shard_ranges(head, shards, chunk_size)
        }
        outcomes: list[tuple] = []
        rebalances = 0
        tail = num_scenarios - head
        if tail:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            elapsed = time.perf_counter() - start
            probed = [future.result() for future in done]
            outcomes.extend(probed)
            probe = max(end - begin for begin, end, *_ in probed)
            rate = probe / max(elapsed, 1e-9)  # scenarios/second of one shard worker
            # Aim each tail piece at a quarter of the probe's wall-clock
            # (but >= ~50 ms so per-task overhead stays negligible).
            per_piece = max(1, int(rate * max(elapsed / 4.0, 0.05)))
            pieces = min(shards * MAX_OVERSUBSCRIBE, max(shards, -(-tail // per_piece)))
            tail_ranges = shard_ranges(tail, pieces, chunk_size)
            if len(tail_ranges) > shards:
                rebalances = 1
            for begin, end in tail_ranges:
                pending.add(pool.submit(_solve_shard, head + begin, head + end))
        outcomes.extend(future.result() for future in pending)
        outcomes.sort(key=lambda outcome: outcome[0])
        return outcomes, rebalances

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HybridExecutor(shard_workers={self.shard_workers}, "
            f"threads_per_shard={self.threads_per_shard})"
        )


def make_executor(name: str, workers: int | None = None) -> SweepExecutor:
    """Build an executor from its CLI / environment name.

    This is how a sweep's parallelism is chosen by name: the engine's
    ``executor=`` arguments and :data:`EXECUTOR_ENV` call it with the
    name alone, and ``repro sweep`` passes ``--workers``.

    Args:
        name: One of :data:`EXECUTOR_NAMES`.
        workers: Parallelism, at least 1 — threads for ``threads``
            (``None``: the CPU count), shards for ``processes`` (``None``:
            ``max(2, cpu_count)``), shard workers for ``hybrid`` (whose
            per-shard threads auto-resolve), the worker hint for
            ``remote``.  ``serial`` accepts only ``None`` / 1.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cpu = os.cpu_count() or 1
    if name == "serial":
        if workers not in (None, 1):
            raise ValueError("the serial executor runs single-threaded; do not pass workers")
        return HybridExecutor(1, 1)
    if name == "threads":
        return HybridExecutor(1, cpu if workers is None else workers)
    if name == "processes":
        return HybridExecutor(max(2, cpu) if workers is None else workers, 1)
    if name == "hybrid":
        return HybridExecutor(shard_workers=workers)
    if name == "remote":
        from .remote import RemoteExecutor

        return RemoteExecutor(workers=workers)
    raise ValueError(f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}")


# ----------------------------------------------------------------------
# Shared shard machinery (local process shards and remote workers)
# ----------------------------------------------------------------------
def require_shardable(plan: SweepPlan, executor_name: str) -> None:
    """Reject a sweep that cannot run on process or remote shards.

    Every sink must merge across shards (:class:`MergeableSink`), and the
    scenario source and sinks must pickle: spawned and remote workers
    unpickle them, and forked ones are held to the same contract so a
    sweep is accepted or rejected the same way on every platform.  The
    pickle is a protocol-5 probe that discards the out-of-band buffers
    (microseconds; the grid always pickles).  Raises
    :class:`ExecutorIncompatibility` before any sink binds, so an
    environment-default executor can downgrade the sweep to the
    in-process pipeline instead of failing.
    """
    non_mergeable = sorted(
        {type(sink).__name__ for sink in plan.sinks if not isinstance(sink, MergeableSink)}
    )
    if non_mergeable:
        raise ExecutorIncompatibility(
            f"sinks {non_mergeable} cannot merge across {executor_name} shards "
            "(their state is order-dependent); use mergeable sinks — e.g. "
            "QuantileSketchSink instead of P2QuantileSink — or the "
            "threads executor"
        )
    try:
        pickle.dumps(
            (plan.scenario_source, plan.sinks), protocol=5, buffer_callback=lambda _: None
        )
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ExecutorIncompatibility(
            f"{executor_name} shards need a picklable scenario source and "
            "picklable sinks (spawned and remote workers unpickle them); use a "
            "picklable source (e.g. MatrixScenarioSource / "
            f"CrossProductScenarioSource) or the threads executor: {exc}"
        ) from exc


def start_context(start_method: str | None) -> mp.context.BaseContext:
    """The ``multiprocessing`` context sharded sweeps start workers with.

    ``None`` prefers ``fork`` where the platform offers it — the workers
    then inherit their context instead of unpickling it (see
    :func:`shard_worker_context`) — and the platform default elsewhere.
    :class:`HybridExecutor` calls this from its constructor too, so an
    unavailable method fails at construction instead of at the first
    sweep.
    """
    methods = mp.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in methods else None
    elif start_method not in methods:
        raise ValueError(f"start_method {start_method!r} not available; choose from {methods}")
    return mp.get_context(start_method)


def shard_worker_context(
    plan: SweepPlan, start_method: str | None, threads: int = 1
) -> tuple[dict[str, Any], int]:
    """The worker-pool arguments of one sharded sweep and the bytes they ship.

    Call after :func:`require_shardable` accepted the plan and the parent
    factored ``plan.compiled``, and before any sink binds.  Returns
    ``(pool_arguments, payload_bytes_shared)``: the
    :class:`~concurrent.futures.ProcessPoolExecutor` keywords — the
    :func:`start_context` of ``start_method`` and the pool initializer
    with its argument — and the size of the serialized context.

    Under ``fork`` the initializer argument is the worker state itself,
    built here and inherited by the children with the parent's memory:
    the compiled grid with its lazily-built arrays warmed (as the
    threaded pipeline does), the source — a cross product with its
    per-row parts already built — unbound deep copies of the sinks, and
    a single-threaded engine holding the parent's cached factorization
    (:meth:`~repro.analysis.engine.BatchedAnalysisEngine.shard_engine`).
    Nothing ships, so the byte count is 0.  Under any other start method
    it is the :func:`pickle_sweep_payload` bytes, which each worker
    rebuilds with :func:`load_shard_state` (a cross product's parts are
    rebuilt from its two matrices on the worker's first task, at
    ``O((loads + pad rows) · nodes)``).
    """
    mp_context = start_context(start_method)
    pool_arguments: dict[str, Any] = dict(mp_context=mp_context, initializer=_init_shard_worker)
    if mp_context.get_start_method() != "fork":
        payload = pickle_sweep_payload(plan, threads)
        return dict(pool_arguments, initargs=(payload,)), len(payload)
    compiled = plan.compiled
    compiled.reduced_matrix
    compiled.pad_rhs
    compiled.pad_incidence
    # A cross product's per-row parts are cached on its source, which the
    # children inherit with everything else.
    plan.engine._chunk_layout(compiled, plan.scenario_source)
    state = dict(
        engine=plan.engine.shard_engine(compiled),
        compiled=compiled,
        source=plan.scenario_source,
        chunk_size=plan.chunk_size,
        sink_prototypes=copy.deepcopy(plan.sinks),
        threads=threads,
    )
    return dict(pool_arguments, initargs=(state,)), 0


def pickle_sweep_payload(plan: SweepPlan, threads: int = 1) -> bytes:
    """Pickle one sweep's worker context (engine config, grid, source, sinks).

    The payload is what shard workers — spawned local processes or remote
    worker processes — unpickle via :func:`load_shard_state` to rebuild
    the sweep on their side.  ``threads`` is the solver-thread count each
    worker runs its chunk pipeline with (1 = the serial pipeline).  Check
    the plan with :func:`require_shardable` first: that is where an
    unpicklable source or sink raises :class:`ExecutorIncompatibility`.
    """
    engine = plan.engine
    plan.compiled.fingerprint  # hash once here; workers inherit the digest
    engine_config = {"cache_size": engine.cache_size}
    return pickle.dumps(
        (engine_config, plan.compiled, plan.scenario_source, plan.chunk_size, plan.sinks, threads),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_shard_state(payload: bytes) -> dict:
    """Rebuild the worker-side sweep context from a pickled payload.

    The worker's engine mirrors the parent's cache size and factors the
    grid with the same backend, so shards solve exactly the way the
    parent would have.
    """
    from .engine import BatchedAnalysisEngine

    engine_config, compiled, source, chunk_size, sink_prototypes, threads = pickle.loads(payload)
    return dict(
        engine=BatchedAnalysisEngine(**engine_config),
        compiled=compiled,
        source=source,
        chunk_size=chunk_size,
        sink_prototypes=sink_prototypes,
        threads=threads,
    )


def solve_shard_range(state: dict, begin: int, end: int) -> tuple:
    """Run the chunk pipeline over ``[begin, end)`` of one sweep.

    The shard runs as its own sweep of ``end - begin`` scenarios: the
    source is called (and its chunks validated) at the sweep's global
    indices, while fresh sink copies observe shard-local offsets —
    :meth:`MergeableSink.merge` re-bases any indices when the parent
    folds the snapshots back together.  The pipeline runs at the
    context's ``threads`` count (1 = serial) — the threaded pipeline is
    bitwise-identical to serial, so the shard result does not depend on
    it.
    """
    sinks: Sequence[ScenarioSink] = copy.deepcopy(state["sink_prototypes"])
    reductions, reused = state["engine"]._run_chunk_pipeline(
        state["compiled"],
        state["source"],
        end - begin,
        state["chunk_size"],
        sinks,
        threads=state["threads"],
        first=begin,
    )
    return (
        begin,
        end,
        reductions.worst_ir_drop,
        reductions.average_ir_drop,
        reductions.worst_node_index,
        reused,
        tuple(sink.snapshot() for sink in sinks),
    )


def shard_ranges(num_scenarios: int, shards: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split ``[0, num_scenarios)`` into contiguous ranges of whole chunks.

    Every inner bound is a multiple of ``chunk_size``, so a shard that
    chunks its range from its own start solves exactly the RHS blocks
    the serial sweep solves there — SuperLU's multi-RHS solve can move a
    voltage in the last bit with the block width.  The ranges hold
    near-equal chunk counts, and none is empty: a sweep of fewer chunks
    than ``shards`` gets one range per chunk.
    """
    num_chunks = -(-num_scenarios // chunk_size)
    bounds = sorted(
        {min(num_scenarios, num_chunks * i // shards * chunk_size) for i in range(shards + 1)}
    )
    return list(zip(bounds[:-1], bounds[1:]))


def fold_shard_outcomes(
    plan: SweepPlan, outcomes: Sequence[tuple], reused: bool
) -> "tuple[BatchReductions, bool]":
    """Scatter shard reductions and merge shard snapshots, ascending.

    ``outcomes`` holds one :func:`solve_shard_range` tuple per shard, in
    ascending ``begin`` order, covering ``[0, plan.num_scenarios)``
    exactly.  Sinks must already be bound to the full sweep.
    """
    from .engine import BatchReductions

    num_scenarios = plan.num_scenarios
    worst = np.empty(num_scenarios, dtype=float)
    average = np.empty(num_scenarios, dtype=float)
    worst_index = np.empty(num_scenarios, dtype=np.int64)
    for begin, end, shard_worst, shard_avg, shard_index, shard_reused, snaps in outcomes:
        worst[begin:end] = shard_worst
        average[begin:end] = shard_avg
        worst_index[begin:end] = shard_index
        reused = reused or shard_reused
        for sink, snapshot in zip(plan.sinks, snaps):
            sink.merge(snapshot)
    reductions = BatchReductions(
        worst_ir_drop=worst, average_ir_drop=average, worst_node_index=worst_index
    )
    return reductions, reused


_WORKER_STATE: dict = {}
"""Per-worker sweep context, installed once by the pool initializer."""


def _init_shard_worker(initarg: "dict | bytes") -> None:
    """Install the sweep context into this worker (see :func:`shard_worker_context`).

    A dict is the parent's live state, inherited under ``fork``; bytes
    are a :func:`pickle_sweep_payload` to load.
    """
    _WORKER_STATE.update(initarg if isinstance(initarg, dict) else load_shard_state(initarg))


def _solve_shard(begin: int, end: int) -> tuple:
    """Pool-worker entry: solve ``[begin, end)`` from the installed context."""
    return solve_shard_range(_WORKER_STATE, begin, end)
