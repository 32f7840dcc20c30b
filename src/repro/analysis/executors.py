"""Pluggable sweep-execution layer for chunked / streamed scenario sweeps.

:class:`~repro.analysis.engine.BatchedAnalysisEngine` describes *what* a
sweep is — a scenario source, a chunk width, reductions and sinks.  This
module decides *how* it runs.  A :class:`SweepExecutor` receives the
engine's :class:`SweepPlan` and drives the chunk pipeline:

* :class:`SerialExecutor` — produce → solve → fold on the calling thread.
* :class:`ThreadedExecutor` — the PR-4 pipeline: chunk solves on a thread
  pool (SuperLU releases the GIL) while the calling thread folds finished
  chunks in ascending scenario order.  Bitwise-identical to serial for
  every result, including every sink.
* :class:`ProcessShardedExecutor` — splits the *scenario range* into
  contiguous shards across a ``ProcessPoolExecutor``.  Each worker process
  runs the serial pipeline over its shard with fresh copies of the
  sinks; the parent merges the shard reductions
  (exact by construction — per-scenario reductions are chunk-local) and
  the shard sink snapshots via the
  :class:`~repro.analysis.sinks.MergeableSink` protocol.  This is the
  executor that scales past the GIL-bound fold: the sink/reduction fold
  itself runs in parallel, one fold per shard.
* :class:`HybridExecutor` — multiplies the two axes: process shards as
  above, each running the *threaded* chunk pipeline over its sub-range
  (``shard_workers × threads_per_shard`` effective parallelism), with
  cost-based auto-balancing — the first completed shard prices the
  remaining work, which is re-split finely enough that a straggler shard
  cannot dominate the sweep's wall-clock.

Executors are stateless between calls (pools are created per sweep), so
one instance can be shared across engines and sweeps.  The sharded
executors additionally publish a ``last_stats`` dict (shard / thread
counts, shared-payload bytes, rebalances) describing the *most recent*
``execute`` call — observability only, overwritten per sweep.

Worker context
--------------

The two local sharded executors prefer the ``fork`` start method
(:func:`start_context`).  Under ``fork`` nothing ships: the parent
factors the grid, builds the workers' context — the compiled grid with
its lazily-built arrays warmed, the scenario source, unbound copies of
the sinks and a single-threaded engine already holding the parent's
cached factorization (:meth:`~repro.analysis.engine.BatchedAnalysisEngine.shard_engine`)
— and hands it to the pool initializer as a live object the forked
children inherit.  No worker unpickles a grid or factors it again, and
every shard solves with the very factors the parent's own solves use.

Under ``spawn`` / ``forkserver`` (and for the remote executor's embedded
fleet) the context is serialised instead, without re-pickling the grid
into every worker: :class:`SharedGridPayload` pickles it once with
out-of-band buffers (pickle protocol 5) and places the buffer bytes —
the compiled grid's CSR/COO arrays and the scenario matrices — into a
single :mod:`multiprocessing.shared_memory` segment.  Workers re-attach
the segment by name and rebuild the context as views over the mapping,
so a 100 MB grid costs one copy for any number of shards; each such
worker then factors the grid once itself.  Lifetime is explicit: the
parent owns the segment and unlinks it when the sweep leaves the
``with`` block (success *or* error); children only attach.  Where
shared memory is unavailable the payload silently degrades to the
classic in-band pickle with a :class:`RuntimeWarning` naming the
executor — results are identical either way.

Process-sharding contract
-------------------------

Whatever the start method, the scenario source and every sink must be
picklable — the engine's own sources (matrix slices, cross products,
the vectorless budget sampler) are; ad-hoc lambdas and closures are
not.  Under ``fork`` only a cheap probe pickles them (out-of-band
buffers discarded), so a sweep is accepted or rejected the same way on
every platform.  Every sink must implement
:class:`~repro.analysis.sinks.MergeableSink`; ``P2QuantileSink`` is
order-dependent and therefore rejected with a pointer to the reservoir
sink.  Incompatible sweeps raise :class:`ExecutorIncompatibility` *before*
any sink observes the sweep — the engine downgrades to the threaded
pipeline instead when the executor was only an environment default
(:data:`EXECUTOR_ENV`), so exporting ``REPRO_TEST_EXECUTOR=processes``
runs an entire test suite process-sharded wherever that is well-defined.

Exactness: shard boundaries are just another chunking, so the streamed
worst / mean / worst-node reductions and every *exact* sink (histogram,
exceedance, joint exceedance, top-k) are bitwise-identical to the
sequential sweep for every shard count — also on low-rank-update clones
(:meth:`~repro.grid.compiled.CompiledGrid.with_conductances`), whose
shards under ``fork`` solve with the parent's update factorization.
``spawn`` / ``forkserver`` workers factor such a clone fresh and agree
with the sequential sweep within 1e-12 V.  The reservoir sink merges by
weighted resampling (statistically equivalent); P² does not merge at all.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import pickle
import time
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from .sinks import MergeableSink, ScenarioSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..grid.compiled import CompiledGrid
    from .engine import BatchedAnalysisEngine, BatchReductions, ScenarioSource

EXECUTOR_ENV = "REPRO_TEST_EXECUTOR"
"""Environment variable supplying the engine's default sweep executor.

Lets CI (and local runs) push the whole test suite through one execution
strategy without touching any call site: every chunked / streamed sweep
that passes neither ``executor=`` nor ``workers=`` uses this strategy.
Accepted values are the :data:`EXECUTOR_NAMES`; unset or empty means the
threaded pipeline at the engine's default worker count.  Sweeps a strategy
cannot run (non-mergeable sinks or an unpicklable source under
``processes``) silently fall back to the threaded pipeline — an explicit
``executor=`` argument raises instead.
"""

EXECUTOR_NAMES = ("serial", "threads", "processes", "hybrid", "remote")
"""Names accepted by :func:`make_executor` (and :data:`EXECUTOR_ENV`)."""

HYBRID_SHARD_WORKERS_ENV = "REPRO_HYBRID_SHARD_WORKERS"
"""Environment variable sizing :class:`HybridExecutor`'s process shards.

Read when ``shard_workers`` is not passed explicitly — e.g. under
``REPRO_TEST_EXECUTOR=hybrid``, where no call site names a size.  Unset
means auto-resolve from ``os.cpu_count()``.
"""

HYBRID_THREADS_ENV = "REPRO_HYBRID_THREADS"
"""Environment variable sizing :class:`HybridExecutor`'s per-shard threads.

Read when ``threads_per_shard`` is not passed explicitly.  Unset means
auto-resolve from ``os.cpu_count()`` and the shard count.
"""


class ExecutorIncompatibility(ValueError):
    """A sweep cannot run on the requested executor as specified.

    Raised *before* any sink observes the sweep, so the engine can fall
    back to the threaded pipeline when the executor was only an
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
    order, and (3) return the per-scenario reductions, the
    factorization-reuse flag and the per-scenario solver iteration
    counts.  Any incompatibility with the plan must raise
    :class:`ExecutorIncompatibility` before the first sink is bound.
    """

    name: str = "abstract"

    @property
    @abstractmethod
    def parallelism(self) -> int:
        """Worker count the sweep runs with (1 = sequential)."""

    @abstractmethod
    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool, np.ndarray]":
        """Run the sweep; return ``(reductions, reused, iterations)``."""


class SerialExecutor(SweepExecutor):
    """Produce → solve → fold sequentially on the calling thread."""

    name = "serial"

    @property
    def parallelism(self) -> int:
        return 1

    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool, np.ndarray]":
        return plan.engine._run_chunk_pipeline(
            plan.compiled,
            plan.scenario_source,
            plan.num_scenarios,
            plan.chunk_size,
            plan.sinks,
            workers=1,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SerialExecutor()"


class ThreadedExecutor(SweepExecutor):
    """Chunk solves on a thread pool, one ordered fold on the caller.

    The exact PR-4 pipeline (``workers=`` on the engine entry points maps
    to this executor): at most ``workers`` chunks are in flight, the
    scenario source is always called from the calling thread in ascending
    order, and finished chunks fold FIFO — so every result, including
    every sink state, is bitwise-identical to :class:`SerialExecutor`.

    Args:
        workers: Solver threads (``None`` uses ``os.cpu_count()``).
    """

    name = "threads"

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers

    @property
    def parallelism(self) -> int:
        return self.workers

    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool, np.ndarray]":
        return plan.engine._run_chunk_pipeline(
            plan.compiled,
            plan.scenario_source,
            plan.num_scenarios,
            plan.chunk_size,
            plan.sinks,
            workers=self.workers,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ThreadedExecutor(workers={self.workers})"


class ProcessShardedExecutor(SweepExecutor):
    """Shard the scenario range across worker processes and merge.

    The sweep's ``[0, num_scenarios)`` range is split into ``shards``
    contiguous, near-equal sub-ranges.  Each worker process installs the
    sweep's context once (pool initializer, see :func:`shard_worker_context`),
    then runs the engine's serial chunk pipeline over its shard with fresh
    deep-copies of the sinks — no GIL, no shared fold thread.  The parent
    scatters the shard reductions into the full per-scenario arrays and
    merges the shard sink snapshots in ascending shard order through
    :class:`~repro.analysis.sinks.MergeableSink`.

    The parent factors the grid first (direct path only), so follow-up
    single solves — e.g.
    :meth:`~repro.analysis.sinks.TopKScenarioSink.rematerialize` — reuse
    it, and the usual one-factorization-per-sweep accounting holds.
    Under ``fork`` the workers inherit that factorization and the
    compiled grid with the parent's memory: nothing is pickled, no worker
    factors, and every result is bitwise-identical to serial, low-rank
    update clones included.  ``spawn`` / ``forkserver`` workers attach a
    :class:`SharedGridPayload` and factor the grid themselves, agreeing
    with serial within 1e-12 V on update clones (bitwise elsewhere).

    Memory: each worker holds ``O(num_nodes * chunk_size)`` chunk state.
    Forked workers share the parent's grid and factorization
    copy-on-write; ``spawn`` / ``forkserver`` workers map one
    shared-memory copy of the grid and hold a factorization each.

    Args:
        shards: Number of worker processes / scenario shards.  ``None``
            uses ``max(2, os.cpu_count())`` so the sharded path is
            exercised even on single-core hosts.
        start_method: ``multiprocessing`` start method; ``None`` prefers
            ``fork`` where available and the platform default elsewhere
            (:func:`start_context`).
    """

    name = "processes"

    def __init__(self, shards: int | None = None, start_method: str | None = None) -> None:
        if shards is None:
            shards = max(2, os.cpu_count() or 1)
        if shards < 1:
            raise ValueError("shards must be at least 1")
        start_context(start_method)
        self.shards = shards
        self.start_method = start_method
        self.last_stats: dict = {}

    @property
    def parallelism(self) -> int:
        return self.shards

    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool, np.ndarray]":
        engine, compiled, sinks = plan.engine, plan.compiled, plan.sinks
        require_mergeable_sinks(sinks, "process")
        num_scenarios = plan.num_scenarios
        shards = min(self.shards, num_scenarios)
        if shards <= 1:
            self.last_stats = {"shards": 1, "payload_bytes_shared": 0}
            return engine._run_chunk_pipeline(
                compiled, plan.scenario_source, num_scenarios, plan.chunk_size, sinks, workers=1
            )
        reused = False
        if not engine._use_cg(compiled):
            _, reused = engine._factor(compiled)
        worker_context = shard_worker_context(plan, self.start_method, "process")
        with worker_context as (pool_arguments, payload_bytes):
            for sink in sinks:
                sink.bind(compiled, num_scenarios)

            ranges = shard_ranges(num_scenarios, shards)
            with ProcessPoolExecutor(max_workers=shards, **pool_arguments) as pool:
                futures = [pool.submit(_solve_shard, begin, end) for begin, end in ranges]
                outcomes = [future.result() for future in futures]
        self.last_stats = {"shards": shards, "payload_bytes_shared": payload_bytes}
        return fold_shard_outcomes(plan, outcomes, reused)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ProcessShardedExecutor(shards={self.shards})"


class HybridExecutor(SweepExecutor):
    """Process shards, each running the threaded chunk pipeline inside.

    Multiplies the repo's two scaling axes: the scenario range is split
    across ``shard_workers`` worker processes (parallel folds — the
    process axis), and *within* each shard the
    chunk solves run on ``threads_per_shard`` solver threads (SuperLU
    releases the GIL — the thread axis).  Effective parallelism is the
    product, which is exactly what :attr:`parallelism` reports: up to
    ``shard_workers × threads_per_shard`` chunks are in flight at once,
    each of the cache-sized width
    :func:`~repro.analysis.engine.resolve_chunk_size` picks.

    Exactness is inherited twice over: the threaded pipeline is
    bitwise-identical to serial within each shard, and shard snapshots
    merge in ascending range order — so every result, including every
    exact sink, is bitwise-identical to :class:`SerialExecutor` for
    every ``(shards, threads, chunk_size)`` combination.  That includes
    low-rank-update clones under ``fork``, where every shard solves with
    the factorization the parent cached; ``spawn`` / ``forkserver``
    workers factor fresh and agree with serial within 1e-12 V on update
    clones.

    Cost-based auto-balancing: with ``rebalance`` on (the default), only
    about half the range is committed up-front (one task per shard
    worker).  The first task to complete prices a scenario, and the
    held-back tail is re-split into pieces sized from that measured cost
    — small enough that a straggler worker holds one piece instead of a
    fixed share of the sweep, bounded by ``max_oversubscribe`` pieces
    per worker.  Fast workers drain more tail pieces from the pool's
    pull-based queue.  Outcomes fold in ascending range order regardless
    of completion order, so balancing never affects results.

    Each worker installs the sweep's context once
    (:func:`shard_worker_context`).  Under ``fork`` it inherits the
    parent's compiled grid and cached factorization: nothing is pickled
    and no worker factors.  Under ``spawn`` / ``forkserver`` the context
    ships through a :class:`SharedGridPayload` — one shared-memory copy
    of the compiled arrays for any number of shards (pickle fallback
    where shared memory is unavailable) — and each worker factors the
    grid once.

    Args:
        shard_workers: Worker processes / scenario shards.  ``None``
            reads :data:`HYBRID_SHARD_WORKERS_ENV`, then auto-resolves
            from ``os.cpu_count()`` (at least 2, so the sharded path is
            exercised even on small hosts).
        threads_per_shard: Solver threads inside each shard.  ``None``
            reads :data:`HYBRID_THREADS_ENV`, then auto-resolves so the
            product roughly matches the host CPU count.
        start_method: ``multiprocessing`` start method; ``None`` prefers
            ``fork`` where available (:func:`start_context`).
        rebalance: Hold back ~half the range and re-split it by measured
            shard cost (see above).  Off, the range is split once like
            the process-sharded executor.
        max_oversubscribe: Upper bound on tail pieces per shard worker
            after a re-split, so per-task overhead stays bounded.
    """

    name = "hybrid"

    def __init__(
        self,
        shard_workers: int | None = None,
        threads_per_shard: int | None = None,
        start_method: str | None = None,
        rebalance: bool = True,
        max_oversubscribe: int = 8,
    ) -> None:
        if shard_workers is None:
            raw = os.environ.get(HYBRID_SHARD_WORKERS_ENV, "").strip()
            if raw:
                try:
                    shard_workers = int(raw)
                except ValueError as exc:
                    raise ValueError(
                        f"{HYBRID_SHARD_WORKERS_ENV} must be an integer, got {raw!r}"
                    ) from exc
        if threads_per_shard is None:
            raw = os.environ.get(HYBRID_THREADS_ENV, "").strip()
            if raw:
                try:
                    threads_per_shard = int(raw)
                except ValueError as exc:
                    raise ValueError(
                        f"{HYBRID_THREADS_ENV} must be an integer, got {raw!r}"
                    ) from exc
        cpu = os.cpu_count() or 1
        if shard_workers is None:
            shard_workers = max(2, cpu // (threads_per_shard or 2))
        if shard_workers < 1:
            raise ValueError("shard_workers must be at least 1")
        if threads_per_shard is None:
            threads_per_shard = max(1, min(4, cpu // shard_workers))
        if threads_per_shard < 1:
            raise ValueError("threads_per_shard must be at least 1")
        if max_oversubscribe < 1:
            raise ValueError("max_oversubscribe must be at least 1")
        start_context(start_method)
        self.shard_workers = shard_workers
        self.threads_per_shard = threads_per_shard
        self.start_method = start_method
        self.rebalance = rebalance
        self.max_oversubscribe = max_oversubscribe
        self.last_stats: dict = {}

    @property
    def parallelism(self) -> int:
        """Effective parallel width: ``shard_workers × threads_per_shard``.

        Every shard keeps ``threads_per_shard`` chunks in flight at
        once, so this product bounds the in-flight chunk count; the chunk
        width itself does not depend on it.
        """
        return self.shard_workers * self.threads_per_shard

    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool, np.ndarray]":
        engine, compiled, sinks = plan.engine, plan.compiled, plan.sinks
        require_mergeable_sinks(sinks, "hybrid")
        num_scenarios = plan.num_scenarios
        shards = min(self.shard_workers, num_scenarios)
        threads = self.threads_per_shard
        if shards <= 1:
            self.last_stats = {
                "shards": 1,
                "threads_per_shard": threads,
                "payload_bytes_shared": 0,
                "rebalances": 0,
                "tasks": 1,
            }
            return engine._run_chunk_pipeline(
                compiled,
                plan.scenario_source,
                num_scenarios,
                plan.chunk_size,
                sinks,
                workers=threads,
            )
        reused = False
        if not engine._use_cg(compiled):
            _, reused = engine._factor(compiled)
        worker_context = shard_worker_context(plan, self.start_method, "hybrid", threads)
        with worker_context as (pool_arguments, payload_bytes):
            for sink in sinks:
                sink.bind(compiled, num_scenarios)
            with ProcessPoolExecutor(max_workers=shards, **pool_arguments) as pool:
                outcomes, rebalances = self._drive(pool, num_scenarios, shards)
        self.last_stats = {
            "shards": shards,
            "threads_per_shard": threads,
            "payload_bytes_shared": payload_bytes,
            "rebalances": rebalances,
            "tasks": len(outcomes),
        }
        return fold_shard_outcomes(plan, outcomes, reused)

    def _drive(
        self, pool: ProcessPoolExecutor, num_scenarios: int, shards: int
    ) -> tuple[list[tuple], int]:
        """Submit shard tasks, re-splitting the held-back tail by cost.

        Returns the shard outcome tuples sorted ascending by range start
        (coverage of ``[0, num_scenarios)`` is exact by construction)
        and the number of rebalance events.
        """
        head = num_scenarios if not self.rebalance else max(shards, num_scenarios // 2)
        if num_scenarios - head < shards:
            head = num_scenarios  # tail too small to be worth re-splitting
        start = time.perf_counter()
        pending = {
            pool.submit(_solve_shard, begin, end) for begin, end in shard_ranges(head, shards)
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
            pieces = min(shards * self.max_oversubscribe, max(shards, -(-tail // per_piece)))
            if pieces > shards:
                rebalances = 1
            for begin, end in shard_ranges(tail, pieces):
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

    Args:
        name: One of :data:`EXECUTOR_NAMES`.
        workers: Parallelism — threads for ``threads``, shards for
            ``processes``, shard workers for ``hybrid`` (whose per-shard
            threads come from :data:`HYBRID_THREADS_ENV` / the CPU
            count); ``None`` = derive from ``os.cpu_count()``.
            ``serial`` accepts only ``None`` / 1.
    """
    if name == "serial":
        if workers not in (None, 1):
            raise ValueError("the serial executor runs single-threaded; do not pass workers")
        return SerialExecutor()
    if name == "threads":
        return ThreadedExecutor(workers)
    if name == "processes":
        return ProcessShardedExecutor(shards=workers)
    if name == "hybrid":
        return HybridExecutor(shard_workers=workers)
    if name == "remote":
        from .remote import RemoteExecutor

        return RemoteExecutor(workers=workers)
    raise ValueError(f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}")


# ----------------------------------------------------------------------
# Shared shard machinery (process-sharded and remote executors)
# ----------------------------------------------------------------------
def require_mergeable_sinks(sinks: Sequence[ScenarioSink], shard_kind: str) -> None:
    """Reject sweeps whose sinks cannot merge across shards.

    Raised before any sink binds, so an environment-default executor can
    downgrade the sweep to the threaded pipeline instead of failing.
    """
    non_mergeable = sorted(
        {type(sink).__name__ for sink in sinks if not isinstance(sink, MergeableSink)}
    )
    if non_mergeable:
        raise ExecutorIncompatibility(
            f"sinks {non_mergeable} cannot merge across {shard_kind} shards "
            "(their state is order-dependent); use mergeable sinks — e.g. "
            "QuantileSketchSink instead of P2QuantileSink — or the "
            "threads executor"
        )


def start_context(start_method: str | None) -> mp.context.BaseContext:
    """The ``multiprocessing`` context a sharded executor starts workers with.

    ``None`` prefers ``fork`` where the platform offers it — the workers
    then inherit their context instead of unpickling it (see
    :func:`shard_worker_context`) — and the platform default elsewhere.
    Executors call this from their constructors too, so an unavailable
    method fails at construction instead of at the first sweep.
    """
    methods = mp.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in methods else None
    elif start_method not in methods:
        raise ValueError(f"start_method {start_method!r} not available; choose from {methods}")
    return mp.get_context(start_method)


@contextmanager
def shard_worker_context(
    plan: SweepPlan, start_method: str | None, shard_kind: str, threads: int = 1
) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield the worker-pool arguments of one sharded sweep.

    Enter after the parent has factored ``plan.compiled`` and before any
    sink binds.  Yields ``(pool_arguments, payload_bytes_shared)``: the
    :class:`~concurrent.futures.ProcessPoolExecutor` keywords — the
    :func:`start_context` of ``start_method`` and the pool initializer
    with its argument — and the bytes shipped through shared memory.

    Under ``fork`` the initializer argument is the worker state itself,
    built here and inherited by the children with the parent's memory:
    the compiled grid with its lazily-built arrays warmed (as the
    threaded pipeline does), the source, unbound deep copies of the
    sinks, and a single-threaded engine holding the parent's cached
    factorization
    (:meth:`~repro.analysis.engine.BatchedAnalysisEngine.shard_engine`).
    Nothing ships, so ``payload_bytes_shared`` is 0.  Under any other
    start method it is the descriptor of a :class:`SharedGridPayload`
    that lives as long as the ``with`` block.

    Either way an unpicklable source or sink raises
    :class:`ExecutorIncompatibility` on entry; under ``fork`` a protocol-5
    probe that discards the out-of-band buffers checks just those two (the
    grid always pickles), so the contract does not depend on the platform.
    """
    mp_context = start_context(start_method)
    pool_arguments: dict[str, Any] = dict(mp_context=mp_context, initializer=_init_shard_worker)
    if mp_context.get_start_method() != "fork":
        with SharedGridPayload.create(plan, shard_kind, threads) as shared:
            yield dict(pool_arguments, initargs=(shared.descriptor,)), shared.nbytes
        return
    try:
        pickle.dumps(
            (plan.scenario_source, plan.sinks), protocol=5, buffer_callback=lambda _: None
        )
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise _incompatibility(shard_kind, exc) from exc
    compiled = plan.compiled
    compiled.reduced_matrix
    compiled.pad_rhs
    compiled.pad_incidence
    state = dict(
        engine=plan.engine.shard_engine(compiled),
        compiled=compiled,
        source=plan.scenario_source,
        chunk_size=plan.chunk_size,
        sink_prototypes=copy.deepcopy(plan.sinks),
        threads=threads,
    )
    yield dict(pool_arguments, initargs=(state,)), 0


def _payload_tuple(plan: SweepPlan, threads: int) -> tuple:
    """The picklable worker context of one sweep (see :func:`load_shard_state`)."""
    engine = plan.engine
    plan.compiled.fingerprint  # hash once here; workers inherit the digest
    engine_config = {
        "cache_size": engine.cache_size,
        "direct_size_limit": engine.direct_size_limit,
        "solver": engine.solver_backend.name,
        "incremental_updates": engine.incremental_updates,
    }
    return (
        engine_config,
        plan.compiled,
        plan.scenario_source,
        plan.chunk_size,
        plan.sinks,
        threads,
    )


def _incompatibility(shard_kind: str, exc: Exception) -> ExecutorIncompatibility:
    return ExecutorIncompatibility(
        f"{shard_kind}-sharded sweeps need a picklable scenario source and "
        "picklable sinks (spawned workers unpickle them); use a picklable "
        "source (e.g. MatrixScenarioSource / CrossProductScenarioSource) or "
        f"the threads executor: {exc}"
    )


def pickle_sweep_payload(plan: SweepPlan, shard_kind: str, threads: int = 1) -> bytes:
    """Pickle one sweep's worker context (engine config, grid, source, sinks).

    The payload is what shard workers — local processes or remote worker
    processes — unpickle via :func:`load_shard_state` to rebuild the sweep
    on their side.  ``threads`` is the solver-thread count each worker
    runs its chunk pipeline with (1 = the serial pipeline).  Unpicklable
    plans raise :class:`ExecutorIncompatibility` before any sink binds.
    """
    try:
        return pickle.dumps(_payload_tuple(plan, threads), protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise _incompatibility(shard_kind, exc) from exc


class SharedGridPayload:
    """One sweep's worker context with its array buffers in shared memory.

    The context tuple is pickled once with protocol-5 *out-of-band*
    buffers: every sizable array — the compiled grid's COO stamp arrays,
    its cached CSR factors, the scenario matrices inside the source —
    leaves the pickle stream as a raw buffer, and all buffers land
    back-to-back in a single :mod:`multiprocessing.shared_memory`
    segment.  What remains in-band (:attr:`descriptor`) is small: object
    scaffolding, names, the segment name and per-buffer spans.  Workers
    :func:`attach_shard_state` by name and unpickle the metadata with
    the mapped spans as buffers, so their arrays are *views* of the
    shared mapping — one physical copy of the grid for any number of
    shard processes.

    Lifetime is explicit and parent-owned: ``create`` allocates the
    segment, the ``with`` block (or :meth:`close`) closes **and
    unlinks** it — on success and on error alike; children only ever
    attach and never unlink.  On platforms or sandboxes without shared
    memory, ``create`` degrades to the classic in-band pickle with a
    :class:`RuntimeWarning` naming the executor; ``nbytes`` is then 0
    and the context manager is a no-op.

    Attributes:
        descriptor: Small picklable handle shipped to workers —
            ``("shm", segment_name, metadata, spans)`` or
            ``("pickle", payload_bytes)`` after a fallback.
        nbytes: Bytes placed in shared memory (0 on the pickle fallback);
            surfaced as the ``payload_bytes_shared`` counter.
    """

    def __init__(self, descriptor: tuple, segment, nbytes: int) -> None:
        self.descriptor = descriptor
        self.nbytes = nbytes
        self._segment = segment

    @classmethod
    def create(cls, plan: SweepPlan, shard_kind: str, threads: int = 1) -> "SharedGridPayload":
        """Build the shared payload of one sweep (parent side).

        Raises :class:`ExecutorIncompatibility` for unpicklable plans —
        before any sink binds, like :func:`pickle_sweep_payload`.
        """
        state = _payload_tuple(plan, threads)
        buffers: list[pickle.PickleBuffer] = []
        try:
            meta = pickle.dumps(state, protocol=5, buffer_callback=buffers.append)
            views = [buffer.raw() for buffer in buffers]
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise _incompatibility(shard_kind, exc) from exc
        except BufferError:
            # A non-contiguous out-of-band buffer cannot be mapped raw;
            # ship the whole payload in-band instead (no warning — the
            # result is identical, only the zero-copy win is lost).
            return cls(("pickle", pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)), None, 0)
        total = sum(view.nbytes for view in views)
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=max(1, total))
        except (ImportError, OSError, ValueError) as exc:
            warnings.warn(
                f"the {shard_kind} executor cannot allocate a shared-memory payload "
                f"segment ({exc}); shipping the sweep payload by pickle instead",
                RuntimeWarning,
                stacklevel=3,
            )
            return cls(("pickle", pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)), None, 0)
        spans = []
        cursor = 0
        for view in views:
            segment.buf[cursor : cursor + view.nbytes] = view
            spans.append((cursor, view.nbytes))
            cursor += view.nbytes
        return cls(("shm", segment.name, meta, tuple(spans)), segment, total)

    def close(self) -> None:
        """Release the parent's mapping and unlink the segment (idempotent)."""
        if self._segment is not None:
            segment, self._segment = self._segment, None
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedGridPayload":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _attach_segment(name: str):
    """Attach a named shared-memory segment *without* tracking its lifetime.

    Attaching normally registers the segment with :mod:`multiprocessing`'s
    resource tracker, which would unlink it when the attaching process
    exits — but the segment is parent-owned (the parent unlinks in
    :meth:`SharedGridPayload.close`), and under ``fork`` all children
    share one tracker, so child-side registration is both wrong and
    noisy.  Python 3.13+ exposes ``track=False`` for exactly this;
    earlier versions need the registration call shimmed out for the
    duration of the attach (pool initializers and fleet workers attach
    from a single thread, so the shim cannot race).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass  # Python < 3.13: no track= keyword; shim the tracker instead
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shared_memory(rname: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_shard_state(descriptor: tuple) -> dict:
    """Rebuild a worker-side sweep context from a payload descriptor.

    ``("pickle", bytes)`` descriptors unpickle in-band;
    ``("shm", name, meta, spans)`` descriptors attach the named shared
    segment and unpickle the metadata with the mapped spans as protocol-5
    buffers, so the rebuilt arrays are views of the shared mapping.  The
    returned state keeps the segment object alive for as long as the
    context is cached.
    """
    kind = descriptor[0]
    if kind == "pickle":
        return load_shard_state(descriptor[1])
    _, name, meta, spans = descriptor
    segment = _attach_segment(name)
    buffers = [segment.buf[begin : begin + length] for begin, length in spans]
    state = _state_from_tuple(pickle.loads(meta, buffers=buffers))
    state["segment"] = segment  # keeps the mapping alive with the cached state
    return state


def _state_from_tuple(payload_tuple: tuple) -> dict:
    from .engine import BatchedAnalysisEngine

    engine_config, compiled, source, chunk_size, sink_prototypes, threads = payload_tuple
    return dict(
        engine=BatchedAnalysisEngine(
            default_workers=1, default_executor=SerialExecutor(), **engine_config
        ),
        compiled=compiled,
        source=source,
        chunk_size=chunk_size,
        sink_prototypes=sink_prototypes,
        threads=threads,
    )


def load_shard_state(payload: bytes) -> dict:
    """Rebuild the worker-side sweep context from a pickled payload.

    The worker's engine mirrors the parent's solver configuration (cache
    size, direct-vs-CG threshold) so shards solve exactly the way the
    parent would have.  Payloads that unpickle to a
    :class:`SharedGridPayload` descriptor (localhost fleets ship those
    instead of full pickles) are re-attached via
    :func:`attach_shard_state`.
    """
    obj = pickle.loads(payload)
    if isinstance(obj, tuple) and obj and obj[0] in ("shm", "pickle"):
        return attach_shard_state(obj)
    return _state_from_tuple(obj)


def solve_shard_range(state: dict, begin: int, end: int) -> tuple:
    """Run the chunk pipeline over ``[begin, end)`` of one sweep.

    The shard runs as its own sweep of ``end - begin`` scenarios: the
    source is shifted by ``begin`` and fresh sink copies observe
    shard-local offsets — :meth:`MergeableSink.merge` re-bases any
    indices when the parent folds the snapshots back together.  The
    pipeline runs at the context's ``threads`` count (1 = serial; the
    hybrid executor and threaded fleet workers set more) — the threaded
    pipeline is bitwise-identical to serial, so the shard result does
    not depend on it.
    """
    source = state["source"]
    sinks: Sequence[ScenarioSink] = copy.deepcopy(state["sink_prototypes"])

    def shard_source(lo: int, hi: int) -> "tuple[np.ndarray | None, np.ndarray | None]":
        return source(begin + lo, begin + hi)

    reductions, reused, iterations = state["engine"]._run_chunk_pipeline(
        state["compiled"],
        shard_source,
        end - begin,
        state["chunk_size"],
        sinks,
        workers=state.get("threads", 1),
    )
    return (
        begin,
        end,
        reductions.worst_ir_drop,
        reductions.average_ir_drop,
        reductions.worst_node_index,
        iterations,
        reused,
        tuple(sink.snapshot() for sink in sinks),
    )


def shard_ranges(num_scenarios: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, num_scenarios)`` into ``shards`` contiguous near-equal ranges."""
    bounds = [num_scenarios * i // shards for i in range(shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(shards)]


def fold_shard_outcomes(
    plan: SweepPlan, outcomes: Sequence[tuple], reused: bool
) -> "tuple[BatchReductions, bool, np.ndarray]":
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
    iterations = np.zeros(num_scenarios, dtype=np.int64)
    for begin, end, shard_worst, shard_avg, shard_index, shard_iter, shard_reused, snaps in (
        outcomes
    ):
        worst[begin:end] = shard_worst
        average[begin:end] = shard_avg
        worst_index[begin:end] = shard_index
        iterations[begin:end] = shard_iter
        reused = reused or shard_reused
        for sink, snapshot in zip(plan.sinks, snaps):
            sink.merge(snapshot)
    reductions = BatchReductions(
        worst_ir_drop=worst, average_ir_drop=average, worst_node_index=worst_index
    )
    return reductions, reused, iterations


_WORKER_STATE: dict = {}
"""Per-worker sweep context, installed once by the pool initializer."""


def _init_shard_worker(initarg: "dict | tuple") -> None:
    """Install the sweep context into this worker (see :func:`shard_worker_context`).

    A dict is the parent's live state, inherited under ``fork``; a tuple
    is a :class:`SharedGridPayload` descriptor to attach.
    """
    _WORKER_STATE.update(initarg if isinstance(initarg, dict) else attach_shard_state(initarg))


def _solve_shard(begin: int, end: int) -> tuple:
    """Pool-worker entry: solve ``[begin, end)`` from the installed context."""
    return solve_shard_range(_WORKER_STATE, begin, end)
