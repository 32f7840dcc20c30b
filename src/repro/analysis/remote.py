"""Cross-host sweep execution: HTTP coordinator, workers, RemoteExecutor.

A shard is a self-contained unit of work: a pickled ``CompiledGrid`` +
engine config + scenario-source range in, a tuple of reductions +
:class:`~repro.analysis.sinks.SinkSnapshot`\\ s out.  The local executor
runs that unit in worker processes on this host; this module ships the
*same* unit over a socket (the
:func:`~repro.analysis.executors.pickle_sweep_payload` bytes that spawned
local workers load too), so a sweep can fan out across worker processes
on any number of hosts: stdlib only (``http.server`` + ``urllib``), no
broker dependency.

Three pieces:

* **Coordinator** — a :class:`ThreadingHTTPServer` around a
  :class:`SweepQueue`: clients POST a sweep (payload + shard ranges),
  workers lease shards, solve them and POST results back, clients poll
  the outcome.  Run standing via
  ``python -m repro.analysis.remote coordinator``.
* **Worker** — :func:`run_worker`: an endless pull → solve → report loop.
  Run via ``python -m repro.analysis.remote worker --coordinator URL``.
* **:class:`RemoteExecutor`** — a
  :class:`~repro.analysis.executors.SweepExecutor` that submits the plan
  to a standing coordinator (``coordinator=`` / :data:`COORDINATOR_ENV`)
  and polls the outcome — so ``REPRO_TEST_EXECUTOR=remote`` with
  :data:`COORDINATOR_ENV` set runs a whole test suite through the
  distributed code path.

Work stealing
-------------

The scenario range is split **finer than equal**: up to ``workers ×
oversubscribe`` shards of whole chunks (default 4× oversubscription)
instead of one per worker.  Workers *pull* shards one at a time, so a
worker that finishes early immediately takes work a slower peer would
otherwise have been stuck with — hosts differ in speed and load, and a
worker's first shard also pays for loading the payload and factoring
the grid, so equal shards straggle.  No pushing, no rebalancing protocol: pull-based
leasing over fine shards *is* the work-stealing policy.

Failure and retry
-----------------

Every lease carries a deadline (``lease_timeout``).  A worker that dies —
process kill, host loss, network partition — simply never reports; its
lease expires and the shard is handed to the next worker that asks.  A
shard that fails ``max_attempts`` times (worker exceptions count too)
fails the whole sweep with the recorded reason, so a poison shard cannot
requeue forever.  Late results from a worker presumed dead are harmless:
shards are pure functions of their range, so a duplicate completion
overwrites with identical data.

Determinism
-----------

Shards are cut on the sequential sweep's chunk boundaries
(:func:`~repro.analysis.executors.shard_ranges`), so each solves the
sequential sweep's RHS blocks, and shard results merge in ascending
shard order through the :class:`~repro.analysis.sinks.MergeableSink`
protocol — the same fold the local executor's process shards use — so
the streamed reductions and every exact sink are bitwise-identical to
the sequential sweep at every worker count, and
:class:`~repro.analysis.sinks.QuantileSketchSink` (integer bucket counts,
order-invariant) extends that guarantee to quantiles.
Non-mergeable sinks (P²) are rejected before anything runs.

Security
--------

The protocol ships **pickles over plain HTTP** and the coordinator
unpickles what clients and workers send.  Run it only on trusted,
access-controlled networks (the default bind is localhost); it
authenticates nothing and must never face untrusted peers.

Protocol (all bodies are pickles unless noted)::

    POST /sweeps            {payload, ranges, lease_timeout, max_attempts}
                            -> {"sweep": id}
    GET  /task              -> {"sweep", "task", "begin", "end"} | 204
    GET  /payload/<sweep>   -> raw payload bytes (worker caches per sweep)
    POST /results           {"sweep", "task", "result"}
    POST /errors            {"sweep", "task", "message"}
    GET  /outcome/<sweep>   -> {"done", "error", "results", ...}
                               (a done outcome is collected: the sweep is
                               dropped from the queue once fetched)
    GET  /health            -> b"ok" (text)
    POST /shutdown          -> stops the coordinator
"""

from __future__ import annotations

import argparse
import itertools
import os
import pickle
import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Callable, Sequence
from urllib import error as _urlerror
from urllib import request as _urlrequest

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .executors import (
    SweepExecutor,
    SweepPlan,
    fold_shard_outcomes,
    load_shard_state,
    pickle_sweep_payload,
    require_shardable,
    shard_ranges,
    solve_shard_range,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import BatchReductions

COORDINATOR_ENV = "REPRO_REMOTE_COORDINATOR"
"""Environment variable holding a standing coordinator's base URL.

When set (e.g. ``http://127.0.0.1:8765``), every :class:`RemoteExecutor`
built without an explicit ``coordinator=`` submits its sweeps there —
this is how CI points ``REPRO_TEST_EXECUTOR=remote`` at one coordinator +
worker fleet for a whole test-suite run.  With neither set, constructing
a :class:`RemoteExecutor` raises ``ValueError``.
"""


# ----------------------------------------------------------------------
# Coordinator: sweep queue + HTTP front-end
# ----------------------------------------------------------------------
class _SweepState:
    """One submitted sweep: payload, shard ranges and lease bookkeeping."""

    __slots__ = (
        "sweep_id",
        "payload",
        "ranges",
        "lease_timeout",
        "max_attempts",
        "pending",
        "leases",
        "attempts",
        "results",
        "error",
        "finished_at",
    )

    def __init__(
        self,
        sweep_id: str,
        payload: bytes,
        ranges: Sequence[tuple[int, int]],
        lease_timeout: float,
        max_attempts: int,
    ) -> None:
        self.sweep_id = sweep_id
        self.payload = payload
        self.ranges = [(int(begin), int(end)) for begin, end in ranges]
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.pending: deque[int] = deque(range(len(self.ranges)))
        self.leases: dict[int, float] = {}
        self.attempts = [0] * len(self.ranges)
        self.results: dict[int, tuple] = {}
        self.error: str | None = None
        self.finished_at: float | None = None

    @property
    def done(self) -> bool:
        return self.error is not None or len(self.results) == len(self.ranges)


class SweepQueue:
    """Lease-based shard queue — the coordinator's brain, HTTP-free.

    Thread-safe.  Workers :meth:`lease` one shard at a time (pull-based
    work stealing); a lease that is neither completed nor failed before
    its deadline is requeued for the next worker, and a shard exceeding
    ``max_attempts`` fails the sweep.  Finished sweeps are dropped when
    their outcome is collected (or after ``retention`` seconds if the
    submitting client never returns).

    Args:
        retention: Seconds a *finished* sweep's outcome is kept for an
            absent client before being dropped.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(self, retention: float = 600.0, clock: Callable[[], float] = time.monotonic):
        self._lock = threading.Lock()
        self._sweeps: "OrderedDict[str, _SweepState]" = OrderedDict()  # guarded-by: _lock
        self._retention = float(retention)
        self._clock = clock
        self._counter = itertools.count()
        self._nonce = uuid.uuid4().hex[:8]

    def submit(
        self,
        payload: bytes,
        ranges: Sequence[tuple[int, int]],
        lease_timeout: float = 120.0,
        max_attempts: int = 3,
    ) -> str:
        """Register a sweep; returns its id (unique across restarts)."""
        if not ranges:
            raise ValueError("a sweep needs at least one shard range")
        if lease_timeout <= 0.0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        sweep_id = f"{self._nonce}-{next(self._counter)}"
        state = _SweepState(sweep_id, payload, ranges, lease_timeout, max_attempts)
        with self._lock:
            self._sweeps[sweep_id] = state
        return sweep_id

    def payload(self, sweep_id: str) -> bytes:
        """The sweep's pickled worker context (KeyError when unknown)."""
        with self._lock:
            return self._sweeps[sweep_id].payload

    def lease(self) -> dict | None:
        """Hand the oldest pending shard to a worker, or None when idle.

        Expired leases are requeued first, so a single polling worker
        eventually steals every shard a dead peer left behind.
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            for sweep in self._sweeps.values():
                if sweep.error is not None or not sweep.pending:
                    continue
                task = sweep.pending.popleft()
                sweep.attempts[task] += 1
                sweep.leases[task] = now + sweep.lease_timeout
                begin, end = sweep.ranges[task]
                return {"sweep": sweep.sweep_id, "task": task, "begin": begin, "end": end}
        return None

    def complete(self, sweep_id: str, task: int, result: tuple) -> None:
        """Record a shard result (idempotent; unknown sweeps are ignored).

        A late duplicate from a worker whose lease already expired simply
        overwrites with identical data — shards are pure functions of
        their range.
        """
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None or sweep.error is not None:
                return
            sweep.leases.pop(task, None)
            sweep.results[task] = result
            if sweep.done and sweep.finished_at is None:
                sweep.finished_at = self._clock()

    def fail(self, sweep_id: str, task: int, message: str) -> None:
        """Record a worker-side shard failure: requeue or fail the sweep."""
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None:
                return
            sweep.leases.pop(task, None)
            self._requeue(sweep, task, message)

    def outcome(self, sweep_id: str) -> dict:
        """Progress / result of a sweep (KeyError when unknown).

        A done outcome carries either ``results`` (shard index → result
        tuple) or ``error``, and collecting it drops the sweep from the
        queue.  Pending outcomes report completion counters.  Lease
        expiry runs here too, so stragglers surface even while no worker
        is polling.
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            sweep = self._sweeps[sweep_id]
            if not sweep.done:
                return {
                    "done": False,
                    "completed": len(sweep.results),
                    "total": len(sweep.ranges),
                    "leased": len(sweep.leases),
                }
            del self._sweeps[sweep_id]
            if sweep.error is not None:
                return {"done": True, "error": sweep.error, "results": None}
            return {"done": True, "error": None, "results": dict(sweep.results)}

    def _requeue(self, sweep: _SweepState, task: int, reason: str) -> None:  # requires-lock: _lock
        if task in sweep.results:
            return
        if sweep.attempts[task] >= sweep.max_attempts:
            begin, end = sweep.ranges[task]
            sweep.error = (
                f"shard {task} (scenarios [{begin}, {end})) failed after "
                f"{sweep.attempts[task]} attempts: {reason}"
            )
            if sweep.finished_at is None:
                sweep.finished_at = self._clock()
        else:
            sweep.pending.append(task)

    def _expire(self, now: float) -> None:  # requires-lock: _lock
        """Requeue overdue leases; drop finished sweeps nobody collected."""
        stale = []
        for sweep in self._sweeps.values():
            if sweep.error is not None:
                pass
            else:
                for task, deadline in list(sweep.leases.items()):
                    if deadline <= now:
                        del sweep.leases[task]
                        self._requeue(sweep, task, "lease expired (worker presumed dead)")
            if sweep.finished_at is not None and now - sweep.finished_at > self._retention:
                stale.append(sweep.sweep_id)
        for sweep_id in stale:
            del self._sweeps[sweep_id]


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Pickle-over-HTTP front-end of a :class:`SweepQueue`.

    Bodies are pickles (see the module docstring's protocol table), which
    is why the coordinator must only ever face trusted peers.
    """

    protocol_version = "HTTP/1.1"
    server: "CoordinatorServer"

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # per-request logging would swamp sweep-heavy suites

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length)

    def _send(self, status: int, body: bytes = b"") -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/health":
                self._send(200, b"ok")
            elif path == "/task":
                task = self.server.queue.lease()
                if task is None:
                    self._send(204)
                else:
                    self._send(200, pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            elif path.startswith("/payload/"):
                self._send(200, self.server.queue.payload(path.rsplit("/", 1)[1]))
            elif path.startswith("/outcome/"):
                outcome = self.server.queue.outcome(path.rsplit("/", 1)[1])
                self._send(200, pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
            else:
                self._send(404)
        except KeyError:
            self._send(404)
        except Exception as exc:  # pragma: no cover - defensive
            self._send(400, f"{type(exc).__name__}: {exc}".encode())

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            path = self.path.rstrip("/")
            body = self._body()
            if path == "/sweeps":
                request = pickle.loads(body)
                sweep_id = self.server.queue.submit(
                    request["payload"],
                    request["ranges"],
                    lease_timeout=request.get("lease_timeout", 120.0),
                    max_attempts=request.get("max_attempts", 3),
                )
                self._send(
                    200, pickle.dumps({"sweep": sweep_id}, protocol=pickle.HIGHEST_PROTOCOL)
                )
            elif path == "/results":
                report = pickle.loads(body)
                self.server.queue.complete(report["sweep"], report["task"], report["result"])
                self._send(200)
            elif path == "/errors":
                report = pickle.loads(body)
                self.server.queue.fail(report["sweep"], report["task"], report["message"])
                self._send(200)
            elif path == "/shutdown":
                self._send(200)
                threading.Thread(target=self.server.shutdown, daemon=True).start()
            else:
                self._send(404)
        except Exception as exc:  # pragma: no cover - defensive
            self._send(400, f"{type(exc).__name__}: {exc}".encode())


class CoordinatorServer(ThreadingHTTPServer):
    """HTTP server owning one :class:`SweepQueue` (daemon request threads)."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], queue: SweepQueue | None = None) -> None:
        super().__init__(address, _CoordinatorHandler)
        self.queue = queue if queue is not None else SweepQueue()

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


def make_coordinator(host: str = "127.0.0.1", port: int = 0) -> CoordinatorServer:
    """Bind a coordinator server (``port=0`` picks a free port).

    The caller drives it: ``server.serve_forever()`` (typically on a
    thread), ``server.shutdown()`` + ``server.server_close()`` to stop.
    """
    return CoordinatorServer((host, port))


# ----------------------------------------------------------------------
# HTTP client side (executor submissions and workers)
# ----------------------------------------------------------------------
_HTTP_TIMEOUT = 30.0
"""Socket timeout of individual coordinator requests (not sweep runtime)."""


def _request(url: str, data: bytes | None = None, timeout: float = _HTTP_TIMEOUT):
    """One HTTP exchange; returns ``(status, body)``.

    4xx/5xx come back as the status instead of raising; connection-level
    failures (refused, timeout) raise ``OSError`` for the caller's retry
    policy.
    """
    req = _urlrequest.Request(url, data=data, method="POST" if data is not None else "GET")
    try:
        with _urlrequest.urlopen(req, timeout=timeout) as response:
            return response.status, response.read()
    except _urlerror.HTTPError as exc:
        return exc.code, exc.read()


def run_worker(
    coordinator: str,
    poll_interval: float = 0.05,
    idle_timeout: float | None = None,
    unreachable_timeout: float | None = 60.0,
    max_cached_sweeps: int = 4,
    stop: threading.Event | None = None,
) -> int:
    """Pull → solve → report loop against a coordinator; returns exit code.

    Each iteration leases one shard, rebuilds the sweep context from the
    (per-sweep cached) payload, runs the serial chunk pipeline over the
    shard's scenario range and POSTs the result tuple back.  Worker-side
    exceptions are reported to the coordinator (counting against the
    shard's attempts) and the loop continues — one poison shard does not
    kill the worker.

    Args:
        coordinator: Coordinator base URL.
        poll_interval: Sleep between polls while no work is available.
        idle_timeout: Exit 0 after this many idle seconds (None = run
            until stopped — the standing-fleet mode).
        unreachable_timeout: Exit 1 after this many seconds without a
            reachable coordinator (None = retry forever).
        max_cached_sweeps: Payload contexts (grid + factorization) kept
            alive; oldest evicted beyond that.
        stop: Optional event that ends the loop (for in-process workers).
    """
    coordinator = coordinator.rstrip("/")
    cache: "OrderedDict[str, dict]" = OrderedDict()
    idle_since: float | None = None
    unreachable_since: float | None = None
    while stop is None or not stop.is_set():
        try:
            status, body = _request(f"{coordinator}/task")
        except OSError:
            now = time.monotonic()
            unreachable_since = unreachable_since or now
            if unreachable_timeout is not None and now - unreachable_since > unreachable_timeout:
                return 1
            time.sleep(min(1.0, max(poll_interval, 0.1)))
            continue
        unreachable_since = None
        if status != 200:
            now = time.monotonic()
            idle_since = idle_since or now
            if idle_timeout is not None and now - idle_since > idle_timeout:
                return 0
            time.sleep(poll_interval)
            continue
        idle_since = None
        task = pickle.loads(body)
        sweep_id = task["sweep"]
        state = cache.get(sweep_id)
        if state is None:
            try:
                payload_status, payload = _request(f"{coordinator}/payload/{sweep_id}")
            except OSError:
                continue
            if payload_status != 200:
                continue  # sweep failed / was collected while we leased
            try:
                state = load_shard_state(payload)
            except Exception as exc:
                try:
                    _request(
                        f"{coordinator}/errors",
                        data=pickle.dumps(
                            {
                                "sweep": sweep_id,
                                "task": task["task"],
                                "message": f"unloadable payload: {type(exc).__name__}: {exc}",
                            },
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
                except OSError:
                    pass
                continue
            cache[sweep_id] = state
            while len(cache) > max_cached_sweeps:
                cache.popitem(last=False)
        try:
            result = solve_shard_range(state, task["begin"], task["end"])
            report = {"sweep": sweep_id, "task": task["task"], "result": result}
            endpoint = "results"
        except Exception as exc:
            report = {
                "sweep": sweep_id,
                "task": task["task"],
                "message": f"{type(exc).__name__}: {exc}",
            }
            endpoint = "errors"
        try:
            _request(
                f"{coordinator}/{endpoint}",
                data=pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError:
            pass  # lease expiry reassigns the shard
    return 0


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class RemoteExecutor(SweepExecutor):
    """Fan a sweep's scenario shards out over a standing coordinator.

    Conforms to the :class:`~repro.analysis.executors.SweepExecutor`
    contract with the same compatibility rules as the local process
    shards — the plan must pass
    :func:`~repro.analysis.executors.require_shardable` (mergeable sinks,
    picklable source and sinks) — and the same exactness guarantee: shard
    results fold in ascending shard order, so reductions and every exact
    sink (plus the deterministic
    :class:`~repro.analysis.sinks.QuantileSketchSink`) are
    bitwise-identical to the sequential sweep at every worker count.

    The sweep is POSTed to a standing coordinator (``coordinator=`` URL
    or :data:`COORDINATOR_ENV`) whose worker fleet may span hosts, and
    the executor polls the outcome.  Start one with ``python -m
    repro.analysis.remote coordinator`` and its workers with ``python -m
    repro.analysis.remote worker --coordinator URL``.  An unreachable
    coordinator fails the sweep loudly — it is an operational error, not
    a plan incompatibility.

    The range is split into up to ``workers × oversubscribe`` shards of
    whole chunks for pull-based work stealing; see the module docstring
    for the policy and failure semantics.

    Args:
        workers: Worker hint — the basis of the shard count.  ``None``
            means ``max(2, os.cpu_count())``.
        coordinator: Base URL of a standing coordinator; ``None`` reads
            :data:`COORDINATOR_ENV`.  With neither, construction raises
            ``ValueError``.
        oversubscribe: Shards per worker (finer-than-equal sharding).
        lease_timeout: Seconds a worker may hold a shard before it is
            presumed dead and the shard is reassigned.
        max_attempts: Attempts per shard before the sweep fails.
        poll_interval: Outcome-poll period of the submitting side.
        timeout: Overall wall-clock budget of one sweep.
        threads_per_shard: Solver threads each worker runs inside its
            shard (the hybrid axis, shipped in the payload).
    """

    name = "remote"

    def __init__(
        self,
        workers: int | None = None,
        coordinator: str | None = None,
        oversubscribe: int = 4,
        lease_timeout: float = 120.0,
        max_attempts: int = 3,
        poll_interval: float = 0.02,
        timeout: float = 600.0,
        threads_per_shard: int = 1,
    ) -> None:
        if workers is None:
            workers = max(2, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if oversubscribe < 1:
            raise ValueError("oversubscribe must be at least 1")
        if lease_timeout <= 0.0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if timeout <= 0.0:
            raise ValueError("timeout must be positive")
        if threads_per_shard < 1:
            raise ValueError("threads_per_shard must be at least 1")
        coordinator = (coordinator or os.environ.get(COORDINATOR_ENV, "")).strip().rstrip("/")
        if not coordinator:
            raise ValueError(
                f"the remote executor needs a standing coordinator: pass coordinator= "
                f"or set {COORDINATOR_ENV} (start one with `python -m "
                "repro.analysis.remote coordinator`)"
            )
        self.workers = workers
        self.coordinator = coordinator
        self.oversubscribe = oversubscribe
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = max_attempts
        self.poll_interval = float(poll_interval)
        self.timeout = float(timeout)
        self.threads_per_shard = threads_per_shard

    @property
    def parallelism(self) -> int:
        return self.workers * self.threads_per_shard

    def execute(self, plan: SweepPlan) -> "tuple[BatchReductions, bool]":
        engine, compiled, sinks = plan.engine, plan.compiled, plan.sinks
        require_shardable(plan, self.name)
        num_scenarios = plan.num_scenarios
        ranges = shard_ranges(num_scenarios, self.workers * self.oversubscribe, plan.chunk_size)
        if len(ranges) <= 1:
            return engine._run_chunk_pipeline(
                compiled,
                plan.scenario_source,
                num_scenarios,
                plan.chunk_size,
                sinks,
                threads=self.threads_per_shard,
            )
        payload = pickle_sweep_payload(plan, self.threads_per_shard)
        for sink in sinks:
            sink.bind(compiled, num_scenarios)
        _, reused = engine._factor(compiled)
        results = self._run_sweep(payload, ranges)
        outcomes = [results[task] for task in range(len(ranges))]
        return fold_shard_outcomes(plan, outcomes, reused)

    def _run_sweep(self, payload: bytes, ranges: list[tuple[int, int]]) -> dict[int, tuple]:
        """Submit one sweep and poll its outcome to completion."""
        coordinator = self.coordinator
        request = pickle.dumps(
            {
                "payload": payload,
                "ranges": ranges,
                "lease_timeout": self.lease_timeout,
                "max_attempts": self.max_attempts,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            status, body = _request(f"{coordinator}/sweeps", data=request)
        except OSError as exc:
            raise RuntimeError(
                f"cannot reach the remote coordinator at {coordinator}: {exc}"
            ) from exc
        if status != 200:
            raise RuntimeError(
                f"remote coordinator at {coordinator} rejected the sweep "
                f"(HTTP {status}): {body[:200]!r}"
            )
        sweep_id = pickle.loads(body)["sweep"]
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                status, body = _request(f"{coordinator}/outcome/{sweep_id}")
            except OSError as exc:
                raise RuntimeError(
                    f"lost the remote coordinator at {coordinator} mid-sweep: {exc}"
                ) from exc
            if status != 200:
                raise RuntimeError(
                    f"remote coordinator dropped sweep {sweep_id} (HTTP {status})"
                )
            outcome = pickle.loads(body)
            if outcome["done"]:
                if outcome["error"] is not None:
                    raise RuntimeError(f"remote sweep failed: {outcome['error']}")
                return outcome["results"]
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"remote sweep timed out after {self.timeout}s "
                    f"({outcome['completed']}/{outcome['total']} shards done)"
                )
            time.sleep(self.poll_interval)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RemoteExecutor(workers={self.workers}, coordinator={self.coordinator!r})"


# ----------------------------------------------------------------------
# CLI: `python -m repro.analysis.remote coordinator|worker`
# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.remote",
        description="Run a sweep coordinator or a sweep worker (trusted networks only).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    coordinator = commands.add_parser("coordinator", help="run a standing sweep coordinator")
    coordinator.add_argument("--host", default="127.0.0.1", help="bind address")
    coordinator.add_argument("--port", type=int, default=8765, help="bind port (0 = any free)")

    worker = commands.add_parser("worker", help="run a sweep worker against a coordinator")
    worker.add_argument(
        "--coordinator",
        default=os.environ.get(COORDINATOR_ENV, ""),
        help=f"coordinator base URL (default: ${COORDINATOR_ENV})",
    )
    worker.add_argument("--poll-interval", type=float, default=0.05)
    worker.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: run until stopped)",
    )
    worker.add_argument(
        "--unreachable-timeout",
        type=float,
        default=60.0,
        help="exit 1 after this many seconds without a reachable coordinator",
    )

    args = parser.parse_args(argv)
    if args.command == "coordinator":
        server = make_coordinator(args.host, args.port)
        print(f"coordinator listening on {server.url}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0
    if not args.coordinator:
        parser.error(f"--coordinator (or ${COORDINATOR_ENV}) is required for workers")
    print(f"worker polling {args.coordinator}", flush=True)
    try:
        return run_worker(
            args.coordinator,
            poll_interval=args.poll_interval,
            idle_timeout=args.idle_timeout,
            unreachable_timeout=args.unreachable_timeout,
        )
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
