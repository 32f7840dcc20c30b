"""Tests for the cross-host sweep executor and its coordinator.

Three layers: :class:`SweepQueue` unit tests (leasing, expiry-driven work
stealing, retry caps, outcome collection) with an injected clock and no
HTTP; coordinator + in-process worker integration over real HTTP on a
loopback socket (bitwise equivalence against the sequential sweep at
several worker counts and with threaded workers, lease-expiry recovery
from a worker that leases and vanishes); and executor resolution
(``make_executor("remote")``, ``REPRO_TEST_EXECUTOR=remote``, the
required coordinator, the lenient-fallback warning naming the sink and
the entry point).
"""

import pickle
import re
import threading

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    ExecutorIncompatibility,
    MatrixScenarioSource,
    P2QuantileSink,
    QuantileSketchSink,
    TopKScenarioSink,
    make_executor,
)
from repro.analysis.executors import EXECUTOR_ENV, EXECUTOR_NAMES
from repro.analysis.remote import (
    COORDINATOR_ENV,
    RemoteExecutor,
    SweepQueue,
    _request,
    make_coordinator,
    run_worker,
)
from repro.grid import (
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    perturbed_load_matrix,
)


# ----------------------------------------------------------------------
# SweepQueue unit tests (no HTTP, fake clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(clock):
    return SweepQueue(retention=100.0, clock=clock)


RANGES = [(0, 10), (10, 20), (20, 25)]

DEAD_COORDINATOR = "http://127.0.0.1:9"
"""A coordinator URL nothing listens on (sweeps rejected up front never call it)."""


class TestSweepQueue:
    def test_leases_shards_in_order_then_idles(self, queue):
        sweep = queue.submit(b"payload", RANGES)
        leased = [queue.lease() for _ in range(3)]
        assert [(t["begin"], t["end"]) for t in leased] == RANGES
        assert all(t["sweep"] == sweep for t in leased)
        assert queue.lease() is None  # everything out on lease

    def test_completion_collects_and_drops_the_sweep(self, queue):
        sweep = queue.submit(b"payload", RANGES)
        for _ in range(3):
            task = queue.lease()
            queue.complete(sweep, task["task"], ("result", task["task"]))
        outcome = queue.outcome(sweep)
        assert outcome["done"] and outcome["error"] is None
        assert set(outcome["results"]) == {0, 1, 2}
        with pytest.raises(KeyError):
            queue.outcome(sweep)  # collected outcomes are dropped

    def test_expired_lease_is_stolen_by_the_next_worker(self, queue, clock):
        sweep = queue.submit(b"payload", [(0, 5)], lease_timeout=10.0)
        first = queue.lease()
        assert queue.lease() is None  # shard is out with the dead worker
        clock.advance(11.0)
        stolen = queue.lease()  # expiry requeues, next poll steals it
        assert stolen is not None and stolen["task"] == first["task"]
        queue.complete(sweep, stolen["task"], ("ok",))
        assert queue.outcome(sweep)["done"]

    def test_attempts_cap_fails_the_sweep_with_the_reason(self, queue, clock):
        sweep = queue.submit(b"payload", [(0, 5)], lease_timeout=1.0, max_attempts=2)
        for _ in range(2):
            assert queue.lease() is not None
            clock.advance(2.0)
        outcome = queue.outcome(sweep)
        assert outcome["done"] and "after 2 attempts" in outcome["error"]

    def test_worker_error_requeues_then_fails(self, queue):
        sweep = queue.submit(b"payload", [(0, 5)], max_attempts=2)
        task = queue.lease()
        queue.fail(sweep, task["task"], "boom")
        retry = queue.lease()  # requeued after the first failure
        assert retry["task"] == task["task"]
        queue.fail(sweep, retry["task"], "boom")
        outcome = queue.outcome(sweep)
        assert outcome["done"] and "boom" in outcome["error"]

    def test_late_duplicate_completion_is_harmless(self, queue, clock):
        sweep = queue.submit(b"payload", [(0, 5)], lease_timeout=1.0)
        task = queue.lease()
        clock.advance(2.0)
        stolen = queue.lease()
        queue.complete(sweep, stolen["task"], ("fresh",))
        queue.complete(sweep, task["task"], ("fresh",))  # presumed-dead worker reports late
        assert queue.outcome(sweep)["results"][0] == ("fresh",)

    def test_uncollected_sweeps_are_dropped_after_retention(self, queue, clock):
        sweep = queue.submit(b"payload", [(0, 5)])
        task = queue.lease()
        queue.complete(sweep, task["task"], ("ok",))
        clock.advance(101.0)
        queue.lease()  # any queue activity runs the expiry scan
        with pytest.raises(KeyError):
            queue.outcome(sweep)

    def test_submit_validation(self, queue):
        with pytest.raises(ValueError):
            queue.submit(b"p", [])
        with pytest.raises(ValueError):
            queue.submit(b"p", RANGES, lease_timeout=0.0)
        with pytest.raises(ValueError):
            queue.submit(b"p", RANGES, max_attempts=0)


# ----------------------------------------------------------------------
# Coordinator + worker integration over loopback HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ibmpg1_grid():
    return SyntheticIBMSuite().load("ibmpg1").build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def load_sweep(ibmpg1_grid):
    spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=11)
    return perturbed_load_matrix(ibmpg1_grid, spec, 37)


@pytest.fixture()
def coordinator():
    """A live coordinator on a loopback socket, torn down after the test."""
    server = make_coordinator("127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()


def start_workers(url, count, poll_interval=0.01):
    """In-process worker threads (same loop the CLI workers run)."""
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=run_worker,
            args=(url,),
            kwargs={"poll_interval": poll_interval, "stop": stop},
            daemon=True,
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return stop, threads


def run_remote_sweep(grid, load_sweep, executor, sinks):
    engine = BatchedAnalysisEngine()
    batch = engine.analyze_batch(grid, load_sweep, chunk_size=7, sinks=sinks, executor=executor)
    return batch, engine


class TestRemoteSweeps:
    @pytest.fixture(scope="class")
    def sequential(self, ibmpg1_grid, load_sweep):
        sinks = (QuantileSketchSink((0.5, 0.9)), TopKScenarioSink(4))
        batch, _ = run_remote_sweep(ibmpg1_grid, load_sweep, "serial", sinks)
        return batch, sinks

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bitwise_identical_at_every_worker_count(
        self, ibmpg1_grid, load_sweep, coordinator, sequential, workers
    ):
        stop, threads = start_workers(coordinator.url, workers)
        try:
            sinks = (QuantileSketchSink((0.5, 0.9)), TopKScenarioSink(4))
            executor = RemoteExecutor(
                workers=workers, coordinator=coordinator.url, timeout=120.0
            )
            batch, engine = run_remote_sweep(ibmpg1_grid, load_sweep, executor, sinks)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        seq_batch, seq_sinks = sequential
        assert np.array_equal(
            batch.reductions.worst_ir_drop, seq_batch.reductions.worst_ir_drop
        )
        assert np.array_equal(
            batch.reductions.worst_node_index, seq_batch.reductions.worst_node_index
        )
        assert np.array_equal(sinks[0].result().values, seq_sinks[0].result().values)
        assert np.array_equal(
            sinks[1].result().scenario_index, seq_sinks[1].result().scenario_index
        )
        # The parent warmed its own cache: one factorization, like processes.
        assert engine.cache_info().factorizations == 1

    def test_lease_expiry_recovers_from_a_vanished_worker(
        self, ibmpg1_grid, load_sweep, coordinator, sequential
    ):
        """A worker that leases shards and dies must not hang the sweep."""
        url = coordinator.url
        # The saboteur: concurrently lease two shards and never report
        # back, simulating a worker that died mid-solve.
        stolen = []

        def saboteur():
            import time

            deadline = time.monotonic() + 30.0
            while len(stolen) < 2 and time.monotonic() < deadline:
                status, body = _request(f"{url}/task")
                if status == 200:
                    stolen.append(pickle.loads(body))
                else:
                    time.sleep(0.005)

        saboteur_thread = threading.Thread(target=saboteur, daemon=True)
        saboteur_thread.start()
        stop, threads = start_workers(url, 1)
        try:
            sinks = (QuantileSketchSink((0.5, 0.9)),)
            executor = RemoteExecutor(
                workers=2,
                coordinator=url,
                lease_timeout=0.5,
                timeout=120.0,
            )
            batch, _ = run_remote_sweep(ibmpg1_grid, load_sweep, executor, sinks)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            saboteur_thread.join(timeout=10.0)
        assert len(stolen) == 2  # the saboteur really held two leases
        seq_batch, seq_sinks = sequential
        assert np.array_equal(
            batch.reductions.worst_ir_drop, seq_batch.reductions.worst_ir_drop
        )
        assert np.array_equal(sinks[0].result().values, seq_sinks[0].result().values)

    def test_poison_payload_fails_the_sweep_instead_of_hanging(self, coordinator):
        stop, threads = start_workers(coordinator.url, 1)
        try:
            body = pickle.dumps(
                {
                    "payload": b"not a pickle",
                    "ranges": [(0, 5)],
                    "lease_timeout": 30.0,
                    "max_attempts": 2,
                }
            )
            status, response = _request(f"{coordinator.url}/sweeps", data=body)
            assert status == 200
            sweep_id = pickle.loads(response)["sweep"]
            deadline = 30.0
            import time

            start = time.monotonic()
            while time.monotonic() - start < deadline:
                status, response = _request(f"{coordinator.url}/outcome/{sweep_id}")
                outcome = pickle.loads(response)
                if outcome["done"]:
                    break
                time.sleep(0.05)
            assert outcome["done"]
            assert "unloadable payload" in outcome["error"]
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

    def test_source_errors_name_global_scenarios(self, ibmpg1_grid, load_sweep, coordinator):
        """Workers call and validate the source at the sweep's indices."""
        stop, threads = start_workers(coordinator.url, 1)
        try:
            executor = RemoteExecutor(
                workers=2, coordinator=coordinator.url, max_attempts=1, timeout=120.0
            )
            # Rows run out at scenario 30: the chunks past it come back short.
            source = MatrixScenarioSource(load_matrix=load_sweep[:30])
            with pytest.raises(RuntimeError, match="scenario source returned") as raised:
                BatchedAnalysisEngine().analyze_scenario_stream(
                    ibmpg1_grid, source, load_sweep.shape[0], chunk_size=7, executor=executor
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        rows, begin, end = map(
            int, re.search(r"(\d+) rows for scenarios \[(\d+), (\d+)\)", str(raised.value)).groups()
        )
        assert end > 30 and rows == max(0, 30 - begin)

    def test_unreachable_coordinator_fails_loudly(self, ibmpg1_grid, load_sweep):
        executor = RemoteExecutor(workers=2, coordinator=DEAD_COORDINATOR)
        with pytest.raises(RuntimeError, match="cannot reach the remote coordinator"):
            run_remote_sweep(ibmpg1_grid, load_sweep, executor, ())

    def test_p2_rejected_before_anything_runs(self, ibmpg1_grid, load_sweep):
        executor = RemoteExecutor(workers=2, coordinator=DEAD_COORDINATOR)
        # Incompatibility precedes any coordinator traffic: the dead URL
        # is never contacted.
        with pytest.raises(ExecutorIncompatibility, match="remote shards"):
            run_remote_sweep(ibmpg1_grid, load_sweep, executor, (P2QuantileSink([0.5]),))

    def test_threads_per_shard_matches_serial(
        self, ibmpg1_grid, load_sweep, coordinator, sequential
    ):
        """Workers run the threaded pipeline the payload asks for."""
        stop, threads = start_workers(coordinator.url, 2)
        try:
            sinks = (QuantileSketchSink((0.5, 0.9)), TopKScenarioSink(4))
            executor = RemoteExecutor(
                workers=2,
                coordinator=coordinator.url,
                threads_per_shard=2,
                oversubscribe=2,
                timeout=120.0,
            )
            batch, _ = run_remote_sweep(ibmpg1_grid, load_sweep, executor, sinks)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        seq_batch, seq_sinks = sequential
        assert np.array_equal(
            batch.reductions.worst_ir_drop, seq_batch.reductions.worst_ir_drop
        )
        assert np.array_equal(sinks[0].result().values, seq_sinks[0].result().values)
        assert np.array_equal(
            sinks[1].result().scenario_index, seq_sinks[1].result().scenario_index
        )


# ----------------------------------------------------------------------
# Resolution and configuration
# ----------------------------------------------------------------------
class TestResolution:
    def test_remote_is_a_registered_executor_name(self, monkeypatch):
        monkeypatch.setenv(COORDINATOR_ENV, DEAD_COORDINATOR)
        assert "remote" in EXECUTOR_NAMES
        executor = make_executor("remote", 3)
        assert isinstance(executor, RemoteExecutor)
        assert executor.parallelism == 3

    def test_coordinator_env_is_picked_up(self, monkeypatch):
        monkeypatch.setenv(COORDINATOR_ENV, "http://example.invalid:1234/")
        executor = RemoteExecutor(workers=2)
        assert executor.coordinator == "http://example.invalid:1234"

    def test_requires_a_coordinator(self, monkeypatch):
        """No embedded fleet: without a coordinator nothing can run."""
        monkeypatch.delenv(COORDINATOR_ENV, raising=False)
        with pytest.raises(ValueError, match=COORDINATOR_ENV) as raised:
            RemoteExecutor(workers=2)
        assert "coordinator=" in str(raised.value)
        assert "python -m repro.analysis.remote coordinator" in str(raised.value)
        monkeypatch.setenv(EXECUTOR_ENV, "remote")
        with pytest.raises(ValueError, match=EXECUTOR_ENV):
            BatchedAnalysisEngine()

    def test_executor_env_selects_remote(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "remote")
        monkeypatch.setenv(COORDINATOR_ENV, DEAD_COORDINATOR)
        engine = BatchedAnalysisEngine()
        assert isinstance(engine._default_executor, RemoteExecutor)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"oversubscribe": 0},
            {"lease_timeout": 0.0},
            {"max_attempts": 0},
            {"timeout": 0.0},
            {"threads_per_shard": 0},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RemoteExecutor(coordinator=DEAD_COORDINATOR, **kwargs)

    def test_threads_per_shard_config(self):
        executor = RemoteExecutor(workers=3, threads_per_shard=2, coordinator=DEAD_COORDINATOR)
        assert executor.parallelism == 6

    def test_lenient_fallback_warns_with_sink_and_entry_point(
        self, ibmpg1_grid, load_sweep, monkeypatch
    ):
        """The env-default downgrade names the offender and the entry point."""
        monkeypatch.setenv(EXECUTOR_ENV, "remote")
        # The P² sweep is rejected before the (dead) coordinator is called.
        monkeypatch.setenv(COORDINATOR_ENV, DEAD_COORDINATOR)
        engine = BatchedAnalysisEngine()
        with pytest.warns(RuntimeWarning, match=r"analyze_batch:.*P2QuantileSink"):
            engine.analyze_batch(
                ibmpg1_grid, load_sweep, chunk_size=7, sinks=[P2QuantileSink([0.5])]
            )

    def test_lenient_fallback_warns_for_processes_too(
        self, ibmpg1_grid, load_sweep, monkeypatch
    ):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        engine = BatchedAnalysisEngine()
        with pytest.warns(RuntimeWarning, match=r"analyze_batch:.*P2QuantileSink"):
            engine.analyze_batch(
                ibmpg1_grid, load_sweep, chunk_size=7, sinks=[P2QuantileSink([0.5])]
            )

    def test_explicit_executor_still_raises_without_warning(
        self, ibmpg1_grid, load_sweep
    ):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ExecutorIncompatibility):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[P2QuantileSink([0.5])],
                executor=RemoteExecutor(workers=2, coordinator=DEAD_COORDINATOR),
            )
