"""In-memory span recorder and the timing wrappers the traced run installs.

Every span comes from an object the benchmark installs through a public
parameter or attribute of the program; nothing under ``src/`` knows it is
being traced:

* :class:`TimedBackend` is set as an engine's ``solver_backend`` and
  returns :class:`TimedFactorization` objects, so every fresh
  factorization and every triangular solve against one is a span;
* the ``Timed*Sink`` classes are the public sinks with their fold
  (``consume_drop_rows``) and shard ``merge`` wrapped in spans;
* :func:`wrap_method` replaces a bound method on one instance (an
  engine's ``solve_voltages``, a planner's ``plan``, a framework's
  ``width_predictor`` methods) by a span around the original.

Spans are kept in memory and reduced when the run ends.  The recorder is
single-threaded: the traced workloads call into the program from one
thread (sweep shards run in child processes, whose spans are not
recorded).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.analysis import (
    ExceedanceCountSink,
    JointExceedanceSink,
    NodeHistogramSink,
    P2QuantileSink,
    QuantileSketchSink,
    TopKScenarioSink,
)
from repro.analysis.solvers import Factorization


class Tracer:
    """Spans (name, start, end, parent) and named counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def durations(self, name: str, inside: str | None = None) -> list[float]:
        """Durations of the spans called ``name``, in the order they opened.

        With ``inside``, only spans nested (at any depth) in a span of that
        name count.
        """
        return [
            end - start
            for index, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name and self._within(index, inside)
        ]

    def total(self, name: str, inside: str | None = None) -> float:
        """Summed duration of the spans called ``name`` (see :meth:`durations`)."""
        return sum(self.durations(name, inside))

    def _within(self, index: int, ancestor: str | None) -> bool:
        if ancestor is None:
            return True
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def self_time(self, predicate: Callable[[str], bool], inside: str | None = None) -> float:
        """Summed self time of the spans whose name satisfies ``predicate``.

        A span's self time is its duration minus the durations of its
        direct children.  ``inside`` filters as in :meth:`durations`.
        """
        own = {
            index: span[2] - span[1]
            for index, span in enumerate(self.spans)
            if predicate(span[0]) and self._within(index, inside)
        }
        for name, start, end, parent in self.spans:
            if parent in own:
                own[parent] -= end - start
        return sum(own.values())


class TimedFactorization(Factorization):
    """A fresh factorization whose solves are recorded as spans."""

    def __init__(self, inner: Factorization, tracer: Tracer) -> None:
        self.backend = inner.backend
        self._inner = inner
        self._tracer = tracer

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        with self._tracer.span("solvers.solve"):
            solution = self._inner.solve(rhs)
        self._tracer.count("solvers.solve_calls")
        self._tracer.count("solvers.solve_cols", 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
        return solution


class TimedBackend:
    """Solver backend delegating to another one, timing factor and solves.

    Keeps the delegate's ``name``, so the engine's cache keys, and the
    backend name sweep shards resolve in their own processes, are
    unchanged.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.name = inner.name
        self._inner = inner
        self._tracer = tracer

    def factor(self, matrix) -> TimedFactorization:
        with self._tracer.span("solvers.factor"):
            factor = self._inner.factor(matrix)
        self._tracer.count("solvers.factor_calls")
        return TimedFactorization(factor, self._tracer)


class _TimedSink:
    """Mixin timing a sink's fold and merge; ``label`` names its spans.

    The tracer is dropped when the sink is pickled into a sweep shard, so
    shards fold untraced and only the parent's merges are recorded.
    """

    label = ""
    tracer: Tracer | None = None

    def consume_drop_rows(self, drop_rows: np.ndarray, scenario_offset: int) -> None:
        if self.tracer is None:
            return super().consume_drop_rows(drop_rows, scenario_offset)
        with self.tracer.span(f"sinks.{self.label}.consume"):
            super().consume_drop_rows(drop_rows, scenario_offset)

    def merge(self, snapshot) -> None:
        if self.tracer is None:
            return super().merge(snapshot)
        with self.tracer.span(f"sinks.{self.label}.merge"):
            super().merge(snapshot)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("tracer", None)
        return state


class TimedP2QuantileSink(_TimedSink, P2QuantileSink):
    label = "p2"


class TimedNodeHistogramSink(_TimedSink, NodeHistogramSink):
    label = "histogram"


class TimedExceedanceCountSink(_TimedSink, ExceedanceCountSink):
    label = "exceedance"


class TimedJointExceedanceSink(_TimedSink, JointExceedanceSink):
    label = "joint"


class TimedTopKScenarioSink(_TimedSink, TopKScenarioSink):
    label = "topk"


class TimedQuantileSketchSink(_TimedSink, QuantileSketchSink):
    label = "sketch"


SINK_LABELS = ("p2", "histogram", "exceedance", "joint", "topk", "sketch")

_TIMED_SINKS = {
    P2QuantileSink: TimedP2QuantileSink,
    NodeHistogramSink: TimedNodeHistogramSink,
    ExceedanceCountSink: TimedExceedanceCountSink,
    JointExceedanceSink: TimedJointExceedanceSink,
    TopKScenarioSink: TimedTopKScenarioSink,
    QuantileSketchSink: TimedQuantileSketchSink,
}


def make_sink(cls, tracer: Tracer | None, *args):
    """Build ``cls(*args)``, or its timed twin recording into ``tracer``."""
    if tracer is None:
        return cls(*args)
    sink = _TIMED_SINKS[cls](*args)
    sink.tracer = tracer
    return sink


def wrap_method(obj, attribute: str, tracer: Tracer, span: str):
    """Shadow ``obj.attribute`` with a span around the bound original.

    Returns a callable that removes the shadow again.
    """
    original = getattr(obj, attribute)

    def traced(*args, **kwargs):
        with tracer.span(span):
            return original(*args, **kwargs)

    setattr(obj, attribute, traced)
    return lambda: delattr(obj, attribute)
