"""The benchmark's workloads, driven through the public API only.

A workload builds its inputs from the workload seed (:meth:`setup`), then
runs operations: one cold operation right after set-up and as many warm
ones as the run's time allows.  ``run(tracer)`` runs one operation; with
a :class:`~perfbench.tracing.Tracer` it installs the timing wrappers first
and removes them afterwards, so traced and untraced operations can
alternate in one process.  Correctness checks run between operations,
outside the timed calls.

===============  =====================================================
workload         one operation
===============  =====================================================
sweep-serial     ``analyze_mega_sweep`` on ibmpg1, 80 x 64 scenarios,
                 serial executor, the ``repro sweep`` sink stack
sweep-parallel   ``analyze_mega_sweep`` on ibmpgnew1, 16 x 32
                 scenarios, ``HybridExecutor()`` with auto knobs,
                 sketch + top-5 sinks
paper-flow       cold: ``PowerPlanningDL.train_on_benchmark(ibmpg2)``;
                 warm: ``predict_design`` of one perturbed spec, next to
                 the conventional plan of the same spec
===============  =====================================================
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCountSink,
    HybridExecutor,
    JointExceedanceSink,
    NodeHistogramSink,
    P2QuantileSink,
    QuantileSketchSink,
    TopKScenarioSink,
)
from repro.core import PowerPlanningDL
from repro.design import ConventionalPowerPlanner
from repro.grid import (
    GridBuilder,
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    mega_sweep_matrices,
)
from repro.nn import RegressorConfig, TrainingConfig

from .stats import percentile, tail_level
from .tracing import (
    SINK_LABELS,
    TimedBackend,
    Tracer,
    make_sink,
    wrap_method,
)

QUANTILES = (0.5, 0.9, 0.99)
SKETCH_RELATIVE_ERROR = 0.01
"""``QuantileSketchSink``'s documented bound, which the check holds it to."""

WIDTH_MSE_BOUND_PCT = 15.0
"""Largest per-spec width MSE% the paper-flow check accepts.

At gamma = 10 % the 60-epoch model scores 2.8-5.9 % over 40 specs, so a
spec beyond 15 % means the model or the golden labels broke.
"""

BLOCKING_TOLERANCE_V = 1e-12
"""Tolerance between solves whose right-hand sides are blocked differently.

SuperLU's multi-RHS solve is not bitwise-independent of how many columns
share a block: on ibmpg1 a column solved in a 4096-wide block differs by
up to 4.4e-16 V from the same column solved in a 192-wide one.  Results
are compared bit for bit only where the blocking is the same.
"""


@dataclass
class Op:
    """One operation: its timed wall, what the checks compare, its counters."""

    wall: float
    traced: bool
    output: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    failed: bool = False


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _mismatches(output: dict, reference: dict, atol: float = 0.0) -> list[str]:
    """Names of the arrays that differ between two outputs.

    Integer arrays must be equal; float arrays too, or within ``atol``.
    """

    def differs(value, expected) -> bool:
        value, expected = np.asarray(value), np.asarray(expected)
        if atol and value.shape == expected.shape and expected.dtype.kind == "f":
            return not np.allclose(value, expected, rtol=0.0, atol=atol)
        return not np.array_equal(value, expected)

    return [name for name, expected in reference.items() if differs(output.get(name), expected)]


def _cache_delta(engine: BatchedAnalysisEngine, before) -> dict:
    return {"solvers.cache_hits": engine.cache_info().hits - before.hits}


class Workload:
    """Base of the workloads (see the module docstring)."""

    name = ""
    min_warm_ops = 2

    def __init__(self, seed: int, scale: float = 1.0, trace: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.trace = trace
        self.suite = SyntheticIBMSuite(scale=scale)

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def run(self, tracer: Tracer | None, cold: bool) -> Op:
        raise NotImplementedError

    def check(self, op: Op, cold: Op) -> list[str]:
        """Per-operation checks; an operation with any message failed."""
        return []

    def reference_check(self, cold: Op) -> list[str]:
        """One-off checks of the cold operation against an independent reference."""
        return []

    def executor(self, op: Op) -> dict:
        return {"name": "none"}

    def figures(self, cold: Op, warm: list[Op]) -> dict:
        """The workload's own named figures for the human-readable report."""
        return {}

    def layer_extras(self, tracer: Tracer, cold: Op, warm: list[Op]) -> dict:
        """Per-layer metrics only this workload can compute."""
        return {}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class _Sweep(Workload):
    benchmark = ""
    num_loads = 0
    num_pads = 0
    blocking_tolerance = 0.0
    """Tolerance between two sweeps of the same inputs (0: bit for bit)."""

    def __init__(self, seed: int, scale: float = 1.0, trace: bool = False) -> None:
        super().__init__(seed, scale, trace)
        self.loads_rows = max(4, round(self.num_loads * scale))
        self.pad_rows = max(2, round(self.num_pads * scale))

    def params(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "width_um": 5.0,
            "gamma": 0.2,
            "load_rows": self.loads_rows,
            "pad_rows": self.pad_rows,
            "scenarios": self.loads_rows * self.pad_rows,
            "sinks": [type(sink).__name__ for sink in self.make_sinks(None)],
        }

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("grid.build"):
            self.bench = self.suite.load(self.benchmark)
            self.grid = self.bench.build_uniform_grid(5.0).compile()
        self.engine = BatchedAnalysisEngine()
        self.threshold = self.engine.analyze(self.grid).worst_ir_drop
        with tracer.span("grid.inputs"):
            self.loads, self.pads = mega_sweep_matrices(
                self.grid, self.bench.floorplan, 0.2, self.loads_rows, self.pad_rows, seed=self.seed
            )
        if self.trace:
            # A second engine whose backend records spans; warmed here like
            # the plain one, so both serve warm operations from a cached
            # factorization.
            self.traced_engine = BatchedAnalysisEngine()
            self.traced_engine.solver_backend = TimedBackend(
                self.traced_engine.solver_backend, tracer
            )
            self.traced_engine.analyze(self.grid)

    @property
    def num_scenarios(self) -> int:
        return self.loads_rows * self.pad_rows

    def make_sinks(self, tracer: Tracer | None) -> tuple:
        raise NotImplementedError

    def make_executor(self):
        raise NotImplementedError

    def sweep(self, engine, tracer, executor) -> tuple:
        sinks = self.make_sinks(tracer)
        start = time.perf_counter()
        with _span(tracer, "engine.sweep"):
            result = engine.analyze_mega_sweep(
                self.grid, self.loads, self.pads, sinks=sinks, executor=executor
            )
        return result, sinks, time.perf_counter() - start

    def run(self, tracer: Tracer | None, cold: bool) -> Op:
        engine = self.engine if tracer is None else self.traced_engine
        executor = self.make_executor()
        before = engine.cache_info()
        counted = dict(tracer.counts) if tracer is not None else {}
        with _span(tracer, "op"):
            result, sinks, wall = self.sweep(engine, tracer, executor)
        counts = {
            "engine.chunk_size": result.chunk_size,
            "engine.chunks": -(-result.num_scenarios // result.chunk_size),
            **_cache_delta(engine, before),
        }
        if tracer is not None:
            for name in ("solvers.factor_calls", "solvers.solve_calls", "solvers.solve_cols"):
                counts[name] = tracer.counts.get(name, 0) - counted.get(name, 0)
        stats = dict(getattr(executor, "last_stats", None) or {})
        counts.update({f"executors.{key}": value for key, value in stats.items()})
        counts["executor"] = {"name": result.executor, "workers": result.workers, **stats}
        return Op(wall=wall, traced=tracer is not None, output=sweep_output(result, sinks),
                  counts=counts)

    def check(self, op: Op, cold: Op) -> list[str]:
        if op is cold:
            return []
        differing = _mismatches(op.output, cold.output, self.blocking_tolerance)
        return [f"differs from the cold sweep: {differing}"] if differing else []

    def executor(self, op: Op) -> dict:
        return op.counts["executor"]

    def figures(self, cold: Op, warm: list[Op]) -> dict:
        warm_wall = statistics.median(op.wall for op in warm if not op.traced)
        return {
            "first_sweep_s": cold.wall,
            "sweep_scen_per_s": self.num_scenarios / warm_wall,
            "scenarios": self.num_scenarios,
            "chunk_size": cold.counts["engine.chunk_size"],
            "executor": cold.counts["executor"]["name"],
            "warm_sweeps": sum(not op.traced for op in warm),
        }

    def dense_reference(self, scenarios: np.ndarray) -> dict:
        """Per-scenario drops and reductions from one dense batch solve."""
        load_rows, pad_rows = np.divmod(scenarios, self.pad_rows)
        batch = self.engine.analyze_pad_batch(
            self.grid, self.pads[pad_rows], self.loads[load_rows]
        )
        drops = np.ascontiguousarray((self.grid.vdd - batch.voltages).T)
        return {
            "drops": drops,
            "worst": drops.max(axis=1),
            "mean": drops.mean(axis=1),
            "node": drops.argmax(axis=1),
        }


def sweep_output(result, sinks) -> dict:
    """Every array a sweep produced: reductions plus each sink's result."""
    output = {
        "worst": result.worst_ir_drop,
        "mean": result.average_ir_drop,
        "node": result.worst_node_index,
    }
    for sink in sinks:
        value = sink.result()
        if isinstance(sink, P2QuantileSink):
            output["p2.values"] = value.values
        elif isinstance(sink, QuantileSketchSink):
            output["sketch.values"] = value.values
        elif isinstance(sink, NodeHistogramSink):
            output["histogram.counts"] = value.counts
            output["histogram.underflow"] = value.underflow
            output["histogram.overflow"] = value.overflow
        elif isinstance(sink, ExceedanceCountSink):
            output["exceedance.counts"] = value.counts
        elif isinstance(sink, JointExceedanceSink):
            output["joint.counts"] = value.violating_node_counts
        elif isinstance(sink, TopKScenarioSink):
            output["topk.index"] = value.scenario_index
            output["topk.worst"] = value.worst_ir_drop
            output["topk.node"] = value.worst_node_index
    return output


def _topk_reference(worst: np.ndarray, nodes: np.ndarray, k: int) -> dict:
    order = np.lexsort((np.arange(worst.size), -worst))[:k]
    return {"topk.index": order, "topk.worst": worst[order], "topk.node": nodes[order]}


class SweepSerial(_Sweep):
    name = "sweep-serial"
    benchmark = "ibmpg1"
    num_loads = 80
    num_pads = 64

    def make_sinks(self, tracer: Tracer | None) -> tuple:
        edges = np.linspace(0.0, max(2.0 * self.threshold, 1e-6), 33)
        return (
            make_sink(P2QuantileSink, tracer, QUANTILES),
            make_sink(NodeHistogramSink, tracer, edges),
            make_sink(ExceedanceCountSink, tracer, self.threshold),
            make_sink(JointExceedanceSink, tracer, self.threshold),
            make_sink(TopKScenarioSink, tracer, 5),
        )

    def make_executor(self):
        return "serial"

    def reference_check(self, cold: Op) -> list[str]:
        """Streamed reductions and exact sinks against a dense solve.

        The reference covers the sweep's first chunk, so the dense solve
        blocks its right-hand sides exactly like the streamed one.  A
        streamed sub-sweep of those scenarios must give numpy's reductions
        and sink statistics over the dense voltages bit for bit, and so
        must the timed sweep's reductions.
        """
        scenarios = np.arange(min(cold.counts["engine.chunk_size"], self.num_scenarios))
        dense = self.dense_reference(scenarios)
        load_rows, pad_rows = np.divmod(scenarios, self.pad_rows)
        sinks = self.make_sinks(None)
        result = self.engine.analyze_pad_batch(
            self.grid, self.pads[pad_rows], self.loads[load_rows],
            chunk_size=scenarios.size, sinks=sinks, executor="serial",
        )
        streamed = sweep_output(result, sinks)
        drops, edges = dense["drops"], sinks[1].edges
        expected = {
            "worst": dense["worst"],
            "mean": dense["mean"],
            "node": dense["node"],
            "histogram.counts": np.stack(
                [np.histogram(drops[:, node], edges)[0] for node in range(drops.shape[1])]
            ),
            "histogram.underflow": (drops < edges[0]).sum(axis=0),
            "histogram.overflow": (drops > edges[-1]).sum(axis=0),
            "exceedance.counts": (drops > self.threshold).sum(axis=0),
            "joint.counts": np.bincount((drops > self.threshold).sum(axis=1)),
            **_topk_reference(dense["worst"], dense["node"], 5),
        }
        failures = []
        differing = _mismatches(streamed, expected)
        if differing:
            failures.append(f"streamed sub-sweep differs from the dense reference: {differing}")
        timed = {name: cold.output[name][scenarios] for name in ("worst", "mean", "node")}
        differing = _mismatches(timed, {name: dense[name] for name in timed})
        if differing:
            failures.append(f"timed sweep differs from the dense reference: {differing}")
        p2, worst = cold.output["p2.values"], cold.output["worst"]
        if not (np.all(np.diff(p2) >= 0) and worst.min() <= p2[0] and p2[-1] <= worst.max()):
            failures.append(f"P2 quantiles {p2} outside the observed worst-drop range")
        return failures


class SweepParallel(_Sweep):
    name = "sweep-parallel"
    benchmark = "ibmpgnew1"
    num_loads = 16
    num_pads = 32
    reference_samples = 64
    # Rebalancing re-splits the tail by measured cost, so two sweeps of the
    # same inputs block their chunks differently.
    blocking_tolerance = BLOCKING_TOLERANCE_V

    def make_sinks(self, tracer: Tracer | None) -> tuple:
        return (
            make_sink(QuantileSketchSink, tracer, QUANTILES),
            make_sink(TopKScenarioSink, tracer, 5),
        )

    def make_executor(self):
        return HybridExecutor()

    def reference_check(self, cold: Op) -> list[str]:
        """Sampled scenarios, sketch quantiles and top-k against references."""
        failures = []
        rng = np.random.default_rng(self.seed)
        count = min(self.reference_samples, self.num_scenarios)
        scenarios = np.sort(rng.choice(self.num_scenarios, size=count, replace=False))
        dense = self.dense_reference(scenarios)
        sampled = {name: cold.output[name][scenarios] for name in ("worst", "mean", "node")}
        differing = _mismatches(
            sampled, {name: dense[name] for name in sampled}, BLOCKING_TOLERANCE_V
        )
        if differing:
            failures.append(f"sampled scenarios differ from a serial analyze_pad_batch: {differing}")
        worst = cold.output["worst"]
        exact = np.quantile(worst, QUANTILES, method="lower")
        sketch = cold.output["sketch.values"]
        error = np.abs(sketch - exact) / exact
        if not np.all(error <= SKETCH_RELATIVE_ERROR * (1 + 1e-9)):
            failures.append(f"sketch quantiles {sketch} not within 1% of {exact}")
        topk = {name: cold.output[name] for name in ("topk.index", "topk.worst", "topk.node")}
        differing = _mismatches(topk, _topk_reference(worst, cold.output["node"], 5))
        if differing:
            failures.append(f"top-k differs from an argsort of the worst drops: {differing}")
        if self.trace:
            # The traced run's speedup baseline doubles as the executor
            # equivalence check against the same sweep run serially.
            result, sinks, self.serial_wall = self.sweep(self.engine, None, "serial")
            differing = _mismatches(sweep_output(result, sinks), cold.output, BLOCKING_TOLERANCE_V)
            if differing:
                failures.append(f"hybrid sweep differs from the serial sweep: {differing}")
        return failures

    def layer_extras(self, tracer: Tracer, cold: Op, warm: list[Op]) -> dict:
        parallel_wall = statistics.median(op.wall for op in warm if not op.traced)
        speedup = self.serial_wall / parallel_wall
        workers = cold.counts["executor"]["workers"]
        return {
            "executors.speedup_vs_serial": speedup,
            "executors.efficiency": speedup / workers,
        }


# ----------------------------------------------------------------------
# The paper's train / predict flow
# ----------------------------------------------------------------------
class PaperFlow(Workload):
    """Fig. 2 on ibmpg2: train once, then predict perturbed specs (Tables IV, V)."""

    name = "paper-flow"
    benchmark = "ibmpg2"
    gamma = 0.10
    epochs = 60
    max_specs = 4000
    min_warm_ops = 20

    def __init__(self, seed: int, scale: float = 1.0, trace: bool = False) -> None:
        super().__init__(seed, scale, trace)
        self.epochs = max(20, round(self.epochs * scale))

    def params(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "hidden_layers": 10,
            "hidden_width": 32,
            "epochs": self.epochs,
            "gamma": self.gamma,
            "perturbation": PerturbationKind.BOTH.value,
            "spec_seeds": f"{self.seed} * {self.max_specs} + i",
        }

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("grid.build"):
            self.bench = self.suite.load(self.benchmark)
        with tracer.span("grid.inputs"):
            self.specs = [
                PerturbationSpec(
                    gamma=self.gamma, kind=PerturbationKind.BOTH, seed=self.seed * self.max_specs + i
                )
                for i in range(self.max_specs)
            ]
        config = RegressorConfig(
            hidden_layers=10,
            hidden_width=32,
            training=TrainingConfig(
                epochs=self.epochs, batch_size=128, early_stopping_patience=0, seed=0
            ),
            seed=0,
        )
        self.planner = ConventionalPowerPlanner(self.bench.technology)
        self.framework = PowerPlanningDL(self.bench.technology, config, planner=self.planner)
        self.next_spec = 0

    @contextmanager
    def instrumented(self, tracer: Tracer | None, plan_span: str) -> Iterator[None]:
        if tracer is None:
            yield
            return
        # Installed through public attributes and removed on exit; the
        # engine's cached factorizations are dropped too, so no timed
        # factorization outlives the traced operation.
        predictor, engine = self.framework.width_predictor, self.planner.analyzer
        backend = engine.solver_backend
        engine.solver_backend = TimedBackend(backend, tracer)
        undo = [
            wrap_method(predictor, "fit", tracer, "nn.fit"),
            wrap_method(predictor, "predict_design", tracer, "core.width_predict"),
            wrap_method(self.framework.ir_estimator, "predict", tracer, "core.irdrop_estimate"),
            wrap_method(engine, "solve_voltages", tracer, "engine.solve_voltages"),
            wrap_method(self.planner, "plan", tracer, plan_span),
        ]
        try:
            yield
        finally:
            for restore in undo:
                restore()
            engine.solver_backend = backend
            engine.clear_cache()

    def run(self, tracer: Tracer | None, cold: bool) -> Op:
        return self.train(tracer) if cold else self.predict_spec(tracer)

    def train(self, tracer: Tracer | None) -> Op:
        with self.instrumented(tracer, "core.golden_plan"):
            start = time.perf_counter()
            with _span(tracer, "op"), _span(tracer, "core.train"):
                trained = self.framework.train_on_benchmark(self.bench)
            wall = time.perf_counter() - start
        history = trained.training_history
        counts = {
            "nn.epochs": history.epochs_run,
            "nn.samples": trained.benchmark_dataset.training.num_samples,
        }
        output = {"final_loss": history.train_losses[-1] if history.train_losses else float("nan")}
        return Op(wall=wall, traced=tracer is not None, output=output, counts=counts)

    def predict_spec(self, tracer: Tracer | None) -> Op:
        spec = self.specs[self.next_spec % self.max_specs]
        self.next_spec += 1
        cache = self.planner.analyzer.cache_info()
        counted = dict(tracer.counts) if tracer is not None else {}
        with self.instrumented(tracer, "design.plan"), _span(tracer, "op"):
            with _span(tracer, "core.perturbed_test"):
                dataset, floorplan, plan = self.framework.dataset_builder.build_perturbed_test(
                    self.bench, spec
                )
            start = time.perf_counter()
            with _span(tracer, "core.predict"):
                predicted = self.framework.predict_design(floorplan, self.bench.topology)
            wall = time.perf_counter() - start
            with _span(tracer, "core.score"):
                mse = self.framework.evaluate(dataset).mse_percent
        counts = {
            "design.iterations": plan.num_iterations,
            "design.worst_drop_mv": plan.ir_result.worst_ir_drop_mv,
            "conventional_s": plan.total_time,
            "converged": plan.converged,
            "width_mse_pct": mse,
            **_cache_delta(self.planner.analyzer, cache),
        }
        if tracer is not None:
            for name in ("solvers.factor_calls", "solvers.solve_calls", "solvers.solve_cols"):
                counts[name] = tracer.counts.get(name, 0) - counted.get(name, 0)
        output = {
            "floorplan": floorplan,
            "widths": predicted.line_widths,
            "predicted_worst": predicted.ir_drop.worst_ir_drop,
        }
        return Op(wall=wall, traced=tracer is not None, output=output, counts=counts)

    def check(self, op: Op, cold: Op) -> list[str]:
        if op is cold:
            loss = op.output["final_loss"]
            return [] if np.isfinite(loss) else [f"training loss {loss} is not finite"]
        failures = []
        if not (np.all(np.isfinite(op.output["widths"]))
                and np.isfinite(op.output["predicted_worst"])):
            failures.append("prediction is not finite")
        if not op.counts["converged"]:
            failures.append("the conventional plan of the spec did not converge")
        if not op.counts["width_mse_pct"] <= WIDTH_MSE_BOUND_PCT:
            failures.append(
                f"width MSE {op.counts['width_mse_pct']:.2f}% above {WIDTH_MSE_BOUND_PCT}%"
            )
        if not op.traced:
            op.output.pop("floorplan")  # only traced specs are re-analysed later
        return failures

    def figures(self, cold: Op, warm: list[Op]) -> dict:
        plain = [op for op in warm if not op.traced]
        predict_ms = [op.wall * 1e3 for op in plain]
        level = tail_level(len(predict_ms))
        conventional_ms = statistics.median(op.counts["conventional_s"] * 1e3 for op in plain)
        figures = {
            "train_s": cold.wall,
            "specs": len(plain),
            "predict_ms_p50": statistics.median(predict_ms),
            "conventional_ms_p50": conventional_ms,
            "width_mse_pct": statistics.median(op.counts["width_mse_pct"] for op in plain),
            "dl_speedup": conventional_ms / statistics.median(predict_ms),
        }
        if level is not None:
            figures[f"predict_ms_p{level:g}"] = percentile(predict_ms, level)
        return figures

    def layer_extras(self, tracer: Tracer, cold: Op, warm: list[Op]) -> dict:
        traced = [op for op in warm if op.traced]
        builder = GridBuilder(self.bench.technology)
        errors = []
        for op in traced[:5]:
            network = builder.build(op.output["floorplan"], self.bench.topology, op.output["widths"])
            actual = BatchedAnalysisEngine().analyze(network).worst_ir_drop
            errors.append(abs(op.output["predicted_worst"] - actual) / actual * 100.0)
        fit_s = tracer.total("nn.fit")
        figures = self.figures(cold, warm)
        return {
            "nn.epochs": cold.counts["nn.epochs"],
            "nn.samples_per_s": cold.counts["nn.samples"] * cold.counts["nn.epochs"] / fit_s,
            "core.width_mse_pct": figures["width_mse_pct"],
            "core.dl_speedup": figures["dl_speedup"],
            "core.irdrop_err_pct": statistics.median(errors),
        }


WORKLOADS = {cls.name: cls for cls in (SweepSerial, SweepParallel, PaperFlow)}


# ----------------------------------------------------------------------
# Per-layer reduction of a traced run
# ----------------------------------------------------------------------
COUNT_METRICS = (
    "solvers.factor_calls",
    "solvers.solve_calls",
    "solvers.solve_cols",
    "solvers.cache_hits",
    "engine.chunk_size",
    "engine.chunks",
    "executors.shards",
    "executors.tasks",
    "executors.rebalances",
    "executors.payload_bytes_shared",
    "design.iterations",
    "design.worst_drop_mv",
    "nn.epochs",
)
"""Per-layer values taken from the first traced warm operation (0 where
the workload does not use the layer); they repeat exactly for a seed, but
for ``executors.tasks``, which the hybrid executor derives from a measured
rate times a measured time (see README.md)."""

EXTRA_METRICS = (
    "executors.speedup_vs_serial",
    "executors.efficiency",
    "nn.samples_per_s",
    "core.width_mse_pct",
    "core.dl_speedup",
    "core.irdrop_err_pct",
)


def layer_metrics(tracer: Tracer, workload: Workload, cold: Op, warm: list[Op]) -> dict:
    """Every per-layer metric of a traced run.

    Times that every workload spends once (grid build, input generation)
    are reported in seconds, and a factorization as the median of its
    fresh ones.  The time of a layer that only some workloads use is its
    share, in percent, of the wall time of the operations it runs in, so
    that it reads 0 where the layer does not run and does not depend on
    how many operations the run finished: training layers (``nn.fit``,
    the golden plan, features) over the cold operation, every other layer
    over the traced warm operations.  The phases are the ``cold`` and
    ``warm`` spans :func:`perfbench.workload.measure` opens.
    """
    walls = {phase: tracer.total("op", inside=phase) for phase in ("cold", "warm")}

    def share(name: str, phase: str = "warm") -> float:
        return 100.0 * tracer.total(name, inside=phase) / walls[phase]

    def self_share(predicate, phase: str = "warm") -> float:
        return 100.0 * tracer.self_time(predicate, inside=phase) / walls[phase]

    traced = [op for op in warm if op.traced]
    metrics = {name: traced[0].counts.get(name, 0) for name in COUNT_METRICS}
    metrics.update({name: 0.0 for name in EXTRA_METRICS})
    solve_s = tracer.total("solvers.solve", inside="warm")
    solve_cols = sum(op.counts.get("solvers.solve_cols", 0) for op in traced)
    consume = {label: share(f"sinks.{label}.consume") for label in SINK_LABELS}
    metrics.update(
        {
            "grid.build_s": tracer.total("grid.build"),
            "grid.inputs_s": tracer.total("grid.inputs"),
            "solvers.factor_s": statistics.median(tracer.durations("solvers.factor")),
            "solvers.solve_pct": share("solvers.solve"),
            "solvers.cols_per_s": solve_cols / solve_s if solve_s else 0.0,
            "engine.self_pct": self_share(lambda name: name.startswith("engine.")),
            **{f"sinks.{label}.consume_pct": consume[label] for label in SINK_LABELS},
            "sinks.fold_pct": sum(consume.values()),
            "sinks.merge_pct": sum(share(f"sinks.{label}.merge") for label in SINK_LABELS),
            "design.self_pct": self_share(lambda name: name == "design.plan"),
            "nn.fit_pct": share("nn.fit", "cold"),
            "core.golden_plan_pct": share("core.golden_plan", "cold"),
            "core.features_pct": self_share(lambda name: name == "core.train", "cold"),
            "core.width_predict_pct": share("core.width_predict"),
            "core.irdrop_estimate_pct": share("core.irdrop_estimate"),
        }
    )
    metrics.update(workload.layer_extras(tracer, cold, warm))
    plain = [op.wall for op in warm if not op.traced]
    metrics["trace.overhead_pct"] = 100.0 * (min(op.wall for op in traced) / min(plain) - 1.0)
    return metrics
