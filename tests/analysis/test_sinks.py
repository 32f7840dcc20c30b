"""Tests for the streamed scenario-sink subsystem and mega-sweeps.

Exact sinks (histogram, exceedance, top-k) must match a dense single-shot
reference **bitwise** for every chunk size — including ``chunk_size=1`` and
chunk sizes larger than the sweep.  Quantile sinks must stay within their
tolerance (P², the sketch's relative error).  Mega-sweeps must equal
an explicitly materialised cross product, and the statistical vectorless
sweep must stay below the deterministic worst-case bound.
"""

import copy
import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCounts,
    ExceedanceCountSink,
    HybridExecutor,
    IRDropSink,
    JointExceedanceSink,
    NodeHistogramSink,
    P2QuantileSink,
    QuantileSketchSink,
    SinkSnapshot,
    TopKScenarioSink,
    VectorlessAnalyzer,
    make_executor,
    uniform_budget,
)
from repro.analysis.sinks import _SCRATCH_ROWS
from repro.grid import (
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    mega_sweep_matrices,
    perturbed_load_matrix,
    perturbed_pad_voltage_matrix,
)

CHUNK_SIZES = [1, 7, 37, 100]
"""Sharding widths exercised everywhere: single-scenario, non-divisor,
exactly the sweep size, and larger than the sweep."""


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def ibmpg1_grid(ibmpg1_bench):
    return ibmpg1_bench.build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def load_sweep(ibmpg1_grid):
    spec = PerturbationSpec(gamma=0.25, kind=PerturbationKind.CURRENT_WORKLOADS, seed=5)
    return perturbed_load_matrix(ibmpg1_grid, spec, 37)


@pytest.fixture(scope="module")
def dense_drops(ibmpg1_grid, load_sweep):
    """Dense single-shot ``(num_nodes, k)`` IR-drop reference matrix."""
    batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep)
    return batch.ir_drop


@pytest.fixture(scope="module")
def histogram_edges(dense_drops):
    """Edges chosen so the sweep produces under- and overflow counts."""
    lo = dense_drops.min() + 0.2 * np.ptp(dense_drops)
    hi = dense_drops.max() - 0.1 * np.ptp(dense_drops)
    return np.linspace(lo, hi, 14)


def run_sinks(grid, load_sweep, chunk_size, sinks):
    engine = BatchedAnalysisEngine()
    engine.analyze_batch(grid, load_sweep, chunk_size=chunk_size, sinks=sinks)
    return sinks


class TestExactSinksBitwise:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_histogram_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, histogram_edges, chunk_size
    ):
        (sink,) = run_sinks(
            ibmpg1_grid, load_sweep, chunk_size, [NodeHistogramSink(histogram_edges)]
        )
        histogram = sink.result()
        expected = np.empty_like(histogram.counts)
        for node in range(dense_drops.shape[0]):
            expected[node] = np.histogram(dense_drops[node], bins=histogram_edges)[0]
        assert np.array_equal(histogram.counts, expected)
        assert np.array_equal(histogram.underflow, (dense_drops < histogram_edges[0]).sum(axis=1))
        assert np.array_equal(histogram.overflow, (dense_drops > histogram_edges[-1]).sum(axis=1))
        assert histogram.underflow.sum() > 0 and histogram.overflow.sum() > 0
        assert np.array_equal(histogram.total, np.full(dense_drops.shape[0], load_sweep.shape[0]))

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_exceedance_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, chunk_size
    ):
        threshold = float(np.quantile(dense_drops, 0.9))
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, chunk_size, [ExceedanceCountSink(threshold)])
        exceedance = sink.result()
        expected = (dense_drops > threshold).sum(axis=1)
        assert np.array_equal(exceedance.counts, expected)
        assert exceedance.num_scenarios == load_sweep.shape[0]
        assert exceedance.worst_node_index == int(expected.argmax())
        assert np.array_equal(exceedance.rates, expected / load_sweep.shape[0])

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_topk_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, chunk_size
    ):
        rows = np.ascontiguousarray(dense_drops.T)
        worst = rows.max(axis=1)
        order = np.lexsort((np.arange(worst.size), -worst))[:5]
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, chunk_size, [TopKScenarioSink(5)])
        topk = sink.result()
        assert np.array_equal(topk.scenario_index, order)
        assert np.array_equal(topk.worst_ir_drop, worst[order])
        assert np.array_equal(topk.worst_node_index, rows.argmax(axis=1)[order])
        assert topk.k == 5

    def test_topk_larger_than_sweep_keeps_everything(self, ibmpg1_grid, load_sweep, dense_drops):
        k = load_sweep.shape[0]
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, 8, [TopKScenarioSink(k + 50)])
        topk = sink.result()
        assert topk.k == k
        worst = np.ascontiguousarray(dense_drops.T).max(axis=1)
        assert np.array_equal(np.sort(topk.scenario_index), np.arange(k))
        assert topk.worst_ir_drop[0] == worst.max()

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_joint_exceedance_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, chunk_size
    ):
        threshold = float(np.quantile(dense_drops, 0.8))
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, chunk_size, [JointExceedanceSink(threshold)])
        joint = sink.result()
        violating_per_scenario = (dense_drops > threshold).sum(axis=0)
        expected = np.bincount(violating_per_scenario)
        assert np.array_equal(joint.violating_node_counts, expected)
        assert joint.scenarios_with_violation == int((violating_per_scenario > 0).sum())
        assert joint.any_exceedance_rate == joint.scenarios_with_violation / load_sweep.shape[0]
        assert joint.max_violating_nodes == int(violating_per_scenario.max())
        assert joint.num_scenarios == load_sweep.shape[0]

    def test_joint_exceedance_exceeds_per_node_lower_bound(
        self, ibmpg1_grid, load_sweep, dense_drops
    ):
        """The joint count dominates the per-node lower bound it replaces."""
        threshold = float(np.quantile(dense_drops, 0.8))
        per_node = ExceedanceCountSink(threshold)
        joint = JointExceedanceSink(threshold)
        run_sinks(ibmpg1_grid, load_sweep, 8, [per_node, joint])
        assert (
            joint.result().scenarios_with_violation
            >= per_node.result().any_exceedance_scenarios
        )

    def test_unsharded_batch_feeds_sinks_once(self, ibmpg1_grid, load_sweep, dense_drops):
        threshold = float(np.quantile(dense_drops, 0.5))
        sink = ExceedanceCountSink(threshold)
        batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep, sinks=[sink])
        assert batch.sinks == (sink,)
        assert sink.num_consumed == load_sweep.shape[0]
        assert np.array_equal(
            batch.sink_results()[0].counts, (dense_drops > threshold).sum(axis=1)
        )


class TestQuantileSinks:
    @pytest.fixture(scope="class")
    def big_sweep(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.25, kind=PerturbationKind.CURRENT_WORKLOADS, seed=13)
        return perturbed_load_matrix(ibmpg1_grid, spec, 400)

    @pytest.fixture(scope="class")
    def worst_distribution(self, ibmpg1_grid, big_sweep):
        batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, big_sweep, chunk_size=64)
        return batch.worst_ir_drop

    def test_p2_quantiles_within_tolerance(self, ibmpg1_grid, big_sweep, worst_distribution):
        levels = (0.5, 0.9)
        sink = P2QuantileSink(levels)
        run_sinks(ibmpg1_grid, big_sweep, 50, [sink])
        estimate = sink.result()
        assert not estimate.exact
        spread = worst_distribution.max() - worst_distribution.min()
        for level, value in zip(levels, estimate.values):
            assert abs(value - np.quantile(worst_distribution, level)) <= 0.1 * spread

    def test_p2_chunking_invariant(self, ibmpg1_grid, big_sweep):
        """The vectorised P² buffers to fixed internal blocks, so the
        estimate depends only on the scenario order — not on how the
        engine chunked the sweep."""
        results = []
        for chunk_size in (13, 50, 256, None):
            sink = P2QuantileSink((0.5, 0.9))
            BatchedAnalysisEngine().analyze_batch(
                ibmpg1_grid, big_sweep, chunk_size=chunk_size, sinks=[sink],
                executor="threads",
            )
            results.append(sink.result().values)
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    def test_p2_exact_for_tiny_streams(self, ibmpg1_grid, load_sweep):
        sink = P2QuantileSink([0.5], statistic="mean")
        BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep[:4], sinks=[sink])
        estimate = sink.result()
        batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep[:4])
        assert estimate.exact
        assert estimate.values[0] == np.quantile(batch.average_ir_drop, 0.5)

    def test_mean_statistic_tracks_average(self, ibmpg1_grid, big_sweep):
        sink = QuantileSketchSink((0.5,), statistic="mean")
        batch = BatchedAnalysisEngine().analyze_batch(
            ibmpg1_grid, big_sweep, chunk_size=128, sinks=[sink]
        )
        reference = np.quantile(batch.average_ir_drop, 0.5, method="lower")
        assert abs(sink.result().values[0] - reference) <= 0.01 * reference

    def test_invalid_quantile_specs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            P2QuantileSink([])
        with pytest.raises(ValueError, match="ascending"):
            P2QuantileSink([0.9, 0.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            QuantileSketchSink([1.5])
        with pytest.raises(ValueError, match="statistic"):
            P2QuantileSink([0.5], statistic="median")


class TestSinkProtocol:
    def test_sinks_cannot_be_reused_across_sweeps(self, ibmpg1_grid, load_sweep):
        sink = ExceedanceCountSink(0.1)
        engine = BatchedAnalysisEngine()
        engine.analyze_batch(ibmpg1_grid, load_sweep, sinks=[sink])
        with pytest.raises(ValueError, match="fresh sink"):
            engine.analyze_batch(ibmpg1_grid, load_sweep, sinks=[sink])

    def test_out_of_order_chunks_rejected(self, ibmpg1_grid, load_sweep):
        sink = ExceedanceCountSink(0.1)
        sink.bind(ibmpg1_grid.compile(), 10)
        chunk = np.zeros((ibmpg1_grid.compile().num_nodes, 2))
        sink.consume(chunk, 0)
        with pytest.raises(ValueError, match="scenario order"):
            sink.consume(chunk, 5)
        with pytest.raises(ValueError, match="overruns"):
            sink.consume(np.zeros((chunk.shape[0], 100)), 2)

    def test_unbound_and_misshapen_consumption_rejected(self, ibmpg1_grid):
        sink = TopKScenarioSink(3)
        with pytest.raises(ValueError, match="not bound"):
            sink.consume(np.zeros((4, 1)), 0)
        sink.bind(ibmpg1_grid.compile(), 5)
        with pytest.raises(ValueError, match="voltage chunk"):
            sink.consume(np.zeros((3, 2)), 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            NodeHistogramSink([0.0, 0.1, 0.1])
        with pytest.raises(ValueError, match="finite"):
            NodeHistogramSink([0.0, np.nan, 0.1])
        with pytest.raises(ValueError, match="finite"):
            NodeHistogramSink([0.0, 0.1, np.inf])
        with pytest.raises(ValueError, match="num_bins"):
            NodeHistogramSink.uniform(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="threshold"):
            ExceedanceCountSink(-0.1)
        with pytest.raises(ValueError, match="k must be"):
            TopKScenarioSink(0)

    @pytest.mark.parametrize(
        "sink_factory",
        [
            lambda: NodeHistogramSink([0.0, 1.0]),
            lambda: ExceedanceCountSink(0.1),
            lambda: TopKScenarioSink(3),
            lambda: P2QuantileSink([0.5]),
            lambda: QuantileSketchSink([0.5]),
        ],
        ids=["histogram", "exceedance", "topk", "p2", "sketch"],
    )
    def test_every_sink_rejects_unbound_result(self, sink_factory):
        """A sink never handed to the engine must not fake an empty result."""
        with pytest.raises(ValueError, match="never bound"):
            sink_factory().result()

    def test_zero_scenario_exceedance_rates_are_nan(self):
        """An undefined probability must not read as 'never exceeds'."""
        empty = ExceedanceCounts(threshold=0.1, counts=np.zeros(4, dtype=np.int64), num_scenarios=0)
        assert np.all(np.isnan(empty.rates))
        observed = ExceedanceCounts(
            threshold=0.1, counts=np.array([1, 0], dtype=np.int64), num_scenarios=4
        )
        assert np.array_equal(observed.rates, np.array([0.25, 0.0]))


HISTOGRAM_EDGES = {
    "linspace": (np.linspace(0.0, 0.1, 33), True),
    "negative-lo": (np.linspace(-0.37, 1.9, 12), True),
    "single-bin": (np.linspace(-1.0, 2.0, 2), True),
    "nearly-uniform": (
        np.linspace(0.0, 1.0, 11)
        + np.array([0.0, 0.02, -0.03, 0.04, 0.0, -0.049, 0.01, 0.0, 0.03, -0.02, 0.0]),
        True,
    ),
    "geomspace": (np.geomspace(1e-4, 1.0, 20), False),
    # Edges up to 1.6 bins off uniform, where an arithmetic estimate can be
    # two slots off.
    "skewed": (np.array([0.0, 0.1, 0.31, 0.32, 0.33, 0.34, 0.6, 0.7, 0.8, 0.9, 1.0]), False),
    # 8 ulps per bin: every edge is rounded, and far-out drops overflow
    # the arithmetic estimate to inf.
    "narrow": (np.linspace(0.7, 0.7 + 64 * np.spacing(0.7), 9), True),
    "wide": (np.linspace(-1e300, 1e300, 9), True),
}
"""Edge sets and whether they take the arithmetic (uniform) binning path."""


def adversarial_drops(edges: np.ndarray, num_nodes: int = 5) -> np.ndarray:
    """``(k, num_nodes)`` drops on, one ulp below and one ulp above every
    edge, plus ``±inf``, far out-of-range and in-range values, shuffled
    differently per node."""
    span = edges[-1] - edges[0]
    values = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [np.inf, -np.inf, 1e300, -1e300, edges[0] - 10 * span, edges[-1] + 10 * span],
            [0.0, -0.0],
            np.random.default_rng(3).uniform(edges[0] - span, edges[-1] + span, 50),
        ]
    )
    rng = np.random.default_rng(4)
    return np.stack([rng.permutation(values) for _ in range(num_nodes)], axis=1)


def fold_histogram(sink, drops: np.ndarray, entry: str, chunk: int = 7):
    """Feed ``drops`` chunk by chunk through ``consume`` or ``consume_drop_rows``.

    The sink is bound with ``vdd = 0``, so ``consume`` of the voltages
    ``-drops`` recovers every drop exactly (negation is exact)."""
    sink.bind(SimpleNamespace(vdd=0.0, num_nodes=drops.shape[1]), drops.shape[0])
    for begin in range(0, drops.shape[0], chunk):
        block = drops[begin : begin + chunk]
        if entry == "consume":
            sink.consume(-block.T, begin)
        else:
            sink.consume_drop_rows(block, begin)
    return sink.result()


class TestHistogramBinning:
    """Adversarial binning: both paths equal per-node ``numpy.histogram``."""

    @pytest.mark.parametrize("entry", ["consume", "consume_drop_rows"])
    @pytest.mark.parametrize("edge_set", sorted(HISTOGRAM_EDGES))
    def test_matches_numpy_histogram(self, edge_set, entry):
        edges, uniform = HISTOGRAM_EDGES[edge_set]
        drops = adversarial_drops(edges)
        sink = NodeHistogramSink(edges)
        assert (sink._scale is not None) == uniform
        histogram = fold_histogram(sink, drops, entry)
        expected = np.stack(
            [np.histogram(drops[:, node], bins=edges)[0] for node in range(drops.shape[1])]
        )
        assert np.array_equal(histogram.counts, expected)
        assert np.array_equal(histogram.underflow, (drops < edges[0]).sum(axis=0))
        assert np.array_equal(histogram.overflow, (drops > edges[-1]).sum(axis=0))
        assert np.array_equal(histogram.total, np.full(drops.shape[1], drops.shape[0]))
        # The arithmetic path counts exactly what searchsorted counts, and
        # chunks wider than the sink's scratch rows count the same.
        reference = NodeHistogramSink(edges)
        reference._scale = None
        searched = fold_histogram(reference, drops, entry)
        wide = fold_histogram(NodeHistogramSink(edges), drops, entry, chunk=2 * _SCRATCH_ROWS + 3)
        for other in (searched, wide):
            assert np.array_equal(histogram.counts, other.counts)
            assert np.array_equal(histogram.underflow, other.underflow)
            assert np.array_equal(histogram.overflow, other.overflow)

    @pytest.mark.parametrize("entry", ["consume", "consume_drop_rows"])
    def test_nan_drop_names_scenario_and_node(self, entry):
        drops = np.full((6, 7), 0.05)
        drops[4, 5] = np.nan
        sink = NodeHistogramSink.uniform(0.0, 0.1, 8)
        with pytest.raises(ValueError, match=r"NodeHistogramSink.*scenario 4, node 5"):
            fold_histogram(sink, drops, entry, chunk=3)
        # The chunk before the NaN was counted, the rejected one was not.
        assert sink.num_consumed == 3
        assert sink.result().total.tolist() == [3] * 7


class TestSnapshotMerge:
    """Direct unit tests of the MergeableSink snapshot/merge protocol."""

    NODES = 6
    SCENARIOS = 90

    @pytest.fixture(scope="class")
    def synthetic(self):
        from types import SimpleNamespace

        rng = np.random.default_rng(7)
        drops = rng.normal(0.05, 0.015, size=(self.SCENARIOS, self.NODES))
        compiled = SimpleNamespace(vdd=1.8, num_nodes=self.NODES)
        return compiled, drops

    def build(self):
        return {
            "histogram": NodeHistogramSink.uniform(0.0, 0.1, 10),
            "exceedance": ExceedanceCountSink(0.06),
            "joint": JointExceedanceSink(0.06),
            "topk": TopKScenarioSink(5),
        }

    @pytest.mark.parametrize("boundaries", [(90,), (45, 45), (30, 37, 23), (1, 88, 1)])
    def test_merged_shards_equal_one_fold(self, synthetic, boundaries):
        compiled, drops = synthetic
        sequential = self.build()
        for sink in sequential.values():
            sink.bind(compiled, self.SCENARIOS)
            sink.consume_drop_rows(drops, 0)
        merged = self.build()
        for sink in merged.values():
            sink.bind(compiled, self.SCENARIOS)
        begin = 0
        for width in boundaries:
            shard = self.build()
            for key, sink in shard.items():
                sink.bind(compiled, width)
                sink.consume_drop_rows(drops[begin : begin + width], 0)
                merged[key].merge(sink.snapshot())
            begin += width
        for key in sequential:
            assert merged[key].num_consumed == self.SCENARIOS
        assert np.array_equal(
            sequential["histogram"].result().counts, merged["histogram"].result().counts
        )
        assert np.array_equal(
            sequential["exceedance"].result().counts, merged["exceedance"].result().counts
        )
        assert np.array_equal(
            sequential["joint"].result().violating_node_counts,
            merged["joint"].result().violating_node_counts,
        )
        seq_topk, merged_topk = sequential["topk"].result(), merged["topk"].result()
        assert np.array_equal(seq_topk.scenario_index, merged_topk.scenario_index)
        assert np.array_equal(seq_topk.worst_ir_drop, merged_topk.worst_ir_drop)
        assert np.array_equal(seq_topk.worst_node_index, merged_topk.worst_node_index)

    def test_mixed_consume_then_merge(self, synthetic):
        """A sink may consume its own chunks and then merge a tail shard."""
        compiled, drops = synthetic
        sink = ExceedanceCountSink(0.06)
        sink.bind(compiled, self.SCENARIOS)
        sink.consume_drop_rows(drops[:40], 0)
        tail = ExceedanceCountSink(0.06)
        tail.bind(compiled, self.SCENARIOS - 40)
        tail.consume_drop_rows(drops[40:], 0)
        sink.merge(tail.snapshot())
        assert np.array_equal(sink.result().counts, (drops > 0.06).sum(axis=0))

    def test_type_mismatch_rejected(self, synthetic):
        compiled, drops = synthetic
        histogram = NodeHistogramSink.uniform(0.0, 0.1, 4)
        histogram.bind(compiled, self.SCENARIOS)
        exceedance = ExceedanceCountSink(0.06)
        exceedance.bind(compiled, self.SCENARIOS)
        exceedance.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="cannot merge a ExceedanceCountSink"):
            histogram.merge(exceedance.snapshot())

    def test_configuration_mismatch_rejected(self, synthetic):
        compiled, drops = synthetic
        coarse = NodeHistogramSink.uniform(0.0, 0.1, 4)
        fine = NodeHistogramSink.uniform(0.0, 0.1, 8)
        for sink in (coarse, fine):
            sink.bind(compiled, self.SCENARIOS)
        fine.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="bin edges"):
            coarse.merge(fine.snapshot())
        small_k = TopKScenarioSink(2)
        large_k = TopKScenarioSink(3)
        for sink in (small_k, large_k):
            sink.bind(compiled, self.SCENARIOS)
        large_k.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="different k"):
            small_k.merge(large_k.snapshot())

    def test_overrun_merge_rejected(self, synthetic):
        compiled, drops = synthetic
        sink = ExceedanceCountSink(0.06)
        sink.bind(compiled, 10)
        shard = ExceedanceCountSink(0.06)
        shard.bind(compiled, self.SCENARIOS)
        shard.consume_drop_rows(drops[:20], 0)
        with pytest.raises(ValueError, match="overruns"):
            sink.merge(shard.snapshot())

    def test_unbound_snapshot_and_merge_rejected(self, synthetic):
        compiled, drops = synthetic
        with pytest.raises(ValueError, match="never bound"):
            ExceedanceCountSink(0.06).snapshot()
        bound = ExceedanceCountSink(0.06)
        bound.bind(compiled, 10)
        bound.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="never bound"):
            ExceedanceCountSink(0.06).merge(bound.snapshot())

    def test_snapshot_is_frozen_copy(self, synthetic):
        """Mutating the source sink after snapshot() must not leak."""
        compiled, drops = synthetic
        sink = ExceedanceCountSink(0.06)
        sink.bind(compiled, self.SCENARIOS)
        sink.consume_drop_rows(drops[:30], 0)
        snapshot = sink.snapshot()
        frozen = snapshot.state["counts"].copy()
        sink.consume_drop_rows(drops[30:60], 30)
        assert np.array_equal(snapshot.state["counts"], frozen)


class VoltageRecorder:
    """A plain protocol sink, not an :class:`IRDropSink`: it keeps every raw voltage column.

    Mergeable and picklable, so it also runs on process shards.
    """

    def bind(self, compiled, num_scenarios):
        self.voltages = np.full((compiled.num_nodes, num_scenarios), np.nan)
        self.merged = 0

    def consume(self, chunk_voltages, scenario_offset):
        width = chunk_voltages.shape[1]
        self.voltages[:, scenario_offset : scenario_offset + width] = chunk_voltages

    def result(self):
        return self.voltages

    def snapshot(self):
        return SinkSnapshot("VoltageRecorder", self.voltages.shape[1], {"v": self.voltages.copy()})

    def merge(self, snapshot):
        width = snapshot.num_scenarios
        self.voltages[:, self.merged : self.merged + width] = snapshot.state["v"]
        self.merged += width


def exact_sinks(threshold: float, edges: np.ndarray) -> tuple:
    return (
        NodeHistogramSink(edges),
        ExceedanceCountSink(threshold),
        JointExceedanceSink(threshold),
        TopKScenarioSink(5),
    )


def exact_sink_arrays(sinks) -> dict:
    histogram, exceedance, joint, topk = (sink.result() for sink in sinks)
    return {
        "histogram.counts": histogram.counts,
        "histogram.underflow": histogram.underflow,
        "histogram.overflow": histogram.overflow,
        "exceedance.counts": exceedance.counts,
        "joint.counts": joint.violating_node_counts,
        "topk.index": topk.scenario_index,
        "topk.worst": topk.worst_ir_drop,
        "topk.node": topk.worst_node_index,
    }


class TestMegaSweep:
    @pytest.fixture(scope="class")
    def sweep_matrices(self, ibmpg1_grid, ibmpg1_bench):
        return mega_sweep_matrices(ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 6, 4, seed=3)

    @pytest.fixture(scope="class")
    def materialised(self, sweep_matrices):
        """The cross product's rows materialised explicitly (loads outer)."""
        load_matrix, pad_matrix = sweep_matrices
        return (
            np.tile(pad_matrix, (load_matrix.shape[0], 1)),
            np.repeat(load_matrix, pad_matrix.shape[0], axis=0),
        )

    @pytest.fixture(scope="class")
    def dense_cross(self, ibmpg1_grid, materialised):
        pads, loads = materialised
        return BatchedAnalysisEngine().analyze_pad_batch(ibmpg1_grid, pads, load_matrix=loads)

    @pytest.fixture(scope="class")
    def sink_setup(self, dense_cross):
        """A threshold and edges that put scenarios on both sides of every test."""
        drops = dense_cross.ir_drop
        return float(np.quantile(drops, 0.8)), np.linspace(drops.min(), drops.max(), 9)[1:-1]

    @pytest.fixture(scope="class")
    def dense_sinks(self, ibmpg1_grid, materialised, sink_setup):
        pads, loads = materialised
        sinks = exact_sinks(*sink_setup)
        BatchedAnalysisEngine().analyze_pad_batch(
            ibmpg1_grid, pads, load_matrix=loads, sinks=sinks
        )
        return exact_sink_arrays(sinks)

    @pytest.mark.parametrize("chunk_size", [1, 5, 24, 100])
    def test_mega_sweep_matches_materialised_cross_product(
        self, ibmpg1_grid, sweep_matrices, dense_cross, sink_setup, dense_sinks, chunk_size
    ):
        load_matrix, pad_matrix = sweep_matrices
        sinks = exact_sinks(*sink_setup)
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=chunk_size, sinks=sinks
        )
        assert result.num_scenarios == 24
        assert np.array_equal(result.worst_ir_drop, dense_cross.worst_ir_drop)
        assert np.array_equal(result.average_ir_drop, dense_cross.average_ir_drop)
        assert np.array_equal(result.worst_node_index, dense_cross.worst_node_index)
        swept = exact_sink_arrays(sinks)
        for name, expected in dense_sinks.items():
            assert np.array_equal(swept[name], expected), name
        assert dense_sinks["histogram.underflow"].sum() > 0
        assert dense_sinks["histogram.overflow"].sum() > 0
        assert 0 < dense_sinks["exceedance.counts"].sum() < dense_cross.ir_drop.size

    @pytest.mark.parametrize("chunk_size", [1, 5, None])
    @pytest.mark.parametrize(
        "executor",
        [
            pytest.param(lambda: HybridExecutor(1, 1), id="1x1"),
            pytest.param(lambda: HybridExecutor(1, 2), id="1x2"),
            pytest.param(lambda: HybridExecutor(2, 1), id="2x1"),
        ],
    )
    def test_raw_voltage_sink_matches_materialised_cross_product(
        self, ibmpg1_grid, sweep_matrices, dense_cross, chunk_size, executor
    ):
        """A sink outside IRDropSink gets the voltages themselves, at every width and shape."""
        load_matrix, pad_matrix = sweep_matrices
        recorder = VoltageRecorder()
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=chunk_size,
            sinks=[recorder],
            executor=executor(),
        )
        assert result.chunk_size == (84 if chunk_size is None else chunk_size)
        assert np.array_equal(recorder.result(), dense_cross.voltages)

    def test_mega_sweep_shares_one_factorization(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        engine = BatchedAnalysisEngine()
        result = engine.analyze_mega_sweep(ibmpg1_grid, load_matrix, pad_matrix, chunk_size=5)
        assert engine.cache_info().factorizations == 1
        assert result.scenarios_per_second > 0
        assert result.worst_node(0) in ibmpg1_grid.compile().node_names

    def test_scenario_pair_round_trip(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=10
        )
        pairs = [result.scenario_pair(s) for s in range(result.num_scenarios)]
        assert pairs[0] == (0, 0)
        assert pairs[-1] == (load_matrix.shape[0] - 1, pad_matrix.shape[0] - 1)
        assert len(set(pairs)) == result.num_scenarios
        with pytest.raises(IndexError):
            result.scenario_pair(result.num_scenarios)

    def test_mega_sweep_with_sinks_matches_dense(
        self, ibmpg1_grid, sweep_matrices, dense_cross
    ):
        load_matrix, pad_matrix = sweep_matrices
        drops = dense_cross.ir_drop
        threshold = float(np.quantile(drops, 0.8))
        sink = ExceedanceCountSink(threshold)
        BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=7, sinks=[sink]
        )
        assert np.array_equal(sink.result().counts, (drops > threshold).sum(axis=1))

    def test_input_validation(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="load_matrix"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix[:, :-1], pad_matrix)
        with pytest.raises(ValueError, match="pad_voltage_matrix"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix, pad_matrix[:, :-1])
        with pytest.raises(ValueError, match="at least one scenario row"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix[:0], pad_matrix)
        with pytest.raises(ValueError, match="chunk_size"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix, pad_matrix, chunk_size=0)


class PoisonAfterUse(IRDropSink):
    """Overwrites the engine's drop-row block with NaN once the sinks before it folded it."""

    def consume_drop_rows(self, drop_rows, scenario_offset):
        drop_rows[...] = np.nan

    def result(self):
        return None


class BlockRecorder(IRDropSink):
    """Keeps every drop-row block the engine hands it, as handed (no copy)."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def consume_drop_rows(self, drop_rows, scenario_offset):
        self.blocks.append(drop_rows)

    def result(self):
        return self.blocks


ALL_SINKS = {
    "p2": lambda threshold, edges: P2QuantileSink((0.5, 0.9, 0.99)),
    "sketch": lambda threshold, edges: QuantileSketchSink((0.5, 0.9, 0.99)),
    "histogram": lambda threshold, edges: NodeHistogramSink(edges),
    "exceedance": lambda threshold, edges: ExceedanceCountSink(threshold),
    "joint": lambda threshold, edges: JointExceedanceSink(threshold),
    "topk": lambda threshold, edges: TopKScenarioSink(5),
}
"""The six sinks of ``repro.analysis``, each built from a threshold and bin edges."""


def result_fields(sink) -> dict:
    result = sink.result()
    return {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}


class TestDropRowLifetime:
    """The drop-row block a sink is handed is the engine's buffer, valid only during the call."""

    @pytest.fixture(scope="class")
    def sweep_matrices(self, ibmpg1_grid, ibmpg1_bench):
        return mega_sweep_matrices(ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 6, 4, seed=3)

    @pytest.fixture(scope="class")
    def sink_setup(self, ibmpg1_grid):
        threshold = BatchedAnalysisEngine().analyze(ibmpg1_grid).worst_ir_drop
        return threshold, np.linspace(0.0, 1.2 * threshold, 9)

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    @pytest.mark.parametrize("sink_name", sorted(ALL_SINKS))
    def test_sinks_keep_nothing_of_the_block(
        self, ibmpg1_grid, sweep_matrices, sink_setup, sink_name, executor
    ):
        """NaN written over the block after every fold changes no sink result."""
        load_matrix, pad_matrix = sweep_matrices
        results = []
        for extra in ((), (PoisonAfterUse(),)):
            sink = ALL_SINKS[sink_name](*sink_setup)
            BatchedAnalysisEngine().analyze_mega_sweep(
                ibmpg1_grid, load_matrix, pad_matrix, chunk_size=5, sinks=[sink, *extra],
                executor=executor if executor == "serial" else make_executor(executor, 2),
            )
            results.append(result_fields(sink))
        untouched, poisoned = results
        for name, expected in untouched.items():
            assert np.array_equal(poisoned[name], expected), name

    def test_serial_sweep_reuses_one_block(self, ibmpg1_grid, sweep_matrices):
        """Every chunk of a serial sweep is written into the same drop-row buffer."""
        load_matrix, pad_matrix = sweep_matrices
        recorder = BlockRecorder()
        BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=5, sinks=[recorder],
            executor="serial",
        )
        blocks = recorder.result()
        assert [block.shape[0] for block in blocks] == [5, 5, 5, 5, 4]
        assert all(np.shares_memory(blocks[0], block) for block in blocks[1:])

    def test_scratch_stays_out_of_pickles_and_snapshots(
        self, ibmpg1_grid, sweep_matrices, sink_setup
    ):
        """Scratch is bounded by a fixed row block and never pickled or snapshotted."""
        load_matrix, pad_matrix = sweep_matrices
        sinks = [ALL_SINKS[name](*sink_setup) for name in ("histogram", "exceedance", "joint")]
        BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=24, sinks=sinks
        )
        num_nodes = ibmpg1_grid.compile().num_nodes
        for sink in sinks:
            assert sink._scratch_arrays
            for array in sink._scratch_arrays.values():
                assert array.shape == (_SCRATCH_ROWS, num_nodes)
            clone = pickle.loads(pickle.dumps(sink))
            assert clone._scratch_arrays == {}
            assert copy.deepcopy(sink)._scratch_arrays == {}
            for name, value in result_fields(sink).items():
                assert np.array_equal(result_fields(clone)[name], value), name
            for value in sink.snapshot().state.values():
                if isinstance(value, np.ndarray):
                    scratch = sink._scratch_arrays.values()
                    assert not any(np.shares_memory(value, array) for array in scratch)


class TestScenarioStream:
    def test_stream_matches_batch(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        reference = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8)
        stream = engine.analyze_scenario_stream(
            ibmpg1_grid,
            lambda begin, end: (load_sweep[begin:end], None),
            load_sweep.shape[0],
            chunk_size=8,
        )
        assert np.array_equal(stream.worst_ir_drop, reference.worst_ir_drop)
        assert np.array_equal(stream.average_ir_drop, reference.average_ir_drop)
        assert stream.factorization_reused  # second sweep on the same engine

    def test_stream_validates_source(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="neither loads nor pad voltages"):
            engine.analyze_scenario_stream(
                ibmpg1_grid, lambda begin, end: (None, None), 4, chunk_size=2
            )
        compiled = ibmpg1_grid.compile()
        with pytest.raises(ValueError, match="rows for"):
            engine.analyze_scenario_stream(
                ibmpg1_grid,
                lambda begin, end: (np.zeros((1, compiled.num_nodes)), None),
                4,
                chunk_size=2,
            )
        with pytest.raises(ValueError, match="num_scenarios"):
            engine.analyze_scenario_stream(
                ibmpg1_grid, lambda begin, end: (None, None), 0, chunk_size=2
            )


class TestStatisticalVectorless:
    @pytest.fixture(scope="class")
    def budget(self, ibmpg1_grid):
        return uniform_budget(ibmpg1_grid, headroom=1.4, utilisation=0.9)

    def test_observed_below_deterministic_bound(self, ibmpg1_grid, budget):
        analyzer = VectorlessAnalyzer(BatchedAnalysisEngine())
        result = analyzer.analyze_statistical(
            ibmpg1_grid, budget, 60, chunk_size=16, sinks=[P2QuantileSink([0.9])]
        )
        assert result.num_scenarios == 60
        assert result.worst_observed <= result.worst_case_bound + 1e-12
        assert 0 < result.bound_tightness <= 1.0
        assert result.sweep.sinks[0].result().num_scenarios == 60

    def test_sampling_is_chunking_invariant(self, ibmpg1_grid, budget):
        analyzer = VectorlessAnalyzer(BatchedAnalysisEngine())
        small = analyzer.analyze_statistical(ibmpg1_grid, budget, 30, chunk_size=7)
        large = analyzer.analyze_statistical(ibmpg1_grid, budget, 30, chunk_size=1000)
        assert np.array_equal(small.sweep.worst_ir_drop, large.sweep.worst_ir_drop)
        assert np.array_equal(small.sweep.average_ir_drop, large.sweep.average_ir_drop)

    def test_pad_batch_with_sinks(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.1, kind=PerturbationKind.NODE_VOLTAGES, seed=9)
        pad_matrix = perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 6)
        engine = BatchedAnalysisEngine()
        dense = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix)
        threshold = float(np.quantile(dense.ir_drop, 0.7))
        sink = ExceedanceCountSink(threshold)
        engine.analyze_pad_batch(ibmpg1_grid, pad_matrix, chunk_size=2, sinks=[sink])
        assert np.array_equal(sink.result().counts, (dense.ir_drop > threshold).sum(axis=1))
