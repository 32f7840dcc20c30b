"""Property-style determinism suite for the quantile sketch sink.

The sketch's contract is stronger than a statistical one: because its state
is a pure integer bucket-counter array, the merged result must be
**identical** — not statistically equivalent — to the sequential sweep
for every shard count (1 / even / 3 / non-divisor), every chunk size
(including 1 and non-divisors) and every association of the merges, and
every reported quantile must sit within the documented relative error of
the dense reference quantile.
"""

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    MergeableSink,
    QuantileSketchSink,
    make_executor,
)
from repro.grid import (
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    perturbed_load_matrix,
)

QUANTILES = (0.1, 0.5, 0.9, 0.99)
SHARD_COUNTS = [1, 2, 3, 5]
"""Single shard, even split, and two non-divisors of the 37-scenario sweep."""
CHUNK_SIZES = [1, 7, 37, 100]


class _ScalarGrid:
    """Minimal stand-in for a compiled grid in scalar-level sink tests."""

    vdd = 1.0
    num_nodes = 1


def scalar_stream(n=500, seed=7):
    """A positive scalar stream spanning several orders of magnitude."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-4, 0, size=n)


def fold_scalars(sink, values, chunk_size):
    sink.bind(_ScalarGrid(), len(values))
    for offset in range(0, len(values), chunk_size):
        chunk = values[offset : offset + chunk_size]
        sink.consume_drop_rows(chunk.reshape(-1, 1), offset)
    return sink


def sharded_sketch(values, bounds, chunk_size=16):
    """Merge per-shard sketches (ascending) into one full-sweep sketch."""
    merged = QuantileSketchSink(QUANTILES)
    merged.bind(_ScalarGrid(), len(values))
    for begin, end in zip(bounds[:-1], bounds[1:]):
        shard = fold_scalars(QuantileSketchSink(QUANTILES), values[begin:end], chunk_size)
        merged.merge(shard.snapshot())
    return merged


class TestSketchDeterminism:
    @pytest.fixture(scope="class")
    def values(self):
        return scalar_stream()

    @pytest.fixture(scope="class")
    def sequential(self, values):
        return fold_scalars(QuantileSketchSink(QUANTILES), values, 64).result()

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_chunking_invariant(self, values, sequential, chunk_size):
        chunked = fold_scalars(QuantileSketchSink(QUANTILES), values, chunk_size).result()
        assert np.array_equal(chunked.values, sequential.values)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_shard_count_invariant(self, values, sequential, shards):
        n = len(values)
        bounds = [n * i // shards for i in range(shards + 1)]
        merged = sharded_sketch(values, bounds).result()
        assert np.array_equal(merged.values, sequential.values)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_shard_chunk_cross_product(self, values, sequential, shards):
        """Shard-internal chunking must not leak into the merged result."""
        n = len(values)
        bounds = [n * i // shards for i in range(shards + 1)]
        for chunk_size in (1, 13):
            merged = sharded_sketch(values, bounds, chunk_size=chunk_size).result()
            assert np.array_equal(merged.values, sequential.values)

    def test_merge_associativity(self, values, sequential):
        """((a+b)+c) and (a+(b+c)) produce the identical sketch."""
        n = len(values)
        thirds = [0, n // 3, 2 * n // 3, n]
        shards = [
            fold_scalars(QuantileSketchSink(QUANTILES), values[b:e], 16)
            for b, e in zip(thirds[:-1], thirds[1:])
        ]
        left = QuantileSketchSink(QUANTILES)
        left.bind(_ScalarGrid(), n)
        for shard in shards:
            left.merge(shard.snapshot())
        # Right association: pre-merge b+c into a fresh sink bound to their
        # combined span, then fold that snapshot after a.
        bc = QuantileSketchSink(QUANTILES)
        bc.bind(_ScalarGrid(), n - thirds[1])
        bc.merge(shards[1].snapshot())
        bc.merge(shards[2].snapshot())
        right = QuantileSketchSink(QUANTILES)
        right.bind(_ScalarGrid(), n)
        right.merge(shards[0].snapshot())
        right.merge(bc.snapshot())
        assert np.array_equal(left.result().values, right.result().values)
        assert np.array_equal(left.result().values, sequential.values)

    def test_error_bound_against_dense_reference(self, values, sequential):
        """Every estimate within relative_error of the dense rank quantile."""
        reference = np.quantile(values, QUANTILES, method="lower")
        relative = np.abs(sequential.values - reference) / reference
        assert (relative <= 0.01).all()

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001])
    def test_error_bound_scales_with_alpha(self, values, alpha):
        sink = fold_scalars(
            QuantileSketchSink(QUANTILES, relative_error=alpha), values, 64
        )
        reference = np.quantile(values, QUANTILES, method="lower")
        relative = np.abs(sink.result().values - reference) / reference
        assert (relative <= alpha).all()

    def test_low_bucket_pools_tiny_values(self):
        values = np.array([1e-12, 0.5, 0.5, 0.5])
        sink = fold_scalars(QuantileSketchSink((0.1, 0.99)), values, 2)
        result = sink.result()
        # rank floor(0.1 * 3) = 0 lands on the pooled sub-min_value value;
        # rank floor(0.99 * 3) = 2 lands on 0.5.
        assert result.value(0.1) == 0.0
        assert abs(result.value(0.99) - 0.5) / 0.5 <= 0.01


class TestSketchValidation:
    def test_is_mergeable(self):
        assert isinstance(QuantileSketchSink([0.5]), MergeableSink)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"relative_error": 0.0},
            {"relative_error": 1.0},
            {"min_value": 0.0},
            {"max_buckets": 0},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ValueError):
            QuantileSketchSink([0.5], **kwargs)

    def test_rejects_non_finite_scalars(self):
        sink = QuantileSketchSink([0.5])
        sink.bind(_ScalarGrid(), 2)
        with pytest.raises(ValueError, match="finite"):
            sink.consume_drop_rows(np.array([[1.0], [np.nan]]), 0)

    def test_rejects_span_overflow(self):
        sink = QuantileSketchSink([0.5], max_buckets=4)
        sink.bind(_ScalarGrid(), 2)
        with pytest.raises(ValueError, match="max_buckets"):
            sink.consume_drop_rows(np.array([[1e-6], [1.0]]), 0)

    def test_rejects_mismatched_merge(self):
        a = QuantileSketchSink([0.5], relative_error=0.01)
        b = QuantileSketchSink([0.5], relative_error=0.02)
        a.bind(_ScalarGrid(), 2)
        b.bind(_ScalarGrid(), 1)
        b.consume_drop_rows(np.array([[0.5]]), 0)
        with pytest.raises(ValueError, match="relative_error"):
            a.merge(b.snapshot())

    def test_empty_sketch_reports_nan(self):
        sink = QuantileSketchSink([0.5])
        sink.bind(_ScalarGrid(), 4)
        assert np.isnan(sink.result().values).all()


class TestSketchOnRealSweeps:
    """The sink riding a real engine sweep, serial vs process-sharded."""

    @pytest.fixture(scope="class")
    def grid(self):
        return SyntheticIBMSuite().load("ibmpg1").build_uniform_grid(5.0)

    @pytest.fixture(scope="class")
    def load_sweep(self, grid):
        spec = PerturbationSpec(gamma=0.25, kind=PerturbationKind.CURRENT_WORKLOADS, seed=5)
        return perturbed_load_matrix(grid, spec, 37)

    @pytest.fixture(scope="class")
    def sequential_values(self, grid, load_sweep):
        sink = QuantileSketchSink(QUANTILES)
        BatchedAnalysisEngine().analyze_batch(
            grid, load_sweep, chunk_size=7, sinks=[sink], executor="serial"
        )
        return sink.result().values

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_engine_chunking_invariant(self, grid, load_sweep, sequential_values, chunk_size):
        sink = QuantileSketchSink(QUANTILES)
        BatchedAnalysisEngine().analyze_batch(
            grid, load_sweep, chunk_size=chunk_size, sinks=[sink], executor="serial"
        )
        assert np.array_equal(sink.result().values, sequential_values)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_process_sharded_identical(self, grid, load_sweep, sequential_values, shards):
        sink = QuantileSketchSink(QUANTILES)
        BatchedAnalysisEngine().analyze_batch(
            grid,
            load_sweep,
            chunk_size=7,
            sinks=[sink],
            executor=make_executor("processes", shards),
        )
        assert np.array_equal(sink.result().values, sequential_values)

    def test_mean_statistic_process_sharded_identical(self, grid, load_sweep):
        """Tracking each scenario's mean drop merges as bitwise as its worst."""
        engine = BatchedAnalysisEngine()
        serial = QuantileSketchSink(QUANTILES, statistic="mean")
        engine.analyze_batch(grid, load_sweep, chunk_size=7, sinks=[serial], executor="serial")
        sharded = QuantileSketchSink(QUANTILES, statistic="mean")
        engine.analyze_batch(
            grid,
            load_sweep,
            chunk_size=7,
            sinks=[sharded],
            executor=make_executor("processes", 3),
        )
        assert sharded.result().statistic == "mean"
        assert np.array_equal(sharded.result().values, serial.result().values)

    def test_tracks_dense_reference(self, grid, load_sweep, sequential_values):
        dense = BatchedAnalysisEngine().analyze_batch(grid, load_sweep)
        worst = dense.ir_drop.max(axis=0)
        reference = np.quantile(worst, QUANTILES, method="lower")
        relative = np.abs(sequential_values - reference) / reference
        assert (relative <= 0.01).all()
