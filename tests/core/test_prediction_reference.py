"""Differential tests: the batched prediction path against per-line references.

``repro.core`` computes the Kirchhoff ladders (Algorithm 2), the block
current allocation (eqs. 7-9) and the per-line width aggregation
(Algorithm 1) for all grid lines at once.  ``reference_prediction`` keeps
the one-line-at-a-time loops, and predictions must be bitwise-identical to
them, so every comparison here is exact.
"""

import numpy as np
import pytest

from repro.core import KirchhoffIRDropEstimator, WidthPredictor
from repro.design import DesignRules
from repro.grid import (
    Floorplan,
    FloorplanPerturbator,
    FunctionalBlock,
    GridTopology,
    PerturbationKind,
    PerturbationSpec,
    PowerPad,
)

from . import reference_prediction as reference

LINE_POSITIONS = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_matches_reference(estimator, floorplan, topology, widths) -> None:
    prediction = estimator.predict(floorplan, topology, widths)
    line_drops, segment_drops, line_currents = reference.predict(
        estimator, floorplan, topology, widths
    )
    assert_bitwise(prediction.line_ir_drop, line_drops)
    assert_bitwise(prediction.line_currents, line_currents)
    assert len(prediction.segment_ir_drop) == len(segment_drops)
    for actual, expected in zip(prediction.segment_ir_drop, segment_drops):
        assert_bitwise(actual, expected)
    assert prediction.worst_line == int(np.argmax(line_drops))
    assert prediction.worst_ir_drop == line_drops[prediction.worst_line]


def make_floorplan(pads, blocks=None, size=1000.0) -> Floorplan:
    """A ``size``-square core with the given ``(x, y)`` pads and blocks."""
    if blocks is None:
        blocks = [FunctionalBlock("b0", x=150.0, y=150.0, width=500.0, height=400.0,
                                  switching_current=0.2)]
    return Floorplan(
        name="adversarial",
        core_width=size,
        core_height=size,
        blocks=blocks,
        pads=[PowerPad(f"p{i}", x=x, y=y, voltage=1.0) for i, (x, y) in enumerate(pads)],
    )


def make_topology(vertical=LINE_POSITIONS, horizontal=LINE_POSITIONS) -> GridTopology:
    return GridTopology(
        num_vertical=len(vertical),
        num_horizontal=len(horizontal),
        vertical_positions=tuple(vertical),
        horizontal_positions=tuple(horizontal),
    )


@pytest.fixture(scope="module")
def estimator(technology):
    return KirchhoffIRDropEstimator(technology)


class TestEstimatorMatchesReference:
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"sharing_factor": 0.6, "approach_factor": 0.0},
            {"distance_decay": 0.02, "approach_factor": 1.0},
        ],
    )
    def test_tiny_fixture(self, technology, tiny_floorplan, tiny_topology, options):
        estimator = KirchhoffIRDropEstimator(technology, **options)
        num_lines = tiny_topology.num_lines
        random_widths = np.random.default_rng(7).uniform(0.5, 12.0, num_lines)
        for widths in (np.full(num_lines, 5.0), random_widths):
            assert_matches_reference(estimator, tiny_floorplan, tiny_topology, widths)

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_specs_of_small_benchmark(self, small_benchmark, seed):
        spec = PerturbationSpec(gamma=0.1, kind=PerturbationKind.BOTH, seed=seed)
        floorplan = FloorplanPerturbator(spec).perturb(small_benchmark.floorplan)
        topology = small_benchmark.topology
        widths = np.random.default_rng(seed).uniform(1.0, 10.0, topology.num_lines)
        estimator = KirchhoffIRDropEstimator(small_benchmark.technology)
        assert_matches_reference(estimator, floorplan, topology, widths)

    def test_allocation_skips_zero_current_blocks(self, estimator):
        blocks = [
            FunctionalBlock("idle0", x=100.0, y=100.0, width=200.0, height=200.0,
                            switching_current=0.0),
            FunctionalBlock("busy", x=400.0, y=300.0, width=300.0, height=200.0,
                            switching_current=0.3),
            FunctionalBlock("idle1", x=750.0, y=700.0, width=150.0, height=150.0,
                            switching_current=0.0),
            FunctionalBlock("warm", x=100.0, y=650.0, width=250.0, height=300.0,
                            switching_current=0.07),
        ]
        floorplan = make_floorplan([(500.0, 500.0)], blocks)
        topology = make_topology()
        currents = estimator.allocate_line_currents(floorplan, topology)
        assert_bitwise(currents, reference.allocate_line_currents(estimator, floorplan, topology))

        idle = make_floorplan([(500.0, 500.0)], [blocks[0], blocks[2]])
        currents = estimator.allocate_line_currents(idle, topology)
        assert_bitwise(currents, np.zeros(topology.num_lines))
        assert_bitwise(currents, reference.allocate_line_currents(estimator, idle, topology))


class TestAdversarialLadders:
    """Corner cases of the feed assignment, each in both directions."""

    @pytest.fixture()
    def widths(self):
        return np.random.default_rng(3).uniform(1.0, 10.0, 2 * len(LINE_POSITIONS))

    def test_no_pad_within_reach_falls_back_to_nearest(self, estimator, widths):
        # Nine pads crowd one corner, so the pad pitch (core / 3) is shorter
        # than the distance from the far lines to any pad.
        pads = [(x, y) for x in (10.0, 60.0, 110.0) for y in (10.0, 60.0, 110.0)]
        floorplan = make_floorplan(pads)
        reach = floorplan.core_width / 3.0
        assert min(abs(900.0 - x) for x, _ in pads) > reach
        assert_matches_reference(estimator, floorplan, make_topology(), widths)

    def test_zero_local_currents_give_uniform_taps(self, estimator, widths):
        # The block lies between lines, so no segment midpoint sees current.
        block = FunctionalBlock("gap", x=410.0, y=410.0, width=80.0, height=80.0,
                                switching_current=0.1)
        floorplan = make_floorplan([(250.0, 250.0), (750.0, 750.0)], [block])
        assert_matches_reference(estimator, floorplan, make_topology(), widths)

    def test_two_pads_projecting_to_one_crossing(self, estimator, widths):
        # Both pads project onto the crossing at 300 along either direction,
        # at different distances from the lines; the closer one sets the
        # approach distance.
        floorplan = make_floorplan([(300.0, 320.0), (310.0, 300.0), (690.0, 705.0)])
        assert_matches_reference(estimator, floorplan, make_topology(), widths)

    @pytest.mark.parametrize(
        "pads",
        [
            # Feeds at crossings 1 and 4: their boundary, 350, is the midpoint
            # of segment 2.
            [(200.0, 200.0), (500.0, 500.0)],
            # Feeds at adjacent crossings: the boundary, 250, is the midpoint
            # of segment 1, between them.
            [(200.0, 200.0), (300.0, 300.0)],
        ],
    )
    def test_segment_midpoint_on_feed_boundary(self, estimator, widths, pads):
        assert_matches_reference(estimator, make_floorplan(pads), make_topology(), widths)

    @pytest.mark.parametrize(
        "pads",
        [
            [(500.0, 500.0)],
            [(100.0, 100.0), (900.0, 900.0)],
            [(100.0, 900.0), (900.0, 100.0), (100.0, 100.0)],
            [(0.0, 0.0), (1000.0, 1000.0)],
        ],
        ids=["single-feed", "first-and-last", "three-corners", "beyond-the-ends"],
    )
    def test_feed_placement(self, estimator, widths, pads):
        assert_matches_reference(estimator, make_floorplan(pads), make_topology(), widths)

    def test_non_uniform_pitch(self, estimator):
        vertical = (20.0, 35.0, 180.0, 190.0, 470.0, 820.0, 985.0)
        horizontal = (5.0, 400.0, 401.5, 650.0, 990.0)
        topology = make_topology(vertical, horizontal)
        widths = np.random.default_rng(11).uniform(1.0, 10.0, topology.num_lines)
        pads = [(190.0, 400.0), (650.0, 650.0), (985.0, 5.0), (35.0, 990.0)]
        assert_matches_reference(estimator, make_floorplan(pads), topology, widths)


class TestFuzzedDesigns:
    """Random grids whose pads sit on crossings, on midpoints, or anywhere."""

    @staticmethod
    def random_design(rng: np.random.Generator):
        size = 1000.0
        counts = rng.integers(2, 13, size=2)
        if rng.random() < 0.5:
            # Integer positions make feed boundaries land exactly on midpoints.
            axes = [np.sort(rng.choice(np.arange(10.0, 991.0, 10.0), n, replace=False))
                    for n in counts]
        else:
            axes = [np.sort(rng.uniform(0.0, size, n)) for n in counts]
        candidates = np.concatenate(
            [axes[0], axes[1], (axes[0][:-1] + axes[0][1:]) / 2.0, rng.uniform(0.0, size, 4)]
        )
        num_pads = int(rng.integers(1, 10))
        pads = rng.choice(candidates, size=(num_pads, 2))
        if rng.random() < 0.3:
            pads = pads * 0.2  # crowd one corner: far lines reach no pad
        blocks = []
        for index in range(int(rng.integers(0, 4))):
            x, y = rng.uniform(0.0, 0.7 * size, 2)
            width, height = rng.uniform(10.0, 0.3 * size, 2)
            current = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.01, 0.3))
            blocks.append(FunctionalBlock(f"b{index}", x=x, y=y, width=width, height=height,
                                          switching_current=current))
        floorplan = make_floorplan([tuple(pad) for pad in pads], blocks, size=size)
        topology = make_topology(axes[0], axes[1])
        widths = rng.uniform(0.5, 15.0, topology.num_lines)
        return floorplan, topology, widths

    @pytest.mark.parametrize("seed", range(8))
    def test_random_designs(self, estimator, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            assert_matches_reference(estimator, *self.random_design(rng))


class TestAggregationMatchesReference:
    @pytest.mark.parametrize("aggregation", ["median", "mean", "max"])
    @pytest.mark.parametrize("legalize", [False, True])
    def test_uneven_and_missing_lines(self, technology, aggregation, legalize):
        rng = np.random.default_rng(5)
        rules = DesignRules.from_technology(technology) if legalize else None
        predictor = WidthPredictor(rules=rules, aggregation=aggregation)
        num_lines = 30
        for _ in range(20):
            samples = int(rng.integers(1, 400))
            # Ids outside [0, num_lines) are ignored; some lines get none.
            line_ids = rng.integers(-2, num_lines + 3, size=(samples, 2))
            sample_widths = rng.uniform(0.5, 20.0, size=(samples, 2))
            if rng.random() < 0.5:
                sample_widths = np.round(sample_widths)  # ties
            assert_bitwise(
                predictor._aggregate(sample_widths, line_ids, num_lines),
                reference.aggregate(sample_widths, line_ids, num_lines, aggregation, rules),
            )

    @pytest.mark.parametrize("aggregation", ["median", "mean", "max"])
    def test_nan_prediction_reaches_its_line(self, small_dataset, aggregation):
        training = small_dataset.training
        sample_widths = np.random.default_rng(2).uniform(1.0, 10.0, training.widths.shape)
        sample_widths[17, 0] = np.nan
        predictor = WidthPredictor(aggregation=aggregation)
        line_widths = predictor._aggregate(sample_widths, training.line_ids, training.num_lines)
        expected = reference.aggregate(
            sample_widths, training.line_ids, training.num_lines, aggregation
        )
        assert_bitwise(line_widths, expected)
        assert np.flatnonzero(np.isnan(line_widths)).tolist() == [training.line_ids[17, 0]]
