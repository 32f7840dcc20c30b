"""Tests for the Kirchhoff IR-drop estimator (paper Algorithm 2)."""

import numpy as np
import pytest

from repro.analysis import IRDropAnalyzer
from repro.core import KirchhoffIRDropEstimator, pg_line_count
from repro.grid import GridBuilder


@pytest.fixture(scope="module")
def estimator(technology):
    return KirchhoffIRDropEstimator(technology)


@pytest.fixture(scope="module")
def uniform_widths(tiny_topology):
    return np.full(tiny_topology.num_lines, 5.0)


class TestCurrentAllocation:
    def test_total_current_conserved(self, estimator, tiny_floorplan, tiny_topology):
        currents = estimator.allocate_line_currents(tiny_floorplan, tiny_topology)
        assert currents.sum() == pytest.approx(tiny_floorplan.total_switching_current, rel=1e-9)

    def test_hot_block_lines_get_more_current(self, estimator, tiny_floorplan, tiny_topology):
        currents = estimator.allocate_line_currents(tiny_floorplan, tiny_topology)
        hot = max(tiny_floorplan.iter_blocks(), key=lambda b: b.switching_current)
        positions = np.asarray(tiny_topology.vertical_positions)
        nearest = int(np.argmin(np.abs(positions - hot.center[0])))
        farthest = int(np.argmax(np.abs(positions - hot.center[0])))
        assert currents[nearest] > currents[farthest]


class TestPrediction:
    def test_prediction_structure(self, estimator, tiny_floorplan, tiny_topology, uniform_widths):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        assert prediction.line_ir_drop.shape == (tiny_topology.num_lines,)
        assert len(prediction.segment_ir_drop) == tiny_topology.num_lines
        assert prediction.worst_ir_drop == pytest.approx(prediction.line_ir_drop.max())
        assert 0 <= prediction.worst_line < tiny_topology.num_lines
        assert prediction.prediction_time > 0

    def test_drops_non_negative(self, estimator, tiny_floorplan, tiny_topology, uniform_widths):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        for drops in prediction.segment_ir_drop:
            assert np.all(drops >= -1e-12)

    def test_wider_lines_reduce_predicted_drop(self, estimator, tiny_floorplan, tiny_topology):
        narrow = estimator.predict(
            tiny_floorplan, tiny_topology, np.full(tiny_topology.num_lines, 2.0)
        )
        wide = estimator.predict(
            tiny_floorplan, tiny_topology, np.full(tiny_topology.num_lines, 10.0)
        )
        assert wide.worst_ir_drop < narrow.worst_ir_drop

    def test_more_current_increases_predicted_drop(
        self, estimator, tiny_floorplan, tiny_topology, uniform_widths
    ):
        nominal = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        heavy = estimator.predict(
            tiny_floorplan.with_scaled_currents(2.0), tiny_topology, uniform_widths
        )
        assert heavy.worst_ir_drop > nominal.worst_ir_drop

    def test_prediction_same_order_as_full_analysis(
        self, estimator, technology, tiny_floorplan, tiny_topology, uniform_widths
    ):
        """The Algorithm 2 estimate should land within ~3x of the MNA solve."""
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, uniform_widths)
        golden = IRDropAnalyzer().analyze(network)
        ratio = prediction.worst_ir_drop / golden.worst_ir_drop
        assert 1 / 3 <= ratio <= 3.0

    def test_input_validation(self, estimator, tiny_floorplan, tiny_topology):
        with pytest.raises(ValueError):
            estimator.predict(tiny_floorplan, tiny_topology, np.asarray([1.0, 2.0]))
        bad_widths = np.full(tiny_topology.num_lines, 5.0)
        bad_widths[0] = 0.0
        with pytest.raises(ValueError):
            estimator.predict(tiny_floorplan, tiny_topology, bad_widths)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_widths_rejected_with_line_ids(
        self, estimator, tiny_floorplan, tiny_topology, bad
    ):
        widths = np.full(tiny_topology.num_lines, 5.0)
        widths[[3, 10]] = bad
        with pytest.raises(ValueError, match=r"offending line ids: \[3, 10\]"):
            estimator.predict(tiny_floorplan, tiny_topology, widths)

    def test_constructor_validation(self, technology):
        with pytest.raises(ValueError):
            KirchhoffIRDropEstimator(technology, distance_decay=0.0)
        with pytest.raises(ValueError):
            KirchhoffIRDropEstimator(technology, sharing_factor=0.0)
        with pytest.raises(ValueError):
            KirchhoffIRDropEstimator(technology, approach_factor=2.0)


class TestMap:
    def test_map_shape_and_worst_value(
        self, estimator, tiny_floorplan, tiny_topology, uniform_widths
    ):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        ir_map = estimator.ir_drop_map(tiny_floorplan, tiny_topology, prediction, resolution=40)
        assert ir_map.shape == (40, 40)
        assert ir_map.max() == pytest.approx(prediction.worst_ir_drop)
        assert np.all(np.isfinite(ir_map))

    def test_map_resolution_validation(
        self, estimator, tiny_floorplan, tiny_topology, uniform_widths
    ):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        with pytest.raises(ValueError):
            estimator.ir_drop_map(tiny_floorplan, tiny_topology, prediction, resolution=0)


class TestPGLineCount:
    def test_equation_six(self):
        assert pg_line_count(1000.0, 10.0) == 100

    def test_minimum_one_line(self):
        assert pg_line_count(5.0, 10.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pg_line_count(0.0, 1.0)
        with pytest.raises(ValueError):
            pg_line_count(10.0, 0.0)
