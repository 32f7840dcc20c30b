"""Tests for the width predictor (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.core import RegressionDataset, WidthPredictor
from repro.design import DesignRules
from repro.nn import RegressorConfig, TrainingConfig


@pytest.fixture(scope="module")
def fitted_predictor(small_dataset, small_benchmark):
    config = RegressorConfig(
        hidden_layers=3,
        hidden_width=24,
        training=TrainingConfig(epochs=80, batch_size=64, early_stopping_patience=0, seed=0),
        seed=0,
    )
    rules = DesignRules.from_technology(small_benchmark.technology)
    predictor = WidthPredictor(config=config, rules=rules)
    predictor.fit(small_dataset.training)
    return predictor


class TestTraining:
    def test_fit_records_time_and_history(self, fitted_predictor):
        assert fitted_predictor.is_fitted
        assert fitted_predictor.training_time > 0

    def test_training_accuracy_is_high(self, fitted_predictor, small_dataset):
        metrics = fitted_predictor.evaluate(small_dataset.training)
        assert metrics["r2_score"] > 0.8
        assert metrics["mse"] < 5.0

    def test_fit_rejects_unlabeled_dataset(self, small_dataset):
        predictor = WidthPredictor(config=RegressorConfig.fast(epochs=1))
        unlabeled = small_dataset.training
        broken = type(unlabeled)(
            name="broken",
            features=unlabeled.features,
            widths=np.full_like(unlabeled.widths, np.nan),
            line_ids=unlabeled.line_ids,
            num_lines=unlabeled.num_lines,
        )
        with pytest.raises(ValueError):
            predictor.fit(broken)

    def test_invalid_aggregation_rejected(self):
        with pytest.raises(ValueError):
            WidthPredictor(aggregation="geometric")


class TestPrediction:
    def test_sample_predictions_are_positive_and_legal(
        self, fitted_predictor, small_dataset, small_benchmark
    ):
        predictions = fitted_predictor.predict_samples(small_dataset.training.features)
        rules = DesignRules.from_technology(small_benchmark.technology)
        assert predictions.shape == small_dataset.training.widths.shape
        assert np.all(predictions >= rules.min_width - 1e-9)

    def test_predict_dataset_aggregates_per_line(
        self, fitted_predictor, small_dataset, small_benchmark
    ):
        result = fitted_predictor.predict_dataset(small_dataset.training)
        assert result.line_widths.shape == (small_benchmark.topology.num_lines,)
        assert result.prediction_time > 0
        rules = DesignRules.from_technology(small_benchmark.technology)
        assert np.all(result.line_widths >= rules.min_width - 1e-9)
        assert np.all(result.line_widths <= rules.max_width + 1e-9)

    def test_predicted_line_widths_close_to_golden(self, fitted_predictor, small_dataset):
        result = fitted_predictor.predict_dataset(small_dataset.training)
        golden = small_dataset.golden_plan.widths
        correlation = np.corrcoef(result.line_widths, golden)[0, 1]
        assert correlation > 0.7

    def test_predict_design_from_floorplan(self, fitted_predictor, small_benchmark):
        result = fitted_predictor.predict_design(
            small_benchmark.floorplan, small_benchmark.topology
        )
        assert result.line_widths.shape == (small_benchmark.topology.num_lines,)
        assert result.sample_widths.shape[1] == 2

    def test_aggregation_modes(self, small_dataset):
        training = small_dataset.training
        num_vertical = int(training.line_ids[:, 0].max()) + 1
        # All horizontal lines but the last half-covered one keep every
        # vertical sample (an even count), the vertical lines keep 14 or 13
        # samples (even and odd), one horizontal line keeps 5 (odd), and the
        # later horizontal lines keep none.
        keep = 13 * num_vertical + 5
        subset = RegressionDataset(
            name="uneven",
            features=training.features[:keep],
            widths=training.widths[:keep],
            line_ids=training.line_ids[:keep],
            num_lines=training.num_lines,
        )
        predictor = WidthPredictor(config=RegressorConfig.fast(epochs=5))
        predictor.fit(training)
        reducers = {"median": np.median, "mean": np.mean, "max": np.max}
        results = {}
        for mode, reduce in reducers.items():
            predictor.aggregation = mode
            result = predictor.predict_dataset(subset)
            samples = result.sample_widths
            expected = np.empty(training.num_lines)
            for line in range(training.num_lines):
                values = np.concatenate(
                    [samples[subset.line_ids[:, 0] == line, 0],
                     samples[subset.line_ids[:, 1] == line, 1]]
                )
                expected[line] = reduce(values) if values.size else np.median(samples)
            assert result.line_widths.tobytes() == expected.tobytes(), mode
            results[mode] = result.line_widths
        counts = np.bincount(subset.line_ids.ravel(), minlength=training.num_lines)
        assert {0, 5, 13, 14, num_vertical} <= set(counts.tolist())
        # The modes must differ, or the comparisons above could not tell them apart.
        assert np.any(results["max"] > results["median"])
        assert not np.array_equal(results["mean"], results["median"])
