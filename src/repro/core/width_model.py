"""Power-grid interconnect width prediction (paper Algorithm 1).

The width predictor is the supervised heart of PowerPlanningDL: a neural
multi-target regressor mapping the per-crossing features (X, Y, Id) to the
widths of the vertical and horizontal power-grid lines at that crossing.
Per-line widths for grid construction are obtained by aggregating the
per-crossing predictions of each line (median by default, which is robust
to a few badly predicted samples).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..design.rules import DesignRules
from ..grid.builder import GridTopology
from ..grid.floorplan import Floorplan
from ..nn.metrics import mean_squared_error, r2_score
from ..nn.regression import MultiTargetRegressor, RegressorConfig
from ..nn.training import TrainingHistory
from .dataset import RegressionDataset
from .features import FeatureExtractor


@dataclass
class WidthPredictionResult:
    """Per-crossing and per-line width predictions for one design.

    Attributes:
        sample_widths: ``(n, 2)`` predicted (vertical, horizontal) widths per
            crossing, um.
        line_widths: Aggregated per-line widths (length ``num_lines``), um.
        prediction_time: Wall-clock time of the forward passes, seconds.
    """

    sample_widths: np.ndarray
    line_widths: np.ndarray
    prediction_time: float


class WidthPredictor:
    """Neural-network width predictor (Algorithm 1 of the paper).

    Args:
        config: Regressor configuration; the paper's 10-hidden-layer default
            is used when omitted.
        rules: Optional design rules used to legalise aggregated line widths
            (clamping to min/max width and snapping to the width grid).
        aggregation: How per-crossing predictions are combined into one width
            per line: ``"median"``, ``"mean"`` or ``"max"``.
    """

    _AGGREGATIONS = {"median": np.median, "mean": np.mean, "max": np.max}

    def __init__(
        self,
        config: RegressorConfig | None = None,
        rules: DesignRules | None = None,
        aggregation: str = "median",
    ) -> None:
        if aggregation not in self._AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {tuple(self._AGGREGATIONS)}")
        self.config = config or RegressorConfig.paper_default()
        self.rules = rules
        self.aggregation = aggregation
        self.regressor = MultiTargetRegressor(self.config)
        self.training_time: float = 0.0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, dataset: RegressionDataset) -> TrainingHistory:
        """Train the width model on a labeled dataset.

        Raises:
            ValueError: If the dataset contains unlabeled (NaN-width) samples.
        """
        if np.any(np.isnan(dataset.widths)):
            raise ValueError("training dataset contains unlabeled samples")
        start = time.perf_counter()
        history = self.regressor.fit(dataset.features, dataset.widths)
        self.training_time = time.perf_counter() - start
        return history

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_samples(self, features: np.ndarray) -> np.ndarray:
        """Predict (vertical, horizontal) widths for raw feature rows, in um.

        Predictions are clipped at a small positive floor so downstream
        resistance computations never see a non-positive width.
        """
        predictions = self.regressor.predict(features)
        floor = self.rules.min_width if self.rules is not None else 1e-3
        return np.maximum(predictions, floor)

    def predict_dataset(self, dataset: RegressionDataset) -> WidthPredictionResult:
        """Predict widths for every sample of a dataset and aggregate per line."""
        start = time.perf_counter()
        sample_widths = self.predict_samples(dataset.features)
        line_widths = self._aggregate(sample_widths, dataset.line_ids, dataset.num_lines)
        elapsed = time.perf_counter() - start
        return WidthPredictionResult(
            sample_widths=sample_widths,
            line_widths=line_widths,
            prediction_time=elapsed,
        )

    def predict_design(self, floorplan: Floorplan, topology: GridTopology) -> WidthPredictionResult:
        """Predict per-line widths directly from a floorplan (no labels needed)."""
        extractor = FeatureExtractor(floorplan, topology)
        features, _, line_ids = extractor.feature_matrix()
        start = time.perf_counter()
        sample_widths = self.predict_samples(features)
        line_widths = self._aggregate(sample_widths, line_ids, topology.num_lines)
        elapsed = time.perf_counter() - start
        return WidthPredictionResult(
            sample_widths=sample_widths,
            line_widths=line_widths,
            prediction_time=elapsed,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, dataset: RegressionDataset) -> dict[str, float]:
        """Return r² and MSE of the sample-level predictions on a dataset."""
        predictions = self.predict_samples(dataset.features)
        return {
            "r2_score": r2_score(dataset.widths, predictions),
            "mse": mean_squared_error(dataset.widths, predictions),
        }

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has been called."""
        return self.regressor.is_fitted

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _aggregate(
        self, sample_widths: np.ndarray, line_ids: np.ndarray, num_lines: int
    ) -> np.ndarray:
        """Combine per-crossing predictions into one width per line.

        Column 0 of ``sample_widths`` holds vertical-line predictions keyed
        by ``line_ids[:, 0]``, column 1 horizontal-line predictions keyed by
        ``line_ids[:, 1]``.  All (line id, value) pairs are grouped by line
        once, a line's values in the order vertical column first, then
        horizontal, each in sample order.  Lines with equally many values
        form one ``(lines, count)`` array whose rows reduce exactly as each
        line's values would reduce alone.  A line without samples takes the
        median of all predictions.
        """
        ids = line_ids.T.ravel()
        values = sample_widths.T.ravel()
        known = (ids >= 0) & (ids < num_lines)
        ids, values = ids[known], values[known]
        counts = np.bincount(ids, minlength=num_lines)
        starts = np.cumsum(counts) - counts
        filled = counts > 0
        line_widths = np.empty(num_lines, dtype=float)
        if not filled.all():
            line_widths[~filled] = float(np.median(sample_widths))
        reduce = self._AGGREGATIONS[self.aggregation]
        grouped = values[np.argsort(ids, kind="stable")]
        for count in np.unique(counts[filled]):
            lines = np.flatnonzero(counts == count)
            line_widths[lines] = reduce(grouped[starts[lines, None] + np.arange(count)], axis=1)
        if self.rules is not None:
            line_widths = self.rules.legalize_widths(line_widths)
        return line_widths
