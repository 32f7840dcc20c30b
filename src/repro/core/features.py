"""Feature extraction for the PowerPlanningDL model (paper Section IV-B).

The training dataset is built from quadruples ``(X coordinate, Y coordinate,
Id, w_i)`` — one per power-grid interconnect — where ``(X, Y)`` is the
location of the interconnect over the planned floorplan, ``Id`` is the
switching current of the functional block underneath, and ``w_i`` is the
(golden) width of the power-grid lines at that location.

The model is a *multi-target* regressor, as in the paper: each sample sits
at a crossing of one vertical and one horizontal power-grid line, and the
two regression targets are the widths of those two lines.  One sample per
crossing makes the mapping ``(X, Y, Id) -> (w_vertical, w_horizontal)``
well defined (each location pins down exactly one line in each direction)
and gives a sample count of the same order as the grid's interconnect
count, which is what the paper's Table V ``#interconnects`` column tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.builder import GridTopology
from ..grid.floorplan import Floorplan

FEATURE_NAMES: tuple[str, str, str] = ("x", "y", "switching_current")
"""Names (and order) of the input features used by the width model."""

TARGET_NAMES: tuple[str, str] = ("vertical_width", "horizontal_width")
"""Names (and order) of the multi-target regression outputs."""


@dataclass(frozen=True)
class InterconnectSample:
    """One training / test sample at a power-grid crossing.

    Attributes:
        vertical_line: Id of the vertical line at this crossing.
        horizontal_line: Id of the horizontal line at this crossing (global
            line id, i.e. offset by the number of vertical lines).
        x: X coordinate of the crossing in um.
        y: Y coordinate of the crossing in um.
        switching_current: Switching current ``Id`` of the block under the
            crossing, in amperes (0 when no block covers the point).
        vertical_width: Golden width of the vertical line in um (NaN when
            unlabeled).
        horizontal_width: Golden width of the horizontal line in um (NaN
            when unlabeled).
    """

    vertical_line: int
    horizontal_line: int
    x: float
    y: float
    switching_current: float
    vertical_width: float = float("nan")
    horizontal_width: float = float("nan")

    @property
    def features(self) -> tuple[float, float, float]:
        """The (X, Y, Id) feature triple of this sample."""
        return (self.x, self.y, self.switching_current)

    @property
    def targets(self) -> tuple[float, float]:
        """The (vertical width, horizontal width) target pair."""
        return (self.vertical_width, self.horizontal_width)

    @property
    def is_labeled(self) -> bool:
        """True if the sample carries golden widths."""
        return not (np.isnan(self.vertical_width) or np.isnan(self.horizontal_width))


class FeatureExtractor:
    """Extract per-crossing feature quadruples from a floorplan.

    Args:
        floorplan: The floorplan providing block locations and switching
            currents.
        topology: The power-grid stripe topology; samples are located at the
            stripe crossings.
    """

    def __init__(self, floorplan: Floorplan, topology: GridTopology) -> None:
        self.floorplan = floorplan
        self.topology = topology

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def crossing_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Return meshgrid arrays of the crossing coordinates.

        Returns:
            ``(xs, ys)`` arrays of shape ``(num_horizontal, num_vertical)``.
        """
        xs, ys = np.meshgrid(
            np.asarray(self.topology.vertical_positions),
            np.asarray(self.topology.horizontal_positions),
        )
        return xs, ys

    def feature_matrix(
        self, widths: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Extract features, targets and line ids for every crossing.

        Args:
            widths: Golden per-line widths of length ``topology.num_lines``;
                when omitted the target matrix is filled with NaN.

        Returns:
            features: ``(n, 3)`` array of (x, y, Id).
            targets: ``(n, 2)`` array of (vertical width, horizontal width).
            line_ids: ``(n, 2)`` integer array of (vertical line id, global
                horizontal line id) per sample.

        Raises:
            ValueError: If the width vector has the wrong length.
        """
        topology = self.topology
        if widths is not None:
            widths = np.asarray(widths, dtype=float)
            if widths.shape != (topology.num_lines,):
                raise ValueError(
                    f"expected {topology.num_lines} widths, got shape {widths.shape}"
                )

        xs, ys = self.crossing_grid()
        currents = self.floorplan.switching_current_grid(
            topology.vertical_positions, topology.horizontal_positions
        )
        v_index, h_index = np.meshgrid(
            np.arange(topology.num_vertical), np.arange(topology.num_horizontal)
        )
        features = np.column_stack([xs.ravel(), ys.ravel(), currents.ravel()])
        vertical_ids = v_index.ravel()
        horizontal_ids = h_index.ravel() + topology.num_vertical
        line_ids = np.column_stack([vertical_ids, horizontal_ids])

        if widths is None:
            targets = np.full((features.shape[0], 2), np.nan)
        else:
            targets = np.column_stack([widths[vertical_ids], widths[horizontal_ids]])
        return features, targets, line_ids

    def extract(self, widths: np.ndarray | None = None) -> list[InterconnectSample]:
        """Extract one :class:`InterconnectSample` per crossing."""
        features, targets, line_ids = self.feature_matrix(widths)
        samples: list[InterconnectSample] = []
        for row in range(features.shape[0]):
            samples.append(
                InterconnectSample(
                    vertical_line=int(line_ids[row, 0]),
                    horizontal_line=int(line_ids[row, 1]),
                    x=float(features[row, 0]),
                    y=float(features[row, 1]),
                    switching_current=float(features[row, 2]),
                    vertical_width=float(targets[row, 0]),
                    horizontal_width=float(targets[row, 1]),
                )
            )
        return samples


def single_feature_columns(features: np.ndarray) -> dict[str, np.ndarray]:
    """Split the feature matrix into named single-feature columns.

    Used by the Table I / Fig. 4(b) study, which compares the r² score of
    each individual feature against the combined feature set.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"expected {len(FEATURE_NAMES)} feature columns")
    return {name: features[:, [index]] for index, name in enumerate(FEATURE_NAMES)}
