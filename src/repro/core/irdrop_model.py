"""Fast Kirchhoff-based IR-drop prediction (paper Algorithm 2).

Once the width model has produced per-line widths, PowerPlanningDL predicts
the IR drop *without* running the full power-grid analysis: the switching
currents of the blocks are allocated to the power-grid lines that cross them
(the current-requirement decomposition of eqs. 7-9), and the IR drop along
each line is accumulated segment by segment with Kirchhoff's laws, treating
each line as a one-dimensional resistive ladder fed at the crossings nearest
to the supply pads.  This costs O(#segments) per line instead of a sparse
solve over the whole grid, and the lines of one direction, which share
their crossings, are solved together as one batched ladder.  Measured with
``perfbench`` paper-flow on ibmpg2 (48 + 48 lines, one core of a 2-vCPU
VM), ``PowerPlanningDL.predict_design`` (width model plus this estimate)
takes a median of 7.5 ms against 95 ms for the spec's conventional plan,
12.8x (paper Table IV: 1.97x on ibmpg2).  The price is accuracy, as the
paper notes: the estimated worst drop is 6.1 % off the analysed grid's
(median over five specs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis.irdrop import rasterise_max
from ..grid.builder import GridTopology
from ..grid.floorplan import Floorplan
from ..grid.technology import Technology


@dataclass
class IRDropPrediction:
    """Predicted IR drops for one design.

    Attributes:
        line_ir_drop: Worst IR drop predicted on each power-grid line, volts.
        segment_ir_drop: Per-line array of per-segment IR drops, volts.
        worst_ir_drop: Predicted worst-case IR drop over the design, volts.
        worst_line: Line id where the worst drop occurs.
        prediction_time: Wall-clock prediction time, seconds.
        line_currents: Current allocated to each line (eqs. 7-9), amperes.
    """

    line_ir_drop: np.ndarray
    segment_ir_drop: list[np.ndarray]
    worst_ir_drop: float
    worst_line: int
    prediction_time: float
    line_currents: np.ndarray

    @property
    def worst_ir_drop_mv(self) -> float:
        """Predicted worst-case IR drop in millivolts (Table III units)."""
        return self.worst_ir_drop * 1000.0


class KirchhoffIRDropEstimator:
    """Analytic IR-drop estimator used by PowerPlanningDL (Algorithm 2).

    Args:
        technology: Provides sheet resistances and the supply voltage.
        distance_decay: Exponential decay length (as a fraction of the core
            size) used when allocating block currents to nearby lines; the
            same parameter as the analytical sizer so the two stay
            consistent.
        sharing_factor: Fraction of a line's allocated current assumed to be
            carried by the line itself (the rest is delivered through the
            orthogonal layer and the vias of the mesh).  1.0 is the most
            pessimistic single-layer assumption.
        approach_factor: Damping applied to the pad-to-line approach
            resistance; the approach path is shared by several parallel
            stripes of the orthogonal layer, so its effective resistance is
            a fraction of a single stripe's.
    """

    def __init__(
        self,
        technology: Technology,
        distance_decay: float = 0.15,
        sharing_factor: float = 1.0,
        approach_factor: float = 0.5,
    ) -> None:
        if distance_decay <= 0:
            raise ValueError("distance_decay must be positive")
        if not 0 < sharing_factor <= 1:
            raise ValueError("sharing_factor must be in (0, 1]")
        if not 0 <= approach_factor <= 1:
            raise ValueError("approach_factor must be in [0, 1]")
        self.technology = technology
        self.distance_decay = distance_decay
        self.sharing_factor = sharing_factor
        self.approach_factor = approach_factor

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def allocate_line_currents(self, floorplan: Floorplan, topology: GridTopology) -> np.ndarray:
        """Allocate each block's current to the grid lines (eqs. 7-9).

        Each block's switching current is split over the lines of each
        direction with exponentially decaying weights in the distance from
        the block centre; both directions share the delivery evenly (half
        each), reflecting that a mesh delivers current through both layers.
        The blocks' shares are summed in block order.
        """
        currents = np.zeros(topology.num_lines, dtype=float)
        blocks = [block for block in floorplan.iter_blocks() if block.switching_current > 0]
        if not blocks:
            return currents
        centers = np.asarray([block.center for block in blocks])
        halves = np.asarray([0.5 * block.switching_current for block in blocks])
        num_vertical = topology.num_vertical
        for axis, positions, extent, lines in (
            (0, topology.vertical_positions, floorplan.core_width, slice(None, num_vertical)),
            (1, topology.horizontal_positions, floorplan.core_height, slice(num_vertical, None)),
        ):
            decay = max(extent * self.distance_decay, 1e-9)
            # (blocks, lines) weights, one row per block.  cumsum adds the rows
            # strictly in block order, whatever order a sum would reduce in.
            weights = np.exp(-np.abs(np.asarray(positions) - centers[:, axis, None]) / decay)
            weights /= weights.sum(axis=1, keepdims=True)
            currents[lines] = np.cumsum(halves[:, None] * weights, axis=0)[-1]
        return currents

    def predict(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        line_widths: np.ndarray,
    ) -> IRDropPrediction:
        """Predict per-line and worst-case IR drops from predicted widths.

        Args:
            floorplan: Floorplan providing blocks, pads and core size.
            topology: Stripe topology.
            line_widths: Per-line widths (vertical lines first), um.

        Raises:
            ValueError: If the width vector has the wrong length or contains
                non-finite or non-positive values, or the floorplan has no
                pads.
        """
        line_widths = np.asarray(line_widths, dtype=float)
        if line_widths.shape != (topology.num_lines,):
            raise ValueError(f"expected {topology.num_lines} widths")
        # Checked before any batching: a NaN would otherwise reach the
        # orthogonal-width median and poison every line of the other direction.
        bad_lines = np.flatnonzero(~(np.isfinite(line_widths) & (line_widths > 0)))
        if bad_lines.size:
            raise ValueError(
                "line widths must be finite and positive; "
                f"offending line ids: {bad_lines.tolist()}"
            )

        pad_xs = np.asarray([pad.x for pad in floorplan.iter_pads()])
        pad_ys = np.asarray([pad.y for pad in floorplan.iter_pads()])
        if pad_xs.size == 0:
            raise ValueError("floorplan has no power pads")

        start = time.perf_counter()
        line_currents = self.allocate_line_currents(floorplan, topology)
        num_vertical = topology.num_vertical
        v_widths, h_widths = line_widths[:num_vertical], line_widths[num_vertical:]
        v_currents, h_currents = np.split(line_currents * self.sharing_factor, [num_vertical])

        v_layer = self.technology.vertical_layer
        h_layer = self.technology.horizontal_layer
        num_pads = pad_xs.size
        pad_pitch_x = floorplan.core_width / max(np.sqrt(num_pads), 1.0)
        pad_pitch_y = floorplan.core_height / max(np.sqrt(num_pads), 1.0)

        # The switching current under every segment midpoint of every line,
        # one C-contiguous (lines, segments) row per line, in one grid query
        # per direction.  The vertical grid comes back (segments, lines) and
        # is copied, not viewed, transposed: each row's sum must reduce over
        # contiguous values, in the order the per-line ladder sums them.
        v_positions = np.asarray(topology.vertical_positions)
        h_positions = np.asarray(topology.horizontal_positions)
        v_midpoints = (h_positions[:-1] + h_positions[1:]) / 2.0
        h_midpoints = (v_positions[:-1] + v_positions[1:]) / 2.0
        v_local_currents = floorplan.switching_current_grid(v_positions, v_midpoints).T.copy()
        h_local_currents = floorplan.switching_current_grid(h_midpoints, h_positions)

        segment_drops = (
            self._ladder_drops(
                span_positions=h_positions,
                line_coordinates=v_positions,
                pad_axis_positions=pad_ys,
                pad_other_positions=pad_xs,
                pad_reach=pad_pitch_x,
                sheet_resistance=v_layer.sheet_resistance,
                widths=v_widths,
                total_currents=v_currents,
                local_currents=v_local_currents,
                approach_resistance_per_um=(
                    self.approach_factor
                    * h_layer.sheet_resistance
                    / max(float(np.median(h_widths)), 1e-9)
                ),
            ),
            self._ladder_drops(
                span_positions=v_positions,
                line_coordinates=h_positions,
                pad_axis_positions=pad_xs,
                pad_other_positions=pad_ys,
                pad_reach=pad_pitch_y,
                sheet_resistance=h_layer.sheet_resistance,
                widths=h_widths,
                total_currents=h_currents,
                local_currents=h_local_currents,
                approach_resistance_per_um=(
                    self.approach_factor
                    * v_layer.sheet_resistance
                    / max(float(np.median(v_widths)), 1e-9)
                ),
            ),
        )
        line_ir_drop = np.concatenate([drops.max(axis=1) for drops in segment_drops])

        worst_line = int(np.argmax(line_ir_drop))
        elapsed = time.perf_counter() - start
        return IRDropPrediction(
            line_ir_drop=line_ir_drop,
            segment_ir_drop=[row for drops in segment_drops for row in drops],
            worst_ir_drop=float(line_ir_drop[worst_line]),
            worst_line=worst_line,
            prediction_time=elapsed,
            line_currents=line_currents,
        )

    def ir_drop_map(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        prediction: IRDropPrediction,
        resolution: int = 100,
    ) -> np.ndarray:
        """Rasterise the predicted per-segment IR drops onto a map (Fig. 8).

        Every segment midpoint deposits its predicted drop into its bin over
        the core extent (keeping the maximum per bin); empty bins are filled
        with the minimum observed drop, as in
        :func:`repro.analysis.irdrop.ir_drop_map`.
        """
        # Lines 0..num_vertical-1 are vertical, each with one segment between
        # consecutive horizontal lines; the horizontal lines follow.
        v_positions = np.asarray(topology.vertical_positions, dtype=float)
        h_positions = np.asarray(topology.horizontal_positions, dtype=float)
        v_midpoints = (h_positions[:-1] + h_positions[1:]) / 2.0
        h_midpoints = (v_positions[:-1] + v_positions[1:]) / 2.0
        xs = np.concatenate(
            (np.repeat(v_positions, v_midpoints.size), np.tile(h_midpoints, h_positions.size))
        )
        ys = np.concatenate(
            (np.tile(v_midpoints, v_positions.size), np.repeat(h_positions, h_midpoints.size))
        )
        return rasterise_max(
            xs,
            ys,
            np.concatenate(prediction.segment_ir_drop),
            origin=(0.0, 0.0),
            size=(max(floorplan.core_width, 1e-12), max(floorplan.core_height, 1e-12)),
            resolution=resolution,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ladder_drops(
        self,
        span_positions: np.ndarray,
        line_coordinates: np.ndarray,
        pad_axis_positions: np.ndarray,
        pad_other_positions: np.ndarray,
        pad_reach: float,
        sheet_resistance: float,
        widths: np.ndarray,
        total_currents: np.ndarray,
        local_currents: np.ndarray,
        approach_resistance_per_um: float,
    ) -> np.ndarray:
        """IR drop along every line of one direction, each a multi-feed 1-D ladder.

        The lines of one direction all cross the same orthogonal lines, so
        they share their span positions: every per-segment quantity is a
        ``(lines, segments)`` array with one row per line, and each
        ``cumsum(axis=1)`` scans a row exactly as it would scan that line
        alone.

        A line's allocated current is distributed over its segments in
        proportion to the switching current under each segment (uniformly
        when no block covers the line).  Feed points are the crossings
        nearest to the pads whose orthogonal distance from the line is
        within one pad pitch (falling back to the nearest pad when no pad is
        that close).  Each segment's tap current flows to its nearest feed
        point; the IR drop accumulates away from each feed as
        ``sum(R_segment * I_carried)`` on top of the feed's *approach drop*
        — the drop incurred reaching the line from the pad through the
        orthogonal layer and the via stack.

        Returns:
            ``(lines, segments)`` array of per-segment IR drops, volts.
        """
        num_lines = line_coordinates.size
        num_crossings = span_positions.size
        num_segments = num_crossings - 1
        midpoints = (span_positions[:-1] + span_positions[1:]) / 2.0
        resistances = sheet_resistance * np.diff(span_positions) / widths[:, None]

        # Per-segment tap currents proportional to the local switching current.
        local_totals = local_currents.sum(axis=1)
        uniform = local_totals <= 0
        taps = (
            total_currents[:, None]
            * local_currents
            / np.where(uniform, 1.0, local_totals)[:, None]
        )
        taps[uniform] = (total_currents[uniform] / num_segments)[:, None]

        # Feed points: crossings nearest to the pads that are close enough to
        # supply each line through the orthogonal layer.  approach[line, c] is
        # the distance of the closest such pad projecting onto crossing c, and
        # inf where c feeds nothing.
        distances = np.abs(pad_other_positions[None, :] - line_coordinates[:, None])
        nearby = distances <= pad_reach
        unreached = ~nearby.any(axis=1)
        nearby[unreached] = distances[unreached] == distances[unreached].min(axis=1, keepdims=True)
        projected = np.argmin(
            np.abs(span_positions[None, :] - pad_axis_positions[:, None]), axis=1
        )
        lines, pads = np.nonzero(nearby)
        approach = np.full((num_lines, num_crossings), np.inf)
        np.minimum.at(approach, (lines, projected[pads]), distances[lines, pads])

        # Assign every segment to its nearest feed: the last feed at or before
        # its left crossing or the first at or after its right one, split at
        # the midpoint between the two, which goes left.  Feeds are sorted
        # along the line, so each feed's segments form one contiguous region.
        crossing = np.arange(num_crossings)
        is_feed = np.isfinite(approach)
        previous = np.maximum.accumulate(np.where(is_feed, crossing, -1), axis=1)[:, :-1]
        following = np.minimum.accumulate(
            np.where(is_feed, crossing, num_crossings)[:, ::-1], axis=1
        )[:, ::-1][:, 1:]
        boundary = (
            span_positions[previous] + span_positions[np.minimum(following, num_segments)]
        ) / 2.0
        go_left = (previous >= 0) & ((following == num_crossings) | (midpoints <= boundary))
        feed = np.where(go_left, previous, following)

        # A segment's region runs from the first segment with its feed to one
        # past the last.
        segment = np.arange(num_segments)
        first = np.ones(feed.shape, dtype=bool)
        first[:, 1:] = feed[:, 1:] != feed[:, :-1]
        last = np.ones(feed.shape, dtype=bool)
        last[:, :-1] = first[:, 1:]
        region_start = np.maximum.accumulate(np.where(first, segment, 0), axis=1)
        region_end = np.minimum.accumulate(
            np.where(last, segment + 1, num_segments)[:, ::-1], axis=1
        )[:, ::-1]

        # Prefix sums that turn the per-region ladder accumulation into a
        # closed form:  T = prefix taps, CR = prefix resistances,
        # CRT[i] = sum_{m<i} R[m] * T[m],  CRT2[i] = sum_{m<i} R[m] * T[m+1].
        def prefixed(values: np.ndarray) -> np.ndarray:
            return np.concatenate((np.zeros((num_lines, 1)), np.cumsum(values, axis=1)), axis=1)

        def at(table: np.ndarray, index: np.ndarray) -> np.ndarray:
            return np.take_along_axis(table, index, axis=1)

        prefix_taps = prefixed(taps)
        prefix_res = prefixed(resistances)
        prefix_rt = prefixed(resistances * prefix_taps[:, :-1])
        prefix_rt_next = prefixed(resistances * prefix_taps[:, 1:])

        taps_end = at(prefix_taps, region_end)
        taps_start = at(prefix_taps, region_start)
        res_feed = at(prefix_res, feed)
        approach_drop = (taps_end - taps_start) * (
            approach_resistance_per_um * at(approach, feed) + self.technology.via_resistance
        )
        # Right of the feed: segment j carries the taps of segments j..end-1.
        right = taps_end * (prefix_res[:, 1:] - res_feed) - (prefix_rt[:, 1:] - at(prefix_rt, feed))
        # Left of the feed: segment j carries the taps of segments start..j.
        left = (
            at(prefix_rt_next, feed)
            - prefix_rt_next[:, :-1]
            - taps_start * (res_feed - prefix_res[:, :-1])
        )
        return np.where(segment >= feed, right, left) + approach_drop


def pg_line_count(core_width: float, width: float) -> int:
    """Implement paper eq. (6): ``#PG lines = Wcore / w_i`` (floored, >= 1).

    Raises:
        ValueError: If either argument is not positive.
    """
    if core_width <= 0:
        raise ValueError("core_width must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    return max(1, int(core_width // width))
