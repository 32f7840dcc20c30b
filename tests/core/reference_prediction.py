"""Per-line reference implementations of the batched prediction path.

These are the straightforward loops that ``repro.core`` computes in batch:
one ladder per grid line (paper Algorithm 2), one weight vector per block
(eqs. 7-9) and one aggregation per line (Algorithm 1).  The differential
tests require the library's batched results to equal them bit for bit, so
keep their arithmetic, and its order, unchanged.  The switching current
under each segment is the scalar ``Floorplan.switching_current_at`` of its
midpoint, so the exact comparisons also pin the library's grid query.
"""

from __future__ import annotations

import numpy as np

from repro.core import KirchhoffIRDropEstimator
from repro.design import DesignRules
from repro.grid import Floorplan, GridTopology


def allocate_line_currents(
    estimator: KirchhoffIRDropEstimator, floorplan: Floorplan, topology: GridTopology
) -> np.ndarray:
    """Split every block's current over the lines, one block at a time."""
    currents = np.zeros(topology.num_lines, dtype=float)
    v_positions = np.asarray(topology.vertical_positions)
    h_positions = np.asarray(topology.horizontal_positions)
    v_decay = max(floorplan.core_width * estimator.distance_decay, 1e-9)
    h_decay = max(floorplan.core_height * estimator.distance_decay, 1e-9)
    for block in floorplan.iter_blocks():
        if block.switching_current <= 0:
            continue
        cx, cy = block.center
        v_weights = np.exp(-np.abs(v_positions - cx) / v_decay)
        h_weights = np.exp(-np.abs(h_positions - cy) / h_decay)
        v_weights /= v_weights.sum()
        h_weights /= h_weights.sum()
        currents[: topology.num_vertical] += 0.5 * block.switching_current * v_weights
        currents[topology.num_vertical :] += 0.5 * block.switching_current * h_weights
    return currents


def line_ladder_drop(
    span_positions: np.ndarray,
    pad_axis_positions: np.ndarray,
    pad_other_positions: np.ndarray,
    pad_reach: float,
    line_coordinate: float,
    sheet_resistance: float,
    width: float,
    total_current: float,
    local_currents: np.ndarray,
    approach_resistance_per_um: float = 0.0,
    via_resistance: float = 0.0,
) -> np.ndarray:
    """IR drop along one line modelled as a multi-feed 1-D ladder."""
    num_segments = span_positions.size - 1
    if num_segments <= 0:
        return np.zeros(0)

    midpoints = (span_positions[:-1] + span_positions[1:]) / 2.0
    lengths = np.diff(span_positions)
    resistances = sheet_resistance * lengths / width

    local_currents = np.asarray(local_currents, dtype=float)
    if local_currents.sum() <= 0:
        taps = np.full(num_segments, total_current / num_segments)
    else:
        taps = total_current * local_currents / local_currents.sum()

    distance_to_line = np.abs(pad_other_positions - line_coordinate)
    nearby = distance_to_line <= pad_reach
    if not np.any(nearby):
        nearby = distance_to_line == distance_to_line.min()
    feed_positions = pad_axis_positions[nearby]
    feed_distances = distance_to_line[nearby]
    projected = np.argmin(np.abs(span_positions[None, :] - feed_positions[:, None]), axis=1)
    feed_indices, inverse = np.unique(projected, return_inverse=True)
    approach_distance = np.full(feed_indices.shape, np.inf)
    np.minimum.at(approach_distance, inverse, feed_distances)

    feed_span = span_positions[feed_indices]
    boundaries = (feed_span[:-1] + feed_span[1:]) / 2.0
    slots = np.searchsorted(boundaries, midpoints)
    num_slots = feed_indices.size
    region_start = np.searchsorted(slots, np.arange(num_slots), side="left")
    region_end = np.searchsorted(slots, np.arange(num_slots), side="right")

    prefix_taps = np.concatenate(([0.0], np.cumsum(taps)))
    prefix_res = np.concatenate(([0.0], np.cumsum(resistances)))
    prefix_rt = np.concatenate(([0.0], np.cumsum(resistances * prefix_taps[:-1])))
    prefix_rt_next = np.concatenate(([0.0], np.cumsum(resistances * prefix_taps[1:])))

    region_current = prefix_taps[region_end] - prefix_taps[region_start]
    approach_drop = region_current * (
        approach_resistance_per_um * approach_distance + via_resistance
    )

    segment_index = np.arange(num_segments)
    feed_of_segment = feed_indices[slots]
    start_of_segment = region_start[slots]
    end_of_segment = region_end[slots]
    approach_of_segment = approach_drop[slots]

    drops = np.empty(num_segments)
    right = segment_index >= feed_of_segment
    left = ~right
    drops[right] = (
        prefix_taps[end_of_segment[right]]
        * (prefix_res[segment_index[right] + 1] - prefix_res[feed_of_segment[right]])
        - (prefix_rt[segment_index[right] + 1] - prefix_rt[feed_of_segment[right]])
    )
    drops[left] = (
        prefix_rt_next[feed_of_segment[left]]
        - prefix_rt_next[segment_index[left]]
        - prefix_taps[start_of_segment[left]]
        * (prefix_res[feed_of_segment[left]] - prefix_res[segment_index[left]])
    )
    return drops + approach_of_segment


def predict(
    estimator: KirchhoffIRDropEstimator,
    floorplan: Floorplan,
    topology: GridTopology,
    line_widths: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Per-line ``(line_ir_drop, segment_ir_drop, line_currents)``, one ladder per line."""
    line_widths = np.asarray(line_widths, dtype=float)
    pad_xs = np.asarray([pad.x for pad in floorplan.iter_pads()])
    pad_ys = np.asarray([pad.y for pad in floorplan.iter_pads()])
    line_currents = allocate_line_currents(estimator, floorplan, topology)

    technology = estimator.technology
    v_layer = technology.vertical_layer
    h_layer = technology.horizontal_layer
    num_pads = pad_xs.size
    pad_pitch_x = floorplan.core_width / max(np.sqrt(num_pads), 1.0)
    pad_pitch_y = floorplan.core_height / max(np.sqrt(num_pads), 1.0)

    v_positions = np.asarray(topology.vertical_positions)
    h_positions = np.asarray(topology.horizontal_positions)
    v_midpoints = (h_positions[:-1] + h_positions[1:]) / 2.0
    h_midpoints = (v_positions[:-1] + v_positions[1:]) / 2.0
    # The switching current under every segment midpoint, one scalar query
    # per point: the batched path's grid query must equal it bit for bit.
    vertical_local_currents = np.asarray(
        [[floorplan.switching_current_at(x, y) for y in v_midpoints] for x in v_positions],
        dtype=float,
    )
    horizontal_local_currents = np.asarray(
        [[floorplan.switching_current_at(x, y) for x in h_midpoints] for y in h_positions],
        dtype=float,
    )

    line_ir_drop = np.zeros(topology.num_lines, dtype=float)
    segment_ir_drop: list[np.ndarray] = []
    for line_id in range(topology.num_lines):
        vertical = topology.is_vertical(line_id)
        if vertical:
            layer, orthogonal_layer = v_layer, h_layer
            coordinate = topology.vertical_positions[line_id]
            span_positions = h_positions
            pad_axis, pad_other = pad_ys, pad_xs
            pad_reach = pad_pitch_x
            local_currents = vertical_local_currents[line_id]
            orthogonal_width = float(np.median(line_widths[topology.num_vertical :]))
        else:
            layer, orthogonal_layer = h_layer, v_layer
            row = line_id - topology.num_vertical
            coordinate = topology.horizontal_positions[row]
            span_positions = v_positions
            pad_axis, pad_other = pad_xs, pad_ys
            pad_reach = pad_pitch_y
            local_currents = horizontal_local_currents[row]
            orthogonal_width = float(np.median(line_widths[: topology.num_vertical]))

        drops = line_ladder_drop(
            span_positions=span_positions,
            pad_axis_positions=pad_axis,
            pad_other_positions=pad_other,
            pad_reach=pad_reach,
            line_coordinate=coordinate,
            sheet_resistance=layer.sheet_resistance,
            width=line_widths[line_id],
            total_current=line_currents[line_id] * estimator.sharing_factor,
            local_currents=local_currents,
            approach_resistance_per_um=(
                estimator.approach_factor
                * orthogonal_layer.sheet_resistance
                / max(orthogonal_width, 1e-9)
            ),
            via_resistance=technology.via_resistance,
        )
        segment_ir_drop.append(drops)
        line_ir_drop[line_id] = drops.max() if drops.size else 0.0
    return line_ir_drop, segment_ir_drop, line_currents


def aggregate(
    sample_widths: np.ndarray,
    line_ids: np.ndarray,
    num_lines: int,
    aggregation: str,
    rules: DesignRules | None = None,
) -> np.ndarray:
    """Per-line width aggregation, one pair of masks per line."""
    line_widths = np.empty(num_lines, dtype=float)
    fallback = float(np.median(sample_widths))
    for line_id in range(num_lines):
        values_v = sample_widths[line_ids[:, 0] == line_id, 0]
        values_h = sample_widths[line_ids[:, 1] == line_id, 1]
        values = np.concatenate([values_v, values_h])
        if values.size == 0:
            line_widths[line_id] = fallback
            continue
        if aggregation == "median":
            line_widths[line_id] = float(np.median(values))
        elif aggregation == "mean":
            line_widths[line_id] = float(np.mean(values))
        else:
            line_widths[line_id] = float(np.max(values))
    if rules is not None:
        line_widths = rules.legalize_widths(line_widths)
    return line_widths
