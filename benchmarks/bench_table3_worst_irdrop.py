"""Table III / Fig. 8: worst-case IR drop, conventional vs. PowerPlanningDL.

Table III compares the worst-case IR drop obtained by the conventional
analysis with the value predicted by PowerPlanningDL for every benchmark;
Fig. 8 shows the 100 x 100 IR-drop maps of ibmpg2 and ibmpg6 under both
flows.  The paper's claim is that the predicted values are close to the
conventional ones (within a couple of mV on their testbed).

This bench prints the Table III rows for the whole synthetic suite, writes
the four Fig. 8 maps as CSV matrices plus ASCII previews, and times the
conventional analysis of ibmpg2 (the quantity the DL flow avoids).
"""

from __future__ import annotations

import numpy as np

from conftest import suite_names

from repro.analysis import BatchedAnalysisEngine, ir_drop_map
from repro.core import compare_worst_ir_drop, format_table
from repro.io import ascii_heatmap, write_csv, write_json, write_matrix


def test_table3_worst_case_ir_drop(benchmark, benchmark_cache, results_dir):
    """Regenerate Table III over the suite; time one conventional analysis."""
    rows = []
    for name in suite_names():
        prepared = benchmark_cache.get(name)
        comparison = compare_worst_ir_drop(prepared.golden_plan, prepared.nominal_prediction)
        rows.append(
            {
                "benchmark": name,
                "conventional_mV": round(comparison.conventional_mv, 1),
                "powerplanningdl_mV": round(comparison.predicted_mv, 1),
                "relative_error": round(comparison.relative_error, 3),
            }
        )

    # A fresh engine per round, so every timed analysis factors the grid.
    prepared2 = benchmark_cache.get("ibmpg2")
    network2 = prepared2.golden_plan.network
    benchmark(lambda: BatchedAnalysisEngine().analyze(network2))

    print()
    print(
        format_table(
            rows,
            title="Table III: worst-case IR drop, conventional vs. PowerPlanningDL (mV)",
        )
    )
    print(
        "paper reports (mV): ibmpg1 69.8/68.2  ibmpg2 36.3/36.1  ibmpg3 18.1/18.0  "
        "ibmpg4 4.0/4.1  ibmpg5 4.3/4.2  ibmpg6 13.1/13.0"
    )
    write_csv(rows, results_dir / "table3_worst_ir_drop.csv")

    # Shape claims: every prediction is the same order of magnitude as the
    # conventional value, and the benchmark with the largest conventional
    # drop also has the largest predicted drop.
    assert all(row["relative_error"] < 1.0 for row in rows)
    conventional = {row["benchmark"]: row["conventional_mV"] for row in rows}
    predicted = {row["benchmark"]: row["powerplanningdl_mV"] for row in rows}
    assert max(conventional, key=conventional.get) == max(predicted, key=predicted.get)


def test_fig8_ir_drop_maps(benchmark, prepared_ibmpg2, prepared_ibmpg6, results_dir):
    """Regenerate the four Fig. 8 IR-drop maps (ibmpg2 & ibmpg6, both flows)."""

    def build_maps(prepared):
        conventional = ir_drop_map(
            prepared.golden_plan.network, prepared.golden_plan.ir_result, resolution=100
        )
        estimator = prepared.framework.ir_estimator
        predicted = estimator.ir_drop_map(
            prepared.benchmark.floorplan,
            prepared.benchmark.topology,
            prepared.nominal_prediction.ir_drop,
            resolution=100,
        )
        return conventional, predicted

    conventional2, predicted2 = benchmark(build_maps, prepared_ibmpg2)
    conventional6, predicted6 = build_maps(prepared_ibmpg6)

    maps = {
        "fig8a_ibmpg2_conventional": conventional2,
        "fig8b_ibmpg2_powerplanningdl": predicted2,
        "fig8c_ibmpg6_conventional": conventional6,
        "fig8d_ibmpg6_powerplanningdl": predicted6,
    }
    summary = {}
    print()
    for label, grid_map in maps.items():
        write_matrix(grid_map * 1000.0, results_dir / f"{label}.csv", header=f"{label} (mV)")
        summary[label] = {
            "min_mV": float(grid_map.min() * 1000.0),
            "max_mV": float(grid_map.max() * 1000.0),
            "mean_mV": float(grid_map.mean() * 1000.0),
        }
        print(ascii_heatmap(grid_map * 1000.0, width=50, height=14, title=label, unit=" mV"))
        print()
    write_json(summary, results_dir / "fig8_map_summary.json")

    # The predicted maps must place their hot spot in the same region as the
    # conventional maps (within a quarter of the die in each direction).
    for conventional, predicted in ((conventional2, predicted2), (conventional6, predicted6)):
        conv_y, conv_x = np.unravel_index(np.argmax(conventional), conventional.shape)
        pred_y, pred_x = np.unravel_index(np.argmax(predicted), predicted.shape)
        assert abs(conv_x - pred_x) <= 35
        assert abs(conv_y - pred_y) <= 35
