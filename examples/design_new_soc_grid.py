"""Design the power grid of a new SoC floorplan with a trained model.

The scenario the paper's introduction motivates: a design team has historical
power-grid designs (here: the synthetic ibmpg2 benchmark, planned with the
conventional flow) and wants a *first-cut* power grid for a brand-new SoC
floorplan without running the iterative analyse-and-resize loop.

The script:

1. trains PowerPlanningDL on ibmpg2;
2. builds a new SoC floorplan by hand (CPU cluster, GPU, memory controller,
   NoC, peripherals) with switching currents from a switching-activity file
   (the VCD surrogate);
3. predicts per-line widths and the IR drop for the new SoC;
4. verifies the predicted design with the full conventional analysis and the
   EM checker, exactly as a sign-off engineer would.

Run with:  python examples/design_new_soc_grid.py
"""

from __future__ import annotations

from pathlib import Path
import tempfile

from repro import PowerPlanningDL, load_benchmark
from repro.analysis import BatchedAnalysisEngine, EMChecker
from repro.core import format_key_values, format_table
from repro.design import DesignRules
from repro.grid import Floorplan, FunctionalBlock, GridBuilder, PowerPad, uniform_topology
from repro.io import activities_from_floorplan, read_activity, write_activity
from repro.nn import RegressorConfig


def build_new_soc(vdd: float) -> Floorplan:
    """A hand-crafted 3 x 3 mm SoC floorplan with realistic block currents."""
    core = 3000.0
    blocks = [
        FunctionalBlock("cpu_cluster", 150.0, 1650.0, 1200.0, 1200.0, switching_current=0.55),
        FunctionalBlock("gpu", 1650.0, 1650.0, 1200.0, 1200.0, switching_current=0.70),
        FunctionalBlock("memory_controller", 150.0, 150.0, 1200.0, 600.0, switching_current=0.25),
        FunctionalBlock("noc_fabric", 150.0, 850.0, 1200.0, 700.0, switching_current=0.18),
        FunctionalBlock("peripherals", 1650.0, 150.0, 1200.0, 1400.0, switching_current=0.12),
    ]
    pads = [
        PowerPad(f"pad_{i}_{j}", x=(i + 1) * core / 8.0, y=(j + 1) * core / 8.0, voltage=vdd)
        for i in range(7)
        for j in range(7)
    ]
    return Floorplan("new_soc", core, core, blocks=blocks, pads=pads)


def main() -> None:
    # 1. Train on historical data (ibmpg2).
    history = load_benchmark("ibmpg2")
    framework = PowerPlanningDL(history.technology, RegressorConfig.paper_default(epochs=80))
    framework.train_on_benchmark(history)
    print(f"trained on historical benchmark {history.name}")

    # 2. Build the new SoC and round-trip its switching activity through the
    # VCD-surrogate file format, the way front-end data would arrive.
    soc = build_new_soc(history.technology.vdd)
    with tempfile.TemporaryDirectory() as tmp:
        activity_file = Path(tmp) / "new_soc_activity.txt"
        write_activity(activities_from_floorplan(soc, history.technology.vdd), activity_file)
        activities = read_activity(activity_file)
    print(f"switching activity read for {len(activities)} blocks")

    topology = uniform_topology(soc, num_vertical=40, num_horizontal=40)

    # 3. Predict the power-grid design.
    predicted = framework.predict_design(soc, topology)
    print()
    print(
        format_key_values(
            {
                "power-grid lines": topology.num_lines,
                "median predicted width (um)": float(
                    sorted(predicted.line_widths)[len(predicted.line_widths) // 2]
                ),
                "max predicted width (um)": float(predicted.line_widths.max()),
                "predicted worst IR drop (mV)": predicted.ir_drop.worst_ir_drop_mv,
                "prediction time (s)": predicted.convergence_time,
            },
            title="PowerPlanningDL prediction for the new SoC",
        )
    )

    # 4. Sign-off style verification with the conventional engines.
    rules = DesignRules.from_technology(history.technology)
    widths = rules.legalize_widths(predicted.line_widths)
    network = GridBuilder(history.technology).build(soc, topology, widths)
    analysis = BatchedAnalysisEngine().analyze(network)
    em_report = EMChecker(history.technology).check(network, analysis)
    print(
        format_table(
            [
                {
                    "check": "worst-case IR drop",
                    "value": f"{analysis.worst_ir_drop_mv:.1f} mV",
                    "limit": f"{history.technology.ir_drop_limit * 1000:.0f} mV",
                    "status": (
                        "PASS"
                        if analysis.worst_ir_drop <= history.technology.ir_drop_limit
                        else "REVIEW"
                    ),
                },
                {
                    "check": "EM current density",
                    "value": f"{em_report.worst_density * 1000:.2f} mA/um",
                    "limit": f"{history.technology.jmax * 1000:.0f} mA/um",
                    "status": (
                        "PASS" if em_report.passed else f"{len(em_report.violations)} violations"
                    ),
                },
            ],
            title="sign-off verification of the predicted design",
        )
    )


if __name__ == "__main__":
    main()
