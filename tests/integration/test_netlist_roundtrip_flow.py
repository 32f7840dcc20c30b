"""Integration test: SPICE netlist round-trip feeding the analysis engine.

A user of the original IBM benchmarks would read a netlist from disk and run
the conventional analysis on it.  This test writes a generated grid to the
IBM SPICE format, reads it back and checks the analysis gives identical
results, i.e. the file format carries everything the analysis needs.
"""

import pytest

from repro.analysis import BatchedAnalysisEngine
from repro.grid import read_netlist, write_netlist


class TestNetlistAnalysisRoundTrip:
    def test_analysis_identical_after_roundtrip(self, tiny_grid, tmp_path):
        original_result = BatchedAnalysisEngine().analyze(tiny_grid)

        path = write_netlist(tiny_grid, tmp_path / "grid.spice")
        recovered = read_netlist(path)
        recovered_result = BatchedAnalysisEngine().analyze(recovered)

        assert recovered_result.worst_ir_drop == pytest.approx(
            original_result.worst_ir_drop, rel=1e-6
        )
        assert recovered_result.average_ir_drop == pytest.approx(
            original_result.average_ir_drop, rel=1e-6
        )
        assert recovered_result.worst_node == original_result.worst_node

    def test_benchmark_grid_roundtrip(self, small_benchmark, golden_plan, tmp_path):
        network = golden_plan.network
        path = write_netlist(network, tmp_path / "bench.spice")
        recovered = read_netlist(path)
        assert recovered.statistics().as_row() == network.statistics().as_row()
        recovered_result = BatchedAnalysisEngine().analyze(recovered)
        assert recovered_result.worst_ir_drop == pytest.approx(
            golden_plan.ir_result.worst_ir_drop, rel=1e-6
        )
