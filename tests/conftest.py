"""Shared fixtures for the test-suite.

Fixtures are kept deliberately small (tiny grids, few training epochs) so the
whole suite runs in well under a minute; the benchmark harness is where the
full-size experiments live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import solvers
from repro.core import DatasetBuilder, PowerPlanningDL
from repro.design import ConventionalPowerPlanner
from repro.grid import (
    CurrentSource,
    Floorplan,
    FunctionalBlock,
    GridBuilder,
    GridNode,
    GridTopology,
    PowerGridNetwork,
    PowerPad,
    Resistor,
    SyntheticIBMSuite,
    VoltageSource,
    generic_45nm,
    uniform_topology,
)
from repro.nn import RegressorConfig, TrainingConfig


@pytest.fixture(scope="session")
def technology():
    """The default 45 nm-class technology used throughout the tests."""
    return generic_45nm()


@pytest.fixture(scope="session")
def tiny_floorplan(technology):
    """A 4-block, 4-pad floorplan small enough for exhaustive checks."""
    blocks = [
        FunctionalBlock(
            name="b0", x=50.0, y=50.0, width=350.0, height=350.0, switching_current=0.08
        ),
        FunctionalBlock(
            name="b1", x=550.0, y=50.0, width=350.0, height=350.0, switching_current=0.20
        ),
        FunctionalBlock(
            name="b2", x=50.0, y=550.0, width=350.0, height=350.0, switching_current=0.05
        ),
        FunctionalBlock(
            name="b3", x=550.0, y=550.0, width=350.0, height=350.0, switching_current=0.12
        ),
    ]
    pads = [
        PowerPad(name="p0", x=250.0, y=250.0, voltage=technology.vdd),
        PowerPad(name="p1", x=750.0, y=250.0, voltage=technology.vdd),
        PowerPad(name="p2", x=250.0, y=750.0, voltage=technology.vdd),
        PowerPad(name="p3", x=750.0, y=750.0, voltage=technology.vdd),
    ]
    return Floorplan(name="tiny", core_width=1000.0, core_height=1000.0, blocks=blocks, pads=pads)


@pytest.fixture(scope="session")
def tiny_topology(tiny_floorplan) -> GridTopology:
    """An 8x8 stripe topology over the tiny floorplan."""
    return uniform_topology(tiny_floorplan, num_vertical=8, num_horizontal=8)


@pytest.fixture(scope="session")
def tiny_grid(technology, tiny_floorplan, tiny_topology):
    """A built power-grid network for the tiny floorplan (uniform 5 um)."""
    return GridBuilder(technology).build(tiny_floorplan, tiny_topology, 5.0)


@pytest.fixture(scope="session")
def small_benchmark():
    """The smallest suite benchmark (ibmpg1), shared across the session."""
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="session")
def fast_regressor_config() -> RegressorConfig:
    """A small regressor configuration for quick training in tests."""
    return RegressorConfig(
        hidden_layers=3,
        hidden_width=24,
        training=TrainingConfig(epochs=80, batch_size=64, early_stopping_patience=0, seed=0),
        seed=0,
    )


@pytest.fixture(scope="session")
def golden_plan(small_benchmark):
    """Conventional planner result for the small benchmark."""
    planner = ConventionalPowerPlanner(small_benchmark.technology)
    return planner.plan(small_benchmark.floorplan, small_benchmark.topology)


@pytest.fixture(scope="session")
def small_dataset(small_benchmark):
    """Training dataset extracted from the small benchmark's golden design."""
    builder = DatasetBuilder(ConventionalPowerPlanner(small_benchmark.technology))
    return builder.build_training(small_benchmark)


@pytest.fixture(scope="session")
def trained_framework(small_benchmark, fast_regressor_config):
    """A PowerPlanningDL framework trained on the small benchmark."""
    framework = PowerPlanningDL(small_benchmark.technology, fast_regressor_config)
    framework.train_on_benchmark(small_benchmark)
    return framework


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def floating_island() -> PowerGridNetwork:
    """An 8-node grid whose loaded 4-node ring reaches neither a pad nor ground.

    A 4-node chain ``n0..n3`` hangs off the pad on ``n0``; the resistor
    ring ``f1..f4`` carries a 10 mA load at ``f2`` and has no resistive
    path to the chain, so its nodal system is singular.
    """
    network = PowerGridNetwork(name="island", vdd=1.0)
    for index in range(4):
        network.add_node(GridNode(name=f"n{index}", x=float(index), y=0.0))
        network.add_node(GridNode(name=f"f{index + 1}", x=float(index), y=5.0))
    for index in range(3):
        network.add_resistor(
            Resistor(name=f"R{index}", node_a=f"n{index}", node_b=f"n{index + 1}", resistance=1.0)
        )
    for index in range(4):
        network.add_resistor(
            Resistor(
                name=f"Rf{index}",
                node_a=f"f{index + 1}",
                node_b=f"f{(index + 1) % 4 + 1}",
                resistance=1.0,
            )
        )
    network.add_voltage_source(VoltageSource(name="V1", node="n0", voltage=1.0))
    network.add_current_source(CurrentSource(name="I1", node="f2", current=0.01))
    return network


@pytest.fixture()
def non_finite_solve(monkeypatch):
    """Make SuperLU's solves return NaN voltages from one call on.

    Call the fixture's value with ``first``, the first call that fails
    (1: every call); it returns the list of the column counts each solve
    of this process received, in call order.
    """
    solve = solvers.SpluFactorization.solve

    def inject(first: int = 1) -> list[int]:
        widths: list[int] = []

        def failing(self, rhs):
            widths.append(rhs.shape[1])
            solution = solve(self, rhs)
            return np.full_like(solution, np.nan) if len(widths) >= first else solution

        monkeypatch.setattr(solvers.SpluFactorization, "solve", failing)
        return widths

    return inject
