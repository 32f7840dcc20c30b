"""Branch-current extraction from a solved power grid.

Given the node voltages produced by the IR-drop analysis, the current through
every resistive branch follows from Ohm's law, ``I = (V_a - V_b) / R``.
Branch currents feed two consumers:

* the electromigration checker (:mod:`repro.analysis.em`), which compares the
  per-unit-width current density against ``Jmax``; and
* the conventional planner's resizing step, which upsizes lines whose
  most loaded segment carries too much current
  (:func:`line_currents_from_voltages`, straight from the loop's solved
  voltage array).

All extraction runs on the network's cached
:class:`~repro.grid.compiled.CompiledGrid` arrays: one vectorised Ohm's-law
evaluation replaces the per-branch Python loop, and the per-object
:class:`BranchCurrent` view is only materialised where callers need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.compiled import CompiledGrid
from ..grid.elements import Resistor
from ..grid.network import PowerGridNetwork
from .irdrop import IRDropResult


@dataclass(frozen=True)
class BranchCurrent:
    """Current through one resistive branch.

    Attributes:
        resistor: The branch element.
        current: Signed current flowing from ``node_a`` to ``node_b`` in
            amperes.
    """

    resistor: Resistor
    current: float

    @property
    def magnitude(self) -> float:
        """Absolute branch current in amperes."""
        return abs(self.current)

    @property
    def current_density(self) -> float:
        """Current per unit width in A/um; infinite for zero-width branches."""
        if self.resistor.width <= 0:
            return float("inf") if self.magnitude > 0 else 0.0
        return self.magnitude / self.resistor.width


def _compiled_and_voltages(
    network: PowerGridNetwork | CompiledGrid, result: IRDropResult
) -> tuple[CompiledGrid, np.ndarray]:
    compiled = network if isinstance(network, CompiledGrid) else network.compile()
    return compiled, compiled.voltage_array(result.node_voltages)


def branch_current_array(
    network: PowerGridNetwork | CompiledGrid, result: IRDropResult
) -> np.ndarray:
    """Signed per-branch currents, aligned with the compiled resistor order.

    The compiled resistor order is the network's insertion order, so the
    array lines up with ``network.iter_resistors()``.
    """
    compiled, voltages = _compiled_and_voltages(network, result)
    return compiled.branch_current_array(voltages)


def branch_currents(
    network: PowerGridNetwork | CompiledGrid, result: IRDropResult
) -> list[BranchCurrent]:
    """Compute the current through every resistive branch of the grid."""
    compiled, voltages = _compiled_and_voltages(network, result)
    currents = compiled.branch_current_array(voltages)
    return [
        BranchCurrent(resistor=resistor, current=float(current))
        for resistor, current in zip(compiled.resistors, currents)
    ]


def line_currents_from_voltages(
    network: PowerGridNetwork | CompiledGrid, voltages: np.ndarray
) -> dict[int, float]:
    """Return the maximum segment current of every power-grid line.

    The per-line maximum is the quantity the EM constraint (paper eq. 4)
    limits, since the most loaded segment of a stripe is the one that fails
    first.  A solved :class:`IRDropResult` gives the voltages as
    ``compiled.voltage_array(result.node_voltages)``.

    Args:
        network: The grid (or its compiled form).
        voltages: Per-node voltages in compiled node order.
    """
    compiled = network if isinstance(network, CompiledGrid) else network.compile()
    magnitudes = np.abs(compiled.branch_current_array(np.asarray(voltages, dtype=float)))
    on_line = compiled.res_line_id >= 0
    line_ids = compiled.res_line_id[on_line]
    if line_ids.size == 0:
        return {}
    maxima = np.zeros(int(line_ids.max()) + 1, dtype=float)
    np.maximum.at(maxima, line_ids, magnitudes[on_line])
    return {int(line_id): float(maxima[line_id]) for line_id in np.unique(line_ids)}


def pad_currents(
    network: PowerGridNetwork | CompiledGrid, result: IRDropResult
) -> dict[str, float]:
    """Estimate the current delivered by each supply pad.

    The pad current is the net current flowing out of the pad node through
    its resistive branches (plus any load attached directly to the pad node).
    When several pads share a node, the node's current is attributed to the
    last added pad, matching the network's pad-per-node convention.
    """
    compiled, voltages = _compiled_and_voltages(network, result)
    outflow = compiled.node_outflow(compiled.branch_current_array(voltages))

    totals = {name: 0.0 for name in compiled.pad_names}
    pad_name_by_node = dict(zip(compiled.pad_node.tolist(), compiled.pad_names))
    for node, pad_name in pad_name_by_node.items():
        totals[pad_name] = float(outflow[node] + compiled.base_loads[node])
    return totals


def total_dissipated_power(
    network: PowerGridNetwork | CompiledGrid, result: IRDropResult
) -> float:
    """Return the total ohmic power dissipated in the grid wires, in watts."""
    compiled, voltages = _compiled_and_voltages(network, result)
    currents = compiled.branch_current_array(voltages)
    return float(np.sum(currents**2 / compiled.conductance))


def current_conservation_error(
    network: PowerGridNetwork | CompiledGrid, result: IRDropResult
) -> float:
    """Return the worst KCL violation over the non-pad nodes, in amperes.

    A correctly solved grid satisfies Kirchhoff's current law at every
    non-pad node: the resistive currents leaving the node equal the load
    current drawn there.  This is used as a physics-level invariant in the
    test-suite.
    """
    compiled, voltages = _compiled_and_voltages(network, result)
    outflow = compiled.node_outflow(compiled.branch_current_array(voltages))
    net_injection = -outflow - compiled.base_loads
    errors = np.abs(net_injection[~compiled.is_pad])
    return float(errors.max()) if errors.size else 0.0
