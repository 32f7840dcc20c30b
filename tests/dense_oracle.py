"""Independent reference solve of a power grid's nodal equations.

The engine lowers a network to arrays, stamps the reduced conductance
matrix by a vectorised COO→CSR assembly and solves it through a cached
sparse factorization or conjugate gradients.  This module redoes both
steps the plain way: it stamps one resistor at a time from the
object-level network, with dictionaries instead of index arrays, and solves
with NumPy's dense LU.  A test that compares the two therefore checks the
engine against code it shares nothing with.  Above :data:`DENSE_LIMIT`
unknowns the same independently stamped matrix is solved by
``scipy.sparse.linalg.spsolve`` at its default options, because a dense
solve of full-size ibmpg2 (4 544 unknowns) takes seconds and hundreds of MB.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.grid import GROUND_NODE

DENSE_LIMIT = 2000
"""Largest unknown count solved densely (ibmpg1 has 1 552 unknowns)."""


def _fixed_voltages(network, pad_voltages=None):
    """Pad node → fixed voltage; the last source on a node wins."""
    pads = list(network.iter_pads())
    voltages = [pad.voltage for pad in pads] if pad_voltages is None else pad_voltages
    if len(voltages) != len(pads):
        raise ValueError(f"expected {len(pads)} pad voltages, got {len(voltages)}")
    fixed = {}
    for pad, voltage in zip(pads, voltages):
        fixed[pad.node] = float(voltage)
    return fixed


def _stamp(network, fixed):
    """Stamp the reduced system one resistor at a time.

    Returns the COO triplets of the matrix over the unknown nodes, the
    right-hand side contributed by the fixed pad nodes, and the unknown
    node names in matrix order.
    """
    unknown = [name for name in network.nodes if name not in fixed]
    index = {name: i for i, name in enumerate(unknown)}
    rows, cols, values = [], [], []
    pad_rhs = np.zeros(len(unknown))
    for resistor in network.iter_resistors():
        g = 1.0 / resistor.resistance
        a, b = resistor.node_a, resistor.node_b
        if a == GROUND_NODE and b == GROUND_NODE:
            continue
        if a == GROUND_NODE or b == GROUND_NODE:
            node = b if a == GROUND_NODE else a
            if node in index:
                rows.append(index[node])
                cols.append(index[node])
                values.append(g)
            continue
        a_fixed, b_fixed = a in fixed, b in fixed
        if a_fixed and b_fixed:
            continue
        if a_fixed or b_fixed:
            fixed_node, free = (a, b) if a_fixed else (b, a)
            rows.append(index[free])
            cols.append(index[free])
            values.append(g)
            pad_rhs[index[free]] += g * fixed[fixed_node]
            continue
        i, j = index[a], index[b]
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        values += [g, g, -g, -g]
    return (rows, cols, values), pad_rhs, unknown


def reference_assemble(network):
    """Dense reduced matrix, nominal right-hand side and unknown node names.

    Mirrors, element by element, the per-resistor stamping loop the
    assembler used before the vectorised COO assembly; loads on pad nodes
    do not enter the right-hand side.
    """
    (rows, cols, values), rhs, unknown = _stamp(network, _fixed_voltages(network))
    n = len(unknown)
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rows, cols), values)
    index = {name: i for i, name in enumerate(unknown)}
    for load in network.iter_loads():
        if load.node in index:
            rhs[index[load.node]] -= load.current
    return matrix, rhs, unknown


def reference_loads(network):
    """Per-node load currents in ``network.nodes`` order, summed per node."""
    per_node = dict.fromkeys(network.nodes, 0.0)
    for load in network.iter_loads():
        per_node[load.node] += load.current
    return np.array(list(per_node.values()))


def reference_voltages(network, loads=None, pad_voltages=None):
    """Per-node voltages of ``network`` from an independent stamp and solve.

    Args:
        network: The grid, as a :class:`~repro.grid.PowerGridNetwork`.
        loads: Per-node load currents in ``network.nodes`` order, one row
            per scenario (``(k, num_nodes)``) or a single ``(num_nodes,)``
            row.  Defaults to the network's own current sources.
        pad_voltages: Per-source voltages in ``network.iter_pads()``
            order, as ``(k, num_pads)`` or ``(num_pads,)``.  Defaults to the
            sources' own voltages.

    Returns:
        ``(k, num_nodes)`` voltages in ``network.nodes`` order, or
        ``(num_nodes,)`` when neither input has a scenario axis.
    """
    names = list(network.nodes)
    loads = np.asarray(reference_loads(network) if loads is None else loads, dtype=float)
    nominal_pads = [pad.voltage for pad in network.iter_pads()]
    pad_rows = np.asarray(nominal_pads if pad_voltages is None else pad_voltages, dtype=float)
    single = loads.ndim == 1 and pad_rows.ndim == 1
    loads, pad_rows = np.atleast_2d(loads), np.atleast_2d(pad_rows)
    count = max(len(loads), len(pad_rows))
    loads = np.broadcast_to(loads, (count, len(names)))
    pad_rows = np.broadcast_to(pad_rows, (count, len(nominal_pads)))

    columns, fixed_rows = [], []
    for k in range(count):
        fixed = _fixed_voltages(network, pad_rows[k])
        triplets, pad_rhs, unknown = _stamp(network, fixed)
        row_loads = dict(zip(names, loads[k]))
        columns.append(pad_rhs - np.array([row_loads[name] for name in unknown]))
        fixed_rows.append(fixed)
    # The matrix depends on which nodes are fixed, not on their voltages,
    # so every scenario stamps the same one.
    rows, cols, values = triplets
    rhs = np.column_stack(columns)
    n = len(unknown)
    if n <= DENSE_LIMIT:
        matrix = np.zeros((n, n))
        np.add.at(matrix, (rows, cols), values)
        solution = np.linalg.solve(matrix, rhs)
    else:
        matrix = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsc()
        solution = spla.spsolve(matrix, rhs)
        solution = solution.reshape(n, count)

    voltages = np.empty((count, len(names)))
    for k in range(count):
        by_name = dict(fixed_rows[k])
        by_name.update(zip(unknown, solution[:, k]))
        voltages[k] = [by_name[name] for name in names]
    return voltages[0] if single else voltages
