"""Reference right-hand sides of the reduced nodal system.

The engine writes each scenario's reduced right-hand side straight into
its chunk's rows.  This module builds the same right-hand sides as one
plain ``(num_unknowns, k)`` matrix, for tests that check a solution's
residual or compare the stamped system against an independent assembler.
"""

from __future__ import annotations

import numpy as np


def reference_rhs(compiled, load_matrix=None, pad_voltage_matrix=None):
    """``(num_unknowns, k)`` right-hand sides of ``k`` scenarios.

    Column ``i`` is the pad contribution — ``compiled.pad_rhs`` at the
    grid's own pad voltages, or ``compiled.pad_rhs_matrix`` of row ``i``
    of ``pad_voltage_matrix`` — minus row ``i`` of ``load_matrix`` at the
    unknown nodes (the grid's own loads when ``load_matrix`` is ``None``).
    Loads on pad nodes drop out: a pad fixes its node's voltage.  With
    neither matrix, the one column is the grid's own scenario.
    """
    if load_matrix is None:
        count = 1 if pad_voltage_matrix is None else len(pad_voltage_matrix)
        load_matrix = np.tile(compiled.base_loads, (count, 1))
    load_part = np.asarray(load_matrix, dtype=float)[:, compiled.unknown_sel].T
    if pad_voltage_matrix is None:
        return compiled.pad_rhs[:, None] - load_part
    return compiled.pad_rhs_matrix(pad_voltage_matrix) - load_part
