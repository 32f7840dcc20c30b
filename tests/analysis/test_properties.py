"""Property-based tests of the analysis engine's physical invariants.

These tests generate random small power grids with hypothesis — uniform
meshes and uneven ones, with different strap counts per direction and
jittered strap positions — and run every engine entry point over them:
:meth:`~repro.analysis.BatchedAnalysisEngine.analyze`, ``analyze_batch``,
``analyze_pad_batch`` and ``analyze_mega_sweep``.  Each must agree with an
independent dense solve (:mod:`tests.dense_oracle`) and satisfy the
properties any correct static IR-drop engine must: voltage bounds,
Kirchhoff's current law, linearity in the loads (superposition),
monotonicity in wire width, and conservation of current at the pads.
The mega sweep is also checked under every executor shape, and chained
resized clones against the same oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BatchedAnalysisEngine, HybridExecutor
from repro.grid import (
    Floorplan,
    FunctionalBlock,
    GridBuilder,
    GridTopology,
    PowerPad,
    SyntheticIBMSuite,
    generic_45nm,
    uniform_topology,
)

from ..dense_oracle import reference_voltages
from .test_sinks import VoltageRecorder

_TECH = generic_45nm()

ENTRY_POINTS = ("analyze", "analyze_batch", "analyze_pad_batch", "analyze_mega_sweep")

ORACLE_TOLERANCE = 1e-9

SHARDED_SHAPES = ((1, 2), (2, 1), (2, 2))
"""``(shard_workers, threads_per_shard)`` shapes checked against ``serial``."""


def _random_floorplan(data: st.DataObject) -> Floorplan:
    """Draw a small random floorplan with 1-4 blocks and 1-4 pads."""
    core = data.draw(st.floats(min_value=500.0, max_value=2000.0), label="core")
    num_blocks = data.draw(st.integers(min_value=1, max_value=4), label="num_blocks")
    blocks = []
    for index in range(num_blocks):
        width = data.draw(st.floats(min_value=core * 0.1, max_value=core * 0.4), label=f"bw{index}")
        height = data.draw(
            st.floats(min_value=core * 0.1, max_value=core * 0.4), label=f"bh{index}"
        )
        x = data.draw(st.floats(min_value=0.0, max_value=core - width), label=f"bx{index}")
        y = data.draw(st.floats(min_value=0.0, max_value=core - height), label=f"by{index}")
        current = data.draw(st.floats(min_value=0.01, max_value=0.5), label=f"bi{index}")
        blocks.append(FunctionalBlock(f"b{index}", x, y, width, height, current))
    num_pads = data.draw(st.integers(min_value=1, max_value=4), label="num_pads")
    pads = []
    for index in range(num_pads):
        px = data.draw(st.floats(min_value=0.0, max_value=core), label=f"px{index}")
        py = data.draw(st.floats(min_value=0.0, max_value=core), label=f"py{index}")
        pads.append(PowerPad(f"p{index}", px, py, _TECH.vdd))
    return Floorplan("prop", core, core, blocks=blocks, pads=pads)


def _strap_positions(data: st.DataObject, span: float, axis: str) -> tuple[float, ...]:
    """Strap centres spaced like an even PDN, then jittered line by line.

    ``n`` straps of width ``w`` leave ``pitch = (span - n*w) / (n + 1)``
    between neighbours and the core edges; each centre then moves by up to
    0.4 pitch, which keeps the straps ordered and inside the core.
    """
    count = data.draw(st.integers(min_value=2, max_value=7), label=f"{axis}_straps")
    width = data.draw(st.floats(min_value=1.0, max_value=20.0), label=f"{axis}_width")
    jitter = data.draw(
        st.lists(st.floats(min_value=-0.4, max_value=0.4), min_size=count, max_size=count),
        label=f"{axis}_jitter",
    )
    pitch = (span - count * width) / (count + 1)
    return tuple(
        pitch + index * (pitch + width) + width / 2 + shift * pitch
        for index, shift in enumerate(jitter)
    )


def _random_topology(data: st.DataObject, floorplan: Floorplan) -> GridTopology:
    """A uniform 6x6 mesh, or an uneven one with its own strap count per direction."""
    if not data.draw(st.booleans(), label="uneven"):
        return uniform_topology(floorplan, 6, 6)
    vertical = _strap_positions(data, floorplan.core_width, "v")
    horizontal = _strap_positions(data, floorplan.core_height, "h")
    return GridTopology(len(vertical), len(horizontal), vertical, horizontal)


def _build(floorplan: Floorplan, topology: GridTopology, width: float = 5.0):
    return GridBuilder(_TECH).build(floorplan, topology, width)


def _mega_sweep(network, load_rows, pad_rows, executor=None):
    """One mega sweep recording every voltage: ``(reductions, voltages)``."""
    recorder = VoltageRecorder()
    result = BatchedAnalysisEngine().analyze_mega_sweep(
        network, load_rows, pad_rows, chunk_size=3, sinks=[recorder], executor=executor
    )
    return result.reductions, recorder.result().T


def _solve(entry: str, network, load_rows: np.ndarray, pad_rows: np.ndarray):
    """Solve the (load row, pad row) scenarios one entry point supports.

    ``analyze`` and ``analyze_batch`` keep the grid's own pad voltages, so
    they solve every load row at the nominal pad row only; the pad entry
    points solve the full cross product.

    Returns:
        ``(loads, pads, voltages)``: per-scenario rows of shape
        ``(L, P, num_nodes)``, ``(L, P, num_pads)`` and ``(L, P, num_nodes)``,
        loads outer and pads inner.
    """
    compiled = network.compile()
    engine = BatchedAnalysisEngine()
    if entry in ("analyze", "analyze_batch"):
        pad_rows = compiled.pad_voltage_values[None, :]
    num_loads, num_pads = len(load_rows), len(pad_rows)
    loads = np.repeat(load_rows, num_pads, axis=0)
    pads = np.tile(pad_rows, (num_loads, 1))
    if entry == "analyze":
        voltages = np.array(
            [
                compiled.voltage_array(engine.analyze(network, loads=row).node_voltages)
                for row in loads
            ]
        )
    elif entry == "analyze_batch":
        batch = engine.analyze_batch(network, loads)
        voltages = np.array([batch.scenario_voltages(k) for k in range(len(loads))])
    elif entry == "analyze_pad_batch":
        batch = engine.analyze_pad_batch(network, pads, load_matrix=loads)
        voltages = np.array([batch.scenario_voltages(k) for k in range(len(loads))])
    else:
        voltages = _mega_sweep(network, load_rows, pad_rows)[1]
    shape = (num_loads, num_pads)
    return (
        loads.reshape(*shape, -1),
        pads.reshape(*shape, -1),
        voltages.reshape(*shape, -1),
    )


def _scenario_inputs(data: st.DataObject, network):
    """Two random non-negative load rows, their combination and zero; two pad rows.

    Returns ``(load_rows, pad_rows, (a, b))`` where load row 2 is
    ``a * row 0 + b * row 1`` and load row 3 is all zeros.  Pad row 0 is
    nominal; pad row 1 lowers every pad by up to 5 %.
    """
    compiled = network.compile()
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    a = data.draw(st.floats(min_value=0.1, max_value=3.0), label="a")
    b = data.draw(st.floats(min_value=0.1, max_value=3.0), label="b")
    rng = np.random.default_rng(seed)
    base = compiled.base_loads
    # Row 1 spreads current over every node, pad nodes included: loads on
    # pad nodes must not enter the solve on any path.
    first = base * rng.uniform(0.5, 1.5, base.size)
    second = rng.uniform(0.0, 2.0 * base.mean(), base.size)
    load_rows = np.vstack((first, second, a * first + b * second, np.zeros(base.size)))
    nominal = compiled.pad_voltage_values
    pad_rows = np.vstack((nominal, nominal * rng.uniform(0.95, 1.0, nominal.size)))
    return load_rows, pad_rows, (a, b)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_entry_point_matches_the_dense_oracle(data):
    """Voltages agree with an independent dense solve and never exceed the
    scenario's highest pad voltage (every load is non-negative)."""
    floorplan = _random_floorplan(data)
    network = _build(floorplan, _random_topology(data, floorplan))
    load_rows, pad_rows, _ = _scenario_inputs(data, network)
    for entry in ENTRY_POINTS:
        loads, pads, voltages = _solve(entry, network, load_rows, pad_rows)
        num_nodes, num_pads = loads.shape[-1], pads.shape[-1]
        expected = reference_voltages(
            network, loads.reshape(-1, num_nodes), pads.reshape(-1, num_pads)
        )
        difference = np.abs(voltages.reshape(-1, num_nodes) - expected).max()
        assert difference <= ORACLE_TOLERANCE, entry
        assert np.all(voltages <= pads.max(axis=-1, keepdims=True) + 1e-9), entry


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kcl_and_pad_current_conservation_per_scenario(data):
    """Kirchhoff's current law holds at every non-pad node against the
    scenario's own loads, and the pads deliver exactly the total load."""
    floorplan = _random_floorplan(data)
    network = _build(floorplan, _random_topology(data, floorplan))
    compiled = network.compile()
    load_rows, pad_rows, _ = _scenario_inputs(data, network)
    for entry in ENTRY_POINTS:
        loads, _, voltages = _solve(entry, network, load_rows, pad_rows)
        for scenario_loads, scenario_voltages in zip(
            loads.reshape(-1, compiled.num_nodes), voltages.reshape(-1, compiled.num_nodes)
        ):
            outflow = compiled.node_outflow(compiled.branch_current_array(scenario_voltages))
            residual = -outflow - scenario_loads
            assert np.abs(residual[~compiled.is_pad]).max() < 1e-7, entry
            delivered = (outflow + scenario_loads)[compiled.pad_sel].sum()
            assert delivered == pytest.approx(scenario_loads.sum(), rel=1e-6, abs=1e-12), entry


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_superposition_in_load_currents(data):
    """Voltages are affine in the loads (the grid is a linear circuit):
    ``V(a*L1 + b*L2) - V(0) = a*(V(L1) - V(0)) + b*(V(L2) - V(0))`` for
    every pad row."""
    floorplan = _random_floorplan(data)
    network = _build(floorplan, _random_topology(data, floorplan))
    load_rows, pad_rows, (a, b) = _scenario_inputs(data, network)
    for entry in ENTRY_POINTS:
        _, _, voltages = _solve(entry, network, load_rows, pad_rows)
        first, second, combined, unloaded = voltages
        expected = a * (first - unloaded) + b * (second - unloaded)
        np.testing.assert_allclose(combined - unloaded, expected, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_wider_wires_never_increase_worst_drop(data):
    """Uniformly widening every wire can only reduce the worst-case IR drop."""
    floorplan = _random_floorplan(data)
    topology = _random_topology(data, floorplan)
    narrow = _build(floorplan, topology, width=2.0)
    wide = _build(floorplan, topology, width=8.0)
    load_rows = narrow.compile().base_loads[None, :]
    pad_rows = narrow.compile().pad_voltage_values[None, :]
    for entry in ENTRY_POINTS:
        _, _, narrow_voltages = _solve(entry, narrow, load_rows, pad_rows)
        _, _, wide_voltages = _solve(entry, wide, load_rows, pad_rows)
        narrow_worst = (_TECH.vdd - narrow_voltages).max()
        wide_worst = (_TECH.vdd - wide_voltages).max()
        assert wide_worst <= narrow_worst + 1e-12, entry


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mega_sweep_under_every_executor_shape(data):
    """Serial, threaded, sharded and hybrid sweeps all agree with the dense
    oracle, and each reproduces the serial shape's reductions and recorded
    voltages bitwise."""
    floorplan = _random_floorplan(data)
    network = _build(floorplan, _random_topology(data, floorplan))
    load_rows, pad_rows, _ = _scenario_inputs(data, network)
    expected = reference_voltages(
        network,
        np.repeat(load_rows, len(pad_rows), axis=0),
        np.tile(pad_rows, (len(load_rows), 1)),
    )
    serial_reductions, serial_voltages = _mega_sweep(network, load_rows, pad_rows, "serial")
    assert np.abs(serial_voltages - expected).max() <= ORACLE_TOLERANCE
    for shards, threads in SHARDED_SHAPES:
        reductions, voltages = _mega_sweep(
            network, load_rows, pad_rows, HybridExecutor(shards, threads)
        )
        shape = f"{shards}x{threads}"
        assert np.abs(voltages - expected).max() <= ORACLE_TOLERANCE, shape
        np.testing.assert_array_equal(voltages, serial_voltages, err_msg=shape)
        for field in ("worst_ir_drop", "average_ir_drop", "worst_node_index"):
            np.testing.assert_array_equal(
                getattr(reductions, field), getattr(serial_reductions, field), err_msg=shape
            )


def test_chained_resized_clones_match_the_dense_oracle():
    """A one-line resize (27 branches changed on ibmpg1), then four more
    lines resized from that clone (135 changed against the first grid):
    each clone is factored fresh from its own matrix and stays within
    1e-9 V of the dense oracle."""
    bench = SyntheticIBMSuite().load("ibmpg1")
    builder = GridBuilder(bench.technology)
    floorplan, topology = bench.floorplan, bench.topology
    engine = BatchedAnalysisEngine()
    widths = np.full(topology.num_lines, 5.0)
    first = previous = builder.build_compiled(floorplan, topology, widths)
    engine.analyze(previous)
    steps = (({0: 7.0}, 27), ({3: 6.0, 10: 4.0, 20: 8.0, 30: 3.0}, 135))
    for resize, changed in steps:
        widths = widths.copy()
        widths[list(resize)] = list(resize.values())
        clone = builder.resize_compiled(previous, topology, widths)
        assert np.count_nonzero(clone.conductance != first.conductance) == changed
        expected = reference_voltages(builder.build(floorplan, topology, widths))
        assert np.abs(engine.solve_voltages(clone) - expected).max() <= ORACLE_TOLERANCE
        previous = clone
    info = engine.cache_info()
    assert (info.factorizations, info.hits) == (3, 0)
