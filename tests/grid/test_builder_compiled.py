"""Differential tests of the mesh builder against its element-by-element reference.

``GridBuilder.build_compiled`` is the one mesh construction, and
``GridBuilder.build`` returns a network view over its arrays.
``reference_builder`` keeps the element-by-element construction they
replaced.  On ibmpg1, ibmpg2 (scale 0.5), ibmpgnew1 and random floorplans,
every compiled array and name, every materialised element, the netlist text
and the solved voltages must equal the reference bit for bit.
``resize_compiled`` / ``with_conductances`` must reproduce a fresh build
with the new widths bit for bit while sharing the frozen topology.
"""

import io
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import BatchedAnalysisEngine
from repro.grid import (
    CurrentSource,
    Floorplan,
    FunctionalBlock,
    GridBuilder,
    GridNode,
    GridTopology,
    NetlistWriter,
    NetworkPerturbator,
    PerturbationKind,
    PerturbationSpec,
    PowerPad,
    Resistor,
    SyntheticIBMSuite,
    generic_45nm,
)
from repro.grid.compiled import CompiledGrid

from .reference_builder import build_network

ARRAY_ATTRIBUTES = (
    "res_a",
    "res_b",
    "conductance",
    "res_width",
    "res_length",
    "res_line_id",
    "is_pad",
    "pad_voltage",
    "pad_node",
    "pad_voltage_values",
    "load_node",
    "load_current",
    "base_loads",
    "node_x",
    "node_y",
    "unknown_sel",
    "unknown_index",
    "pad_sel",
    "pad_rhs",
)

NAME_ATTRIBUTES = (
    "node_names",
    "unknown_nodes",
    "node_layers",
    "res_names",
    "res_layers",
    "pad_names",
    "load_names",
    "load_block",
)

ELEMENT_MAPPINGS = ("nodes", "resistors", "voltage_sources", "current_sources")

BENCHMARK_SCALES = {"ibmpg1": 1.0, "ibmpg2": 0.5, "ibmpgnew1": 1.0}


def assert_same_compiled(direct: CompiledGrid, reference: CompiledGrid) -> None:
    """Every array, matrix and name of two compiled grids is identical."""
    assert (direct.name, direct.vdd) == (reference.name, reference.vdd)
    assert direct.num_nodes == reference.num_nodes
    assert direct.num_resistors == reference.num_resistors
    assert direct.num_unknowns == reference.num_unknowns
    for attribute in ARRAY_ATTRIBUTES:
        ours, theirs = getattr(direct, attribute), getattr(reference, attribute)
        assert ours.dtype == theirs.dtype, attribute
        assert np.array_equal(ours, theirs), attribute
    ours, theirs = direct.reduced_matrix, reference.reduced_matrix
    for part in ("data", "indices", "indptr"):
        assert getattr(ours, part).dtype == getattr(theirs, part).dtype, part
        assert np.array_equal(getattr(ours, part), getattr(theirs, part)), part
    for attribute in NAME_ATTRIBUTES:
        assert getattr(direct, attribute) == getattr(reference, attribute), attribute
    assert direct.fingerprint == reference.fingerprint


def assert_same_elements(network, reference) -> None:
    """Two networks hold equal elements, under equal names, in equal order."""
    assert (network.name, network.vdd) == (reference.name, reference.vdd)
    for mapping in ELEMENT_MAPPINGS:
        ours, theirs = getattr(network, mapping), getattr(reference, mapping)
        assert list(ours.items()) == list(theirs.items()), mapping


def netlist_text(network) -> str:
    stream = io.StringIO()
    NetlistWriter().write(network, stream)
    return stream.getvalue()


def assert_same_voltages(direct: CompiledGrid, reference: CompiledGrid) -> None:
    """Separate engines, so neither solve reuses the other's factorization."""
    ours = BatchedAnalysisEngine().solve_voltages(direct)
    theirs = BatchedAnalysisEngine().solve_voltages(reference)
    assert np.array_equal(ours, theirs)


@pytest.fixture(scope="module", params=list(BENCHMARK_SCALES))
def benchmark_pair(request):
    """(benchmark, reference compiled, direct compiled) for three suite grids."""
    bench = SyntheticIBMSuite(scale=BENCHMARK_SCALES[request.param]).load(request.param)
    reference = build_network(
        bench.technology, bench.floorplan, bench.topology, 5.0, name=bench.name
    )
    builder = GridBuilder(bench.technology)
    direct = builder.build_compiled(bench.floorplan, bench.topology, 5.0, name=bench.name)
    return bench, reference.compile(), direct


class TestBuildCompiledEquivalence:
    def test_arrays_match_reference_path(self, benchmark_pair):
        _, reference, direct = benchmark_pair
        assert_same_compiled(direct, reference)

    def test_view_compiles_to_build_compiled(self, benchmark_pair):
        bench, _, direct = benchmark_pair
        view = bench.build_uniform_grid(5.0)
        assert_same_compiled(view.compile(), direct)

    def test_view_elements_and_netlist_match_reference(self, benchmark_pair):
        bench, _, _ = benchmark_pair
        reference = build_network(
            bench.technology, bench.floorplan, bench.topology, 5.0, name=bench.name
        )
        view = bench.build_uniform_grid(5.0)
        assert_same_elements(view, reference)
        assert netlist_text(view) == netlist_text(reference)

    def test_voltages_match_reference_path(self, benchmark_pair):
        _, reference, direct = benchmark_pair
        assert_same_voltages(direct, reference)

    def test_materialised_resistors_match(self, benchmark_pair):
        """The builder's own resistances, not ``1 / conductance``."""
        _, reference, direct = benchmark_pair
        assert direct.resistors == reference.resistors

    def test_conductance_clones_report_their_own_resistances(self, benchmark_pair):
        _, _, direct = benchmark_pair
        doubled = direct.with_conductances(direct.conductance * 2.0)
        resistances = np.array([resistor.resistance for resistor in doubled.resistors])
        assert np.array_equal(resistances, 1.0 / doubled.conductance)

    def test_width_validation(self, benchmark_pair):
        bench, _, _ = benchmark_pair
        builder = GridBuilder(bench.technology)
        with pytest.raises(ValueError):
            builder.build_compiled(bench.floorplan, bench.topology, [1.0, 2.0])
        with pytest.raises(ValueError):
            builder.build_compiled(bench.floorplan, bench.topology, -1.0)


_TECH = generic_45nm()


@st.composite
def mesh_cases(draw):
    """A random floorplan, uneven topology and per-line widths.

    Blocks may be narrower than the stripe pitch, and extra pads sit within
    a micron of another pad, so several pads snap to one node.
    """
    core = draw(st.floats(min_value=200.0, max_value=2000.0), label="core")

    def positions(axis: str) -> tuple[float, ...]:
        count = draw(st.integers(min_value=2, max_value=7), label=f"{axis}_lines")
        steps = draw(
            st.lists(
                st.floats(min_value=0.1, max_value=1.0), min_size=count + 1, max_size=count + 1
            ),
            label=f"{axis}_steps",
        )
        edges = np.cumsum(steps) / sum(steps) * core
        return tuple(float(value) for value in edges[:-1])

    vertical, horizontal = positions("v"), positions("h")
    topology = GridTopology(len(vertical), len(horizontal), vertical, horizontal)
    blocks = []
    for index in range(draw(st.integers(min_value=1, max_value=4), label="blocks")):
        width = draw(st.floats(min_value=1.0, max_value=core / 2), label=f"bw{index}")
        height = draw(st.floats(min_value=1.0, max_value=core / 2), label=f"bh{index}")
        x = draw(st.floats(min_value=0.0, max_value=core - width), label=f"bx{index}")
        y = draw(st.floats(min_value=0.0, max_value=core - height), label=f"by{index}")
        current = draw(st.floats(min_value=0.0, max_value=0.5), label=f"bi{index}")
        blocks.append(FunctionalBlock(f"b{index}", x, y, width, height, current))
    pads = []
    for index in range(draw(st.integers(min_value=1, max_value=3), label="pads")):
        px = draw(st.floats(min_value=0.0, max_value=core), label=f"px{index}")
        py = draw(st.floats(min_value=0.0, max_value=core), label=f"py{index}")
        voltage = draw(st.floats(min_value=0.9, max_value=1.1), label=f"pv{index}") * _TECH.vdd
        pads.append(PowerPad(f"p{index}", px, py, voltage))
        if draw(st.booleans(), label=f"twin{index}"):
            twin_x, twin_y = min(px + 0.5, core), max(py - 0.5, 0.0)
            pads.append(PowerPad(f"p{index}t", twin_x, twin_y, voltage * 0.95))
    floorplan = Floorplan("prop", core, core, blocks=blocks, pads=pads)
    widths = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=20.0),
            min_size=topology.num_lines,
            max_size=topology.num_lines,
        ),
        label="widths",
    )
    return floorplan, topology, widths


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mesh_cases())
def test_random_meshes_match_reference(case):
    floorplan, topology, widths = case
    reference = build_network(_TECH, floorplan, topology, widths)
    builder = GridBuilder(_TECH)
    direct = builder.build_compiled(floorplan, topology, widths)
    assert_same_compiled(direct, reference.compile())
    assert direct.resistors == reference.compile().resistors
    view = builder.build(floorplan, topology, widths)
    assert_same_elements(view, reference)
    assert netlist_text(view) == netlist_text(reference)
    assert_same_voltages(direct, reference.compile())


class TestNetworkView:
    """``build`` returns a view that materialises its objects only on demand."""

    @pytest.fixture()
    def view(self, technology, tiny_floorplan, tiny_topology):
        return GridBuilder(technology).build(tiny_floorplan, tiny_topology, 5.0)

    @pytest.fixture()
    def reference(self, technology, tiny_floorplan, tiny_topology):
        return build_network(technology, tiny_floorplan, tiny_topology, 5.0)

    def test_compile_constructs_no_element_objects(self, monkeypatch, small_benchmark):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} constructed")

        monkeypatch.setattr(GridNode, "__post_init__", refuse)
        monkeypatch.setattr(Resistor, "__post_init__", refuse)
        compiled = small_benchmark.build_uniform_grid(5.0).compile()
        assert compiled.reduced_matrix.shape == (compiled.num_unknowns,) * 2
        BatchedAnalysisEngine().analyze(compiled)

    def test_add_current_source_reaches_next_compile(self, view, reference):
        built = view.compile()
        node = built.node_names[0]
        extra = CurrentSource(name="Iextra", node=node, current=0.01, block="extra")
        view.add_current_source(extra)
        reference.add_current_source(extra)
        compiled = view.compile()
        assert compiled is not built
        assert compiled.load_names[-1] == "Iextra"
        assert compiled.base_loads[0] == built.base_loads[0] + 0.01
        assert_same_compiled(compiled, reference.compile())

    def test_copy_matches_reference(self, view, reference):
        assert_same_elements(view.copy(name="c"), reference.copy(name="c"))

    def test_with_scaled_loads_matches_reference(self, view, reference):
        assert_same_elements(view.with_scaled_loads(1.5), reference.with_scaled_loads(1.5))

    def test_replace_loads_matches_reference(self, view, reference):
        loads = [CurrentSource("Inew", next(iter(reference.nodes)), 0.02)]
        assert_same_elements(view.replace_loads(loads), reference.replace_loads(loads))

    def test_perturbator_matches_reference(self, view, reference):
        perturbator = NetworkPerturbator(
            PerturbationSpec(gamma=0.2, kind=PerturbationKind.BOTH, seed=3)
        )
        assert_same_elements(perturbator.perturb(view), perturbator.perturb(reference))

    def test_pickle_round_trip_matches_reference(self, view, reference):
        restored = pickle.loads(pickle.dumps(view))
        assert_same_compiled(restored.compile(), view.compile())
        assert_same_elements(restored, reference)

    def test_statistics_match_reference(self, view, reference):
        assert view.statistics() == reference.statistics()


class TestResizeCompiled:
    @pytest.fixture(scope="class")
    def setup(self):
        bench = SyntheticIBMSuite().load("ibmpg1")
        builder = GridBuilder(bench.technology)
        base = builder.build_compiled(bench.floorplan, bench.topology, 5.0)
        base.reduced_matrix  # populate the shared sparsity pattern
        rng = np.random.default_rng(7)
        new_widths = 5.0 * rng.uniform(1.0, 2.0, size=bench.topology.num_lines)
        return bench, builder, base, new_widths

    def test_resize_matches_fresh_build(self, setup):
        bench, builder, base, new_widths = setup
        resized = builder.resize_compiled(base, bench.topology, new_widths)
        rebuilt = builder.build_compiled(bench.floorplan, bench.topology, new_widths)
        assert np.array_equal(resized.conductance, rebuilt.conductance)
        assert np.array_equal(resized.res_width, rebuilt.res_width)
        assert resized.fingerprint == rebuilt.fingerprint
        a, b = resized.reduced_matrix, rebuilt.reduced_matrix
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_resize_shares_frozen_topology(self, setup):
        bench, builder, base, new_widths = setup
        resized = builder.resize_compiled(base, bench.topology, new_widths)
        assert resized.res_a is base.res_a
        assert resized.unknown_sel is base.unknown_sel
        assert resized._pattern_box is base._pattern_box
        assert resized.base_loads is base.base_loads
        # Value-dependent state must not be shared.
        assert resized.conductance is not base.conductance
        assert resized.fingerprint != base.fingerprint

    def test_resize_leaves_vias_untouched(self, setup):
        bench, builder, base, new_widths = setup
        resized = builder.resize_compiled(base, bench.topology, new_widths)
        vias = base.res_line_id < 0
        assert np.array_equal(resized.conductance[vias], base.conductance[vias])
        assert np.array_equal(resized.res_width[vias], base.res_width[vias])

    def test_with_conductances_validation(self, setup):
        _, _, base, _ = setup
        with pytest.raises(ValueError):
            base.with_conductances(np.ones(3))
        bad = base.conductance.copy()
        bad[0] = 0.0
        with pytest.raises(ValueError):
            base.with_conductances(bad)
        with pytest.raises(ValueError):
            base.with_conductances(base.conductance, res_width=np.ones(3))

    def test_with_conductances_on_network_built_grid(self, tiny_grid):
        """The update path also works for grids compiled from a network."""
        compiled = CompiledGrid(tiny_grid)
        compiled.reduced_matrix
        doubled = compiled.with_conductances(compiled.conductance * 2.0)
        assert doubled.fingerprint != compiled.fingerprint
        dense = doubled.reduced_matrix.toarray()
        np.testing.assert_allclose(dense, 2.0 * compiled.reduced_matrix.toarray(), rtol=1e-12)
        # Lazy views survive the clone (names are value-independent).
        assert doubled.res_names == compiled.res_names
        assert doubled.node_layers == compiled.node_layers
        assert doubled.resistors[0].resistance == pytest.approx(
            compiled.resistors[0].resistance / 2.0
        )
