"""Tests for the array-backed CompiledGrid layer."""

import numpy as np
import pytest

from repro.analysis import BatchedAnalysisEngine, MatrixScenarioSource
from repro.analysis.engine import _PairedLayout
from repro.grid import (
    GROUND_NODE,
    CompiledGrid,
    CurrentSource,
    GridNode,
    NetworkPerturbator,
    PerturbationKind,
    PerturbationSpec,
    PowerGridNetwork,
    Resistor,
    SyntheticIBMSuite,
    VoltageSource,
    compile_grid,
    node_name,
)

from ..dense_oracle import reference_assemble
from ..reference_rhs import reference_rhs


def awkward_network():
    """A small grid exercising every stamping corner case at once."""
    network = PowerGridNetwork(name="awkward", vdd=1.2)
    for name in ("p1", "p2", "a", "b", "c"):
        network.add_node(GridNode(name=name, x=0.0, y=0.0))
    network.add_voltage_source(VoltageSource(name="V1", node="p1", voltage=1.2))
    network.add_voltage_source(VoltageSource(name="V2", node="p2", voltage=1.1))
    network.add_resistor(Resistor(name="Rpp", node_a="p1", node_b="p2", resistance=1.0))
    network.add_resistor(Resistor(name="Rpa", node_a="p1", node_b="a", resistance=2.0))
    network.add_resistor(Resistor(name="Rab", node_a="a", node_b="b", resistance=3.0))
    network.add_resistor(Resistor(name="Rbc", node_a="b", node_b="c", resistance=4.0))
    network.add_resistor(Resistor(name="Rcp", node_a="c", node_b="p2", resistance=5.0))
    network.add_resistor(Resistor(name="Rg", node_a="b", node_b=GROUND_NODE, resistance=50.0))
    network.add_resistor(Resistor(name="Rgp", node_a="p1", node_b=GROUND_NODE, resistance=60.0))
    network.add_current_source(CurrentSource(name="I1", node="c", current=0.02))
    network.add_current_source(CurrentSource(name="I2", node="c", current=0.01))
    network.add_current_source(CurrentSource(name="Ipad", node="p1", current=0.5))
    return network


def voltage_divider():
    """Pad -- R1 (1 ohm) -- middle -- R2 (2 ohm) -- sink, 0.1 A load at sink."""
    network = PowerGridNetwork(name="divider", vdd=1.0)
    for name in ("pad", "middle", "sink"):
        network.add_node(GridNode(name=name, x=0.0, y=0.0))
    network.add_resistor(Resistor(name="R1", node_a="pad", node_b="middle", resistance=1.0))
    network.add_resistor(Resistor(name="R2", node_a="middle", node_b="sink", resistance=2.0))
    network.add_voltage_source(VoltageSource(name="V1", node="pad", voltage=1.0))
    network.add_current_source(CurrentSource(name="I1", node="sink", current=0.1))
    return network


class TestStamping:
    """Hand-checkable stamps of the reduced system, independent of the reference."""

    def test_unknowns_exclude_pad_nodes(self):
        compiled = compile_grid(voltage_divider())
        assert list(compiled.unknown_nodes) == ["middle", "sink"]
        assert compiled.pad_voltage[compiled.node_index["pad"]] == 1.0

    def test_matrix_is_symmetric(self, tiny_grid):
        matrix = compile_grid(tiny_grid).reduced_matrix
        np.testing.assert_allclose((matrix - matrix.T).toarray(), 0.0, atol=1e-12)

    def test_matrix_diagonal_positive(self, tiny_grid):
        assert np.all(compile_grid(tiny_grid).reduced_matrix.diagonal() > 0)

    def test_rhs_contains_loads_and_pad_contributions(self):
        compiled = compile_grid(voltage_divider())
        index = {name: i for i, name in enumerate(compiled.unknown_nodes)}
        # middle node: pad contribution = G1 * vdd = 1.0; sink: -load
        rhs = reference_rhs(compiled)[:, 0]
        assert rhs[index["middle"]] == pytest.approx(1.0)
        assert rhs[index["sink"]] == pytest.approx(-0.1)

    def test_ground_resistor_stamped_on_diagonal(self):
        network = voltage_divider()
        network.add_resistor(Resistor(name="Rg", node_a="sink", node_b="0", resistance=10.0))
        compiled = compile_grid(network)
        assert compiled.ground_connected
        sink = list(compiled.unknown_nodes).index("sink")
        plain = compile_grid(voltage_divider())
        # the diagonal gains 1/10
        assert compiled.reduced_matrix[sink, sink] == pytest.approx(
            plain.reduced_matrix[sink, sink] + 0.1
        )


class TestCompilation:
    def test_sizes_match_network(self, tiny_grid):
        compiled = compile_grid(tiny_grid)
        stats = tiny_grid.statistics()
        assert compiled.num_nodes == stats.num_nodes
        assert compiled.num_resistors == stats.num_resistors
        assert len(compiled.load_names) == stats.num_loads
        assert compiled.num_unknowns == stats.num_nodes - len(tiny_grid.pad_nodes())

    def test_matrix_matches_reference_assembler(self, tiny_grid):
        compiled = compile_grid(tiny_grid)
        matrix, rhs, unknown = reference_assemble(tiny_grid)
        assert list(compiled.unknown_nodes) == unknown
        np.testing.assert_allclose(compiled.reduced_matrix.toarray(), matrix, atol=1e-15)
        np.testing.assert_allclose(reference_rhs(compiled)[:, 0], rhs, atol=1e-15)

    def test_corner_cases_match_reference_assembler(self):
        network = awkward_network()
        compiled = compile_grid(network)
        matrix, rhs, unknown = reference_assemble(network)
        assert list(compiled.unknown_nodes) == unknown
        assert compiled.ground_connected
        np.testing.assert_allclose(compiled.reduced_matrix.toarray(), matrix, atol=1e-15)
        np.testing.assert_allclose(reference_rhs(compiled)[:, 0], rhs, atol=1e-15)

    def test_base_loads_aggregate_per_node(self):
        network = awkward_network()
        compiled = compile_grid(network)
        c = compiled.node_index["c"]
        assert compiled.base_loads[c] == pytest.approx(0.03)
        assert compiled.base_loads[compiled.node_index["p1"]] == pytest.approx(0.5)


class TestCompileCache:
    def test_compile_is_cached(self, tiny_grid):
        assert tiny_grid.compile() is tiny_grid.compile()

    def test_cache_invalidated_by_mutation(self):
        network = awkward_network()
        first = network.compile()
        network.add_node(GridNode(name="extra", x=1.0, y=1.0))
        network.add_resistor(Resistor(name="Rx", node_a="a", node_b="extra", resistance=1.0))
        second = network.compile()
        assert first is not second
        assert second.num_nodes == first.num_nodes + 1

    def test_copy_does_not_share_compiled_form(self):
        network = awkward_network()
        compiled = network.compile()
        clone = network.with_scaled_loads(2.0)
        assert clone.compile() is not compiled
        np.testing.assert_allclose(clone.compile().base_loads, 2.0 * compiled.base_loads)


class TestFingerprint:
    def test_load_change_keeps_fingerprint(self):
        network = awkward_network()
        scaled = network.with_scaled_loads(3.0)
        assert network.compile().fingerprint == scaled.compile().fingerprint

    def test_pad_voltage_change_keeps_fingerprint(self):
        network = awkward_network()
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.NODE_VOLTAGES, seed=7)
        perturbed = NetworkPerturbator(spec).perturb(network)
        assert network.compile().fingerprint == perturbed.compile().fingerprint

    def test_resistance_change_changes_fingerprint(self):
        network = awkward_network()
        other = awkward_network()
        other._resistors = dict(other._resistors)
        other._resistors["Rab"] = Resistor(name="Rab", node_a="a", node_b="b", resistance=3.5)
        other._compiled = None
        assert network.compile().fingerprint != other.compile().fingerprint

    def test_pad_set_change_changes_fingerprint(self):
        network = awkward_network()
        other = awkward_network()
        other.add_voltage_source(VoltageSource(name="V3", node="a", voltage=1.2))
        assert network.compile().fingerprint != other.compile().fingerprint


class _EchoFactorization:
    """Solves nothing: each right-hand side comes back as its solution, copied in ``order``."""

    def __init__(self, order):
        self.order = order

    def solve(self, rhs):
        return np.array(rhs, order=self.order)


class _EchoBackend:
    """A ``solver_backend`` whose factorizations echo their right-hand sides."""

    name = "echo"

    def __init__(self, order):
        self.order = order

    def factor(self, matrix):
        return _EchoFactorization(self.order)


class TestSolutionHelpers:
    def test_solve_layout_rows_match_full_voltages(self):
        """Solved slices and their pad voltages written into node-order
        rows (the engine's ``_solve_node_rows``) equal the per-node
        voltages scattered one by one, bitwise, from either solution
        layout and across slice boundaries (37 rows, three slices); a
        second pad on one node wins over the first."""
        network = awkward_network()
        network.add_voltage_source(VoltageSource(name="V3", node="p1", voltage=1.3))
        compiled = compile_grid(network)
        rng = np.random.default_rng(7)
        count = 37
        unknown = rng.random((count, compiled.num_unknowns))
        pads = rng.random((count, len(compiled.pad_node)))
        expected = np.zeros((count, compiled.num_nodes))
        expected[:, compiled.unknown_sel] = unknown
        for column, node in enumerate(compiled.pad_node):
            expected[:, node] = pads[:, column]  # a later pad on a node wins
        pad_voltages = compiled.pad_node_voltages(pads)
        assert np.array_equal(pad_voltages, expected[:, compiled.pad_sel])
        assert np.array_equal(pad_voltages[:, 0], pads[:, 2])
        for order in ("F", "C"):
            engine = BatchedAnalysisEngine()
            engine.solver_backend = _EchoBackend(order)
            out = np.full((count, compiled.num_nodes), np.nan)
            finite = np.zeros((count, compiled.num_unknowns), dtype=bool)
            engine._solve_node_rows(compiled, unknown, pad_voltages, out, finite)
            assert np.array_equal(out, expected)
            assert finite.all()

    def test_rhs_matrix_matches_single_rhs(self):
        """The engine's RHS assembly writes each scenario's right-hand side
        on its own: five stacked rows equal each row assembled alone, bit
        for bit, and the reference right-hand sides."""
        compiled = compile_grid(awkward_network())
        rng = np.random.default_rng(3)
        loads = rng.random((5, compiled.num_nodes))
        pads = rng.random((5, len(compiled.pad_node)))
        layout = _PairedLayout(compiled, MatrixScenarioSource(loads, pads))
        stacked = np.empty((5, compiled.num_unknowns))
        layout.assemble((loads, pads), stacked)
        for k in range(5):
            single = np.empty((1, compiled.num_unknowns))
            layout.assemble((loads[k, None], pads[k, None]), single)
            assert np.array_equal(stacked[k], single[0])
        np.testing.assert_allclose(stacked.T, reference_rhs(compiled, loads, pads), atol=1e-15)

    def test_branch_current_array_obeys_ohms_law(self, tiny_grid):
        compiled = tiny_grid.compile()
        rng = np.random.default_rng(5)
        voltages = rng.random(compiled.num_nodes)
        currents = compiled.branch_current_array(voltages)
        lookup = dict(zip(compiled.node_names, voltages))
        for resistor, current in zip(compiled.resistors, currents):
            va = lookup.get(resistor.node_a, 0.0)
            vb = lookup.get(resistor.node_b, 0.0)
            assert current == pytest.approx((va - vb) / resistor.resistance)

    def test_rhs_rejects_bad_shapes(self):
        """Load rows of the wrong width are rejected before any right-hand
        side is assembled."""
        compiled = compile_grid(awkward_network())
        engine = BatchedAnalysisEngine()
        wrong = np.zeros((2, compiled.num_nodes + 1))
        with pytest.raises(ValueError, match=r"got shape \(2, 6\)"):
            engine.analyze_batch(compiled, wrong)
        with pytest.raises(ValueError, match=r"got shape \(2, 6\)"):
            engine.analyze_pad_batch(
                compiled, np.ones((2, len(compiled.pad_node))), load_matrix=wrong
            )

    def test_isinstance_of_compiled_grid(self, tiny_grid):
        assert isinstance(tiny_grid.compile(), CompiledGrid)


@pytest.fixture(scope="module", params=SyntheticIBMSuite().names())
def suite_grid(request):
    """Every suite grid at uniform 5 um, compiled by the array builder."""
    return SyntheticIBMSuite().load(request.param).build_uniform_grid(5.0).compile()


def test_array_built_names_match_per_node_formatting(suite_grid):
    """An array-built grid formats each distinct coordinate once; its names
    equal ``node_name`` applied node by node, and clones share them."""
    expected = tuple(
        node_name(int(layer), float(x), float(y))
        for layer, x, y in zip(suite_grid._node_layer_index, suite_grid.node_x, suite_grid.node_y)
    )
    assert suite_grid.node_names == expected
    assert len(set(expected)) == suite_grid.num_nodes
    clone = suite_grid.with_conductances(suite_grid.conductance * 1.5)
    assert clone.node_names is suite_grid.node_names
