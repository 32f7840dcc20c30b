"""Tests for the PowerGridNetwork container."""

import pytest

from repro.grid import CurrentSource, GridNode, PowerGridNetwork, Resistor, VoltageSource


def make_chain(num_nodes: int = 4, vdd: float = 1.0) -> PowerGridNetwork:
    """A simple resistor chain with a pad on the first node and a load on the last."""
    network = PowerGridNetwork(name="chain", vdd=vdd)
    for index in range(num_nodes):
        network.add_node(GridNode(name=f"n{index}", x=float(index), y=0.0))
    for index in range(num_nodes - 1):
        network.add_resistor(
            Resistor(name=f"R{index}", node_a=f"n{index}", node_b=f"n{index + 1}", resistance=1.0)
        )
    network.add_voltage_source(VoltageSource(name="V1", node="n0", voltage=vdd))
    network.add_current_source(CurrentSource(name="I1", node=f"n{num_nodes - 1}", current=0.01))
    return network


class TestConstruction:
    def test_statistics_match_element_counts(self):
        network = make_chain(5)
        stats = network.statistics()
        assert stats.as_row() == (5, 4, 1, 1)

    def test_adding_same_node_twice_is_idempotent(self):
        network = PowerGridNetwork()
        node = GridNode(name="a", x=0.0, y=0.0)
        network.add_node(node)
        network.add_node(node)
        assert len(network) == 1

    def test_adding_conflicting_node_raises(self):
        network = PowerGridNetwork()
        network.add_node(GridNode(name="a", x=0.0, y=0.0))
        with pytest.raises(ValueError):
            network.add_node(GridNode(name="a", x=1.0, y=0.0))

    def test_resistor_requires_existing_nodes(self):
        network = PowerGridNetwork()
        network.add_node(GridNode(name="a", x=0.0, y=0.0))
        with pytest.raises(ValueError):
            network.add_resistor(Resistor(name="R1", node_a="a", node_b="missing", resistance=1.0))

    def test_resistor_to_ground_is_allowed(self):
        network = PowerGridNetwork()
        network.add_node(GridNode(name="a", x=0.0, y=0.0))
        network.add_resistor(Resistor(name="R1", node_a="a", node_b="0", resistance=1.0))
        assert len(network.resistors) == 1

    def test_duplicate_element_names_raise(self):
        network = make_chain(3)
        with pytest.raises(ValueError):
            network.add_resistor(Resistor(name="R0", node_a="n0", node_b="n2", resistance=1.0))
        with pytest.raises(ValueError):
            network.add_voltage_source(VoltageSource(name="V1", node="n1", voltage=1.0))
        with pytest.raises(ValueError):
            network.add_current_source(CurrentSource(name="I1", node="n1", current=0.1))

    def test_rejects_nonpositive_vdd(self):
        with pytest.raises(ValueError):
            PowerGridNetwork(vdd=0.0)


class TestDerivedQuantities:
    def test_total_load_current(self):
        network = make_chain(3)
        network.add_current_source(CurrentSource(name="I2", node="n1", current=0.02))
        assert network.total_load_current() == pytest.approx(0.03)

    def test_load_by_node_aggregates(self):
        network = make_chain(3)
        network.add_current_source(CurrentSource(name="I2", node="n2", current=0.02))
        assert network.load_by_node()["n2"] == pytest.approx(0.03)

    def test_pad_nodes(self):
        network = make_chain(3)
        assert network.pad_nodes() == {"n0"}

    def test_node_index_is_stable_and_dense(self):
        network = make_chain(4)
        index = network.node_index()
        assert sorted(index.values()) == list(range(4))
        assert network.node_index() is index  # cached

    def test_node_index_invalidated_by_new_node(self):
        network = make_chain(3)
        first = network.node_index()
        network.add_node(GridNode(name="extra", x=9.0, y=9.0))
        assert len(network.node_index()) == len(first) + 1

    def test_lines_groups_by_line_id(self):
        network = PowerGridNetwork()
        for name in ("a", "b", "c"):
            network.add_node(GridNode(name=name, x=0.0, y=0.0))
        network.add_resistor(Resistor(name="R1", node_a="a", node_b="b", resistance=1.0, line_id=0))
        network.add_resistor(Resistor(name="R2", node_a="b", node_b="c", resistance=1.0, line_id=0))
        network.add_resistor(
            Resistor(name="R3", node_a="a", node_b="c", resistance=1.0, line_id=-1)
        )
        lines = network.lines()
        assert set(lines) == {0}
        assert len(lines[0]) == 2

    def test_is_connected_to_pads_true_for_chain(self):
        assert make_chain(4).is_connected_to_pads()

    def test_is_connected_to_pads_false_for_island(self):
        network = make_chain(3)
        network.add_node(GridNode(name="island", x=99.0, y=99.0))
        assert not network.is_connected_to_pads()

    def test_is_connected_to_pads_through_ground(self):
        """Ground is a vertex once a resistor names it, so a node whose only
        path to a pad runs through ground still counts as connected."""
        network = make_chain(3)
        network.add_node(GridNode(name="leaf", x=9.0, y=9.0))
        network.add_resistor(Resistor(name="Rg0", node_a="n0", node_b="0", resistance=1.0))
        assert not network.is_connected_to_pads()
        network.add_resistor(Resistor(name="Rg1", node_a="0", node_b="leaf", resistance=1.0))
        assert network.is_connected_to_pads()

    def test_is_connected_to_pads_false_without_pads(self):
        network = PowerGridNetwork()
        network.add_node(GridNode(name="a", x=0.0, y=0.0))
        assert not network.is_connected_to_pads()


class TestCopyAndModification:
    def test_copy_is_independent(self):
        network = make_chain(3)
        clone = network.copy()
        clone.add_node(GridNode(name="new", x=5.0, y=5.0))
        assert "new" not in network

    def test_with_scaled_loads(self):
        network = make_chain(3)
        scaled = network.with_scaled_loads(2.0)
        assert scaled.total_load_current() == pytest.approx(2.0 * network.total_load_current())
        assert network.total_load_current() == pytest.approx(0.01)

    def test_replace_loads(self):
        network = make_chain(3)
        replaced = network.replace_loads(
            [CurrentSource(name="J1", node="n1", current=0.5)]
        )
        assert replaced.total_load_current() == pytest.approx(0.5)
        assert set(replaced.current_sources) == {"J1"}
        assert set(network.current_sources) == {"I1"}
