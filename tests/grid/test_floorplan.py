"""Tests for the floorplan model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Floorplan, FunctionalBlock, PowerPad


def block(name="b0", x=0.0, y=0.0, width=100.0, height=100.0, current=0.1):
    return FunctionalBlock(
        name=name, x=x, y=y, width=width, height=height, switching_current=current
    )


CORE = 1000.0


@st.composite
def floorplans_with_grids(draw):
    """A random floorplan and two ascending coordinate vectors over it.

    Blocks are drawn on a coarse lattice or anywhere, so they often overlap
    and share edges; some draw zero current (either sign of zero).  The
    grid lines include every block's ``x``, ``x + width``, ``y`` and
    ``y + height`` exactly, repeated coordinates and random points.
    """
    lattice = st.integers(min_value=0, max_value=10).map(lambda k: 90.0 * k)
    anywhere = st.floats(min_value=0.0, max_value=900.0)
    blocks = []
    for index in range(draw(st.integers(min_value=0, max_value=6), label="blocks")):
        x = draw(st.one_of(lattice, anywhere), label=f"bx{index}")
        y = draw(st.one_of(lattice, anywhere), label=f"by{index}")
        width = draw(st.floats(min_value=1e-3, max_value=CORE - x), label=f"bw{index}")
        height = draw(st.floats(min_value=1e-3, max_value=CORE - y), label=f"bh{index}")
        current = draw(
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, max_value=1.0)),
            label=f"bi{index}",
        )
        blocks.append(block(f"b{index}", x, y, width, height, current))
    floorplan = Floorplan("random", CORE, CORE, blocks=blocks)

    def coordinates(label, edges):
        points = draw(
            st.lists(st.one_of(lattice, st.floats(min_value=0.0, max_value=CORE)), max_size=12),
            label=label,
        )
        if edges:
            points += draw(st.lists(st.sampled_from(edges), max_size=12), label=f"{label}_edges")
        return np.sort(np.asarray(points + points[:2], dtype=float))

    xs = coordinates("xs", [edge for b in blocks for edge in (b.x, b.x + b.width)])
    ys = coordinates("ys", [edge for b in blocks for edge in (b.y, b.y + b.height)])
    return floorplan, xs, ys


def scalar_grid(floorplan, xs, ys):
    """``switching_current_at`` at every ``(xs[i], ys[j])``, one point at a time."""
    return np.asarray(
        [[floorplan.switching_current_at(x, y) for x in xs] for y in ys], dtype=float
    ).reshape(len(ys), len(xs))


class TestFunctionalBlock:
    def test_center_and_area(self):
        b = block(x=10.0, y=20.0, width=100.0, height=50.0)
        assert b.center == (60.0, 45.0)
        assert b.area == pytest.approx(5000.0)

    def test_contains(self):
        b = block(width=100.0, height=100.0)
        assert b.contains(50.0, 50.0)
        assert b.contains(0.0, 0.0)
        assert not b.contains(150.0, 50.0)

    def test_current_density(self):
        b = block(width=100.0, height=100.0, current=0.1)
        assert b.current_density == pytest.approx(1e-5)

    def test_with_current(self):
        b = block(current=0.1)
        assert b.with_current(0.3).switching_current == pytest.approx(0.3)
        assert b.switching_current == pytest.approx(0.1)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            block(width=0.0)

    @pytest.mark.parametrize("dimension", ["width", "height"])
    def test_rejects_nan_dimensions(self, dimension):
        # A NaN edge would contain no point for the scalar query but an
        # open-ended index range for the grid query's binary search.
        with pytest.raises(ValueError, match="positive dimensions"):
            block(**{dimension: float("nan")})

    def test_rejects_negative_current(self):
        with pytest.raises(ValueError):
            block(current=-0.1)


class TestPowerPad:
    def test_rejects_nonpositive_voltage(self):
        with pytest.raises(ValueError):
            PowerPad(name="p", x=0.0, y=0.0, voltage=0.0)


class TestFloorplan:
    def test_block_outside_core_rejected(self):
        with pytest.raises(ValueError):
            Floorplan("f", 100.0, 100.0, blocks=[block(x=50.0, width=100.0)])

    def test_pad_outside_core_rejected(self):
        with pytest.raises(ValueError):
            Floorplan("f", 100.0, 100.0, pads=[PowerPad(name="p", x=200.0, y=0.0, voltage=1.0)])

    def test_duplicate_block_name_rejected(self):
        plan = Floorplan("f", 1000.0, 1000.0, blocks=[block()])
        with pytest.raises(ValueError):
            plan.add_block(block())

    def test_total_switching_current(self, tiny_floorplan):
        expected = sum(b.switching_current for b in tiny_floorplan.iter_blocks())
        assert tiny_floorplan.total_switching_current == pytest.approx(expected)

    def test_block_at_finds_covering_block(self, tiny_floorplan):
        found = tiny_floorplan.block_at(100.0, 100.0)
        assert found is not None and found.name == "b0"
        assert tiny_floorplan.block_at(500.0, 500.0) is None

    def test_switching_current_at_block_and_gap(self, tiny_floorplan):
        assert tiny_floorplan.switching_current_at(100.0, 100.0) == pytest.approx(0.08)
        assert tiny_floorplan.switching_current_at(475.0, 475.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(floorplans_with_grids())
    def test_grid_query_matches_scalar_bitwise(self, case):
        floorplan, xs, ys = case
        grid = floorplan.switching_current_grid(xs, ys)
        expected = scalar_grid(floorplan, xs, ys)
        assert grid.shape == (len(ys), len(xs))
        assert grid.dtype == expected.dtype
        assert grid.tobytes() == expected.tobytes()

    def test_grid_query_first_block_wins_on_shared_edges(self):
        # b1 lies under b0's right half and shares its top and bottom edges;
        # b2 (no current) covers both.  Points on every edge are queried.
        blocks = [
            block("b0", 100.0, 100.0, 200.0, 100.0, current=0.3),
            block("b1", 200.0, 100.0, 200.0, 100.0, current=0.5),
            block("b2", 0.0, 0.0, 500.0, 500.0, current=0.0),
        ]
        floorplan = Floorplan("overlap", CORE, CORE, blocks=blocks)
        xs = np.asarray([0.0, 100.0, 200.0, 300.0, 350.0, 400.0, 500.0, 600.0])
        ys = np.asarray([0.0, 100.0, 150.0, 200.0, 500.0, 501.0])
        grid = floorplan.switching_current_grid(xs, ys)
        assert grid.tobytes() == scalar_grid(floorplan, xs, ys).tobytes()
        assert grid[1].tolist() == [0.0, 0.3, 0.3, 0.3, 0.5, 0.5, 0.0, 0.0]

    def test_grid_query_on_empty_floorplan(self):
        grid = Floorplan("empty", CORE, CORE).switching_current_grid([1.0, 2.0, 3.0], [5.0])
        assert grid.shape == (1, 3)
        assert grid.tobytes() == np.zeros((1, 3)).tobytes()
        assert Floorplan("empty", CORE, CORE).switching_current_grid([], [5.0]).shape == (1, 0)

    @pytest.mark.parametrize("axis", ["xs", "ys"])
    @pytest.mark.parametrize(
        "bad",
        [[2.0, 1.0], [0.0, float("nan"), 3.0], [[1.0, 2.0]]],
        ids=["descending", "nan", "two-d"],
    )
    def test_grid_query_rejects_non_ascending_vector(self, tiny_floorplan, axis, bad):
        vectors = {"xs": [1.0, 2.0], "ys": [1.0, 2.0], axis: bad}
        with pytest.raises(ValueError, match=f"^{axis} must be a 1-D ascending"):
            tiny_floorplan.switching_current_grid(vectors["xs"], vectors["ys"])

    def test_current_density_map_conserves_hot_region(self, tiny_floorplan):
        density = tiny_floorplan.current_density_map(resolution=32)
        assert density.shape == (32, 32)
        # The hottest block (b1, lower-right quadrant) should dominate.
        hot_quadrant = density[:16, 16:]
        assert hot_quadrant.max() == pytest.approx(density.max())

    def test_with_scaled_currents(self, tiny_floorplan):
        scaled = tiny_floorplan.with_scaled_currents(2.0)
        assert scaled.total_switching_current == pytest.approx(
            2.0 * tiny_floorplan.total_switching_current
        )

    def test_with_block_currents_unknown_block(self, tiny_floorplan):
        with pytest.raises(KeyError):
            tiny_floorplan.with_block_currents({"nope": 1.0})

    def test_with_block_currents_selected_update(self, tiny_floorplan):
        updated = tiny_floorplan.with_block_currents({"b0": 0.5})
        assert updated.blocks["b0"].switching_current == pytest.approx(0.5)
        assert updated.blocks["b1"].switching_current == pytest.approx(
            tiny_floorplan.blocks["b1"].switching_current
        )

    def test_rejects_nonpositive_core(self):
        with pytest.raises(ValueError):
            Floorplan("f", 0.0, 100.0)
