"""Tests for the early vectorless bound analysis."""

import re

import numpy as np
import pytest

from repro.analysis import VectorlessAnalyzer, VectorlessBudget, uniform_budget


def run_vectorless(entry, network, budget):
    """Run one of the analyzer's two budget-reading entry points."""
    analyzer = VectorlessAnalyzer()
    if entry == "analyze":
        return analyzer.analyze(network, budget)
    return analyzer.analyze_statistical(network, budget, 4, chunk_size=2)


class TestBudget:
    def test_uniform_budget_scales_loads(self, tiny_grid):
        budget = uniform_budget(tiny_grid, headroom=1.5)
        for load in tiny_grid.iter_loads():
            assert budget.per_load_max[load.name] == pytest.approx(1.5 * load.current)

    def test_uniform_budget_rejects_headroom_below_one(self, tiny_grid):
        with pytest.raises(ValueError):
            uniform_budget(tiny_grid, headroom=0.5)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            VectorlessBudget(per_load_max={"I1": -1.0})
        with pytest.raises(ValueError):
            VectorlessBudget(per_load_max={}, global_utilisation=0.0)


class TestVectorlessAnalysis:
    def test_bound_dominates_nominal(self, tiny_grid):
        budget = uniform_budget(tiny_grid, headroom=1.5)
        result = VectorlessAnalyzer().analyze(tiny_grid, budget)
        assert result.worst_case_bound >= result.nominal_result.worst_ir_drop
        assert result.pessimism >= 1.0

    def test_unit_headroom_gives_unit_pessimism(self, tiny_grid):
        budget = uniform_budget(tiny_grid, headroom=1.0)
        result = VectorlessAnalyzer().analyze(tiny_grid, budget)
        assert result.pessimism == pytest.approx(1.0, rel=1e-6)

    def test_global_utilisation_caps_the_bound(self, tiny_grid):
        loose = VectorlessAnalyzer().analyze(tiny_grid, uniform_budget(tiny_grid, headroom=2.0))
        capped = VectorlessAnalyzer().analyze(
            tiny_grid, uniform_budget(tiny_grid, headroom=2.0, utilisation=0.5)
        )
        assert capped.worst_case_bound < loose.worst_case_bound

    def test_bound_scales_linearly_with_headroom(self, tiny_grid):
        result = VectorlessAnalyzer().analyze(tiny_grid, uniform_budget(tiny_grid, headroom=2.0))
        assert result.pessimism == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("entry", ["analyze", "analyze_statistical"])
class TestBudgetBoundary:
    """A bad budget fails where it enters, naming the offending loads."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_budget_names_the_load(self, tiny_grid, entry, value):
        name = next(tiny_grid.iter_loads()).name
        message = f"budget for {name!r} must be finite, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_vectorless(entry, tiny_grid, VectorlessBudget({name: value}, 0.9))

    def test_unknown_load_names_are_rejected(self, tiny_grid, entry):
        known = next(tiny_grid.iter_loads()).name
        budget = VectorlessBudget(
            {"no_such_load": 5.0, known: 1.0, "ghost_a": 1.0, "ghost_b": 2.0, "ghost_c": 3.0},
            0.9,
        )
        message = (
            f"budget names 4 load(s) that grid {tiny_grid.name!r} does not have, "
            "e.g. 'no_such_load', 'ghost_a', 'ghost_b'"
        )
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            run_vectorless(entry, tiny_grid, budget)
