"""Tests for the batched, model-guided planner candidate search."""

import pickle

import numpy as np
import pytest

from repro.analysis import BatchedAnalysisEngine
from repro.design import (
    CandidateRanker,
    ConventionalPowerPlanner,
    DesignRules,
    SearchConfig,
)
from repro.design.search import (
    FEATURE_NAMES,
    SearchStats,
    decap_load_scale,
    generate_candidates,
)
from repro.grid import GridBuilder
from repro.nn import NotFittedError

BUDGET = 6


@pytest.fixture(scope="module")
def tiny_start(small_benchmark):
    """Every stripe at the legal minimum — forces a resize trajectory."""
    rules = DesignRules.from_technology(small_benchmark.technology)
    return np.full(small_benchmark.topology.num_lines, rules.min_width)


@pytest.fixture(scope="module")
def exact_search_plan(small_benchmark, tiny_start):
    planner = ConventionalPowerPlanner(
        small_benchmark.technology, max_iterations=BUDGET, search=True
    )
    plan = planner.plan(
        small_benchmark.floorplan,
        small_benchmark.topology,
        initial_widths=tiny_start.copy(),
    )
    return planner, plan


@pytest.fixture(scope="module")
def baseline_plan(small_benchmark, tiny_start):
    planner = ConventionalPowerPlanner(small_benchmark.technology, max_iterations=BUDGET)
    return planner.plan(
        small_benchmark.floorplan,
        small_benchmark.topology,
        initial_widths=tiny_start.copy(),
    )


class TestExactSearch:
    def test_counters_balance(self, exact_search_plan):
        _, plan = exact_search_plan
        stats = plan.search
        assert stats is not None
        assert stats.candidates_generated > 0
        assert stats.candidates_generated == (
            stats.candidates_pruned + stats.candidates_solved
        )
        assert stats.candidates_pruned == 0  # exact mode solves everything
        assert stats.moves_committed == len(stats.committed)
        assert not stats.ranker_used

    def test_not_worse_than_one_move_baseline(self, exact_search_plan, baseline_plan):
        _, plan = exact_search_plan
        assert plan.ir_result.worst_ir_drop <= (
            baseline_plan.ir_result.worst_ir_drop + 1e-12
        )

    def test_every_solve_is_a_factorization_or_a_hit(self, exact_search_plan):
        planner, plan = exact_search_plan
        cache = planner.analyzer.cache_info()
        assert plan.search.moves_committed >= 1
        # The initial analysis plus every solved candidate: each is a fresh
        # factorization of its own grid, or a hit when its fingerprint is
        # still cached.
        assert cache.factorizations + cache.hits == plan.search.candidates_solved + 1
        assert cache.factorizations > plan.search.moves_committed
        # The planner's engine keeps one entry, and no candidate of this
        # search repeats the grid solved just before it.
        assert cache.entries == 1
        assert cache.hits == 0

    def test_committed_moves_match_fresh_oracle(self, exact_search_plan, small_benchmark):
        _, plan = exact_search_plan
        builder = GridBuilder(small_benchmark.technology)
        oracle = BatchedAnalysisEngine()
        for move in plan.search.committed:
            fresh = builder.build_compiled(
                small_benchmark.floorplan, small_benchmark.topology, move.widths
            )
            voltages = oracle.solve_voltages(fresh, move.loads)
            assert np.array_equal(voltages, move.voltages)

    def test_training_data_rows_match_solved(self, exact_search_plan):
        _, plan = exact_search_plan
        features, improvements = plan.search.training_data()
        assert features.shape == (plan.search.candidates_solved, len(FEATURE_NAMES))
        assert improvements.shape == (plan.search.candidates_solved,)

    def test_record_contract(self, exact_search_plan):
        _, plan = exact_search_plan
        record = plan.search.as_record()
        for key in (
            "candidates_generated",
            "candidates_pruned",
            "candidates_solved",
            "moves_committed",
            "ranker_used",
            "committed_kinds",
        ):
            assert key in record
        assert len(record["committed_kinds"]) == plan.search.moves_committed

    def test_non_search_plan_has_no_stats(self, golden_plan):
        assert golden_plan.search is None


class TestOneCandidateBatch:
    def test_batch_of_one_is_the_one_move_loop(self, small_benchmark, tiny_start):
        """A batch of one is the heuristic move alone: on the planner's
        one-entry engine it commits the same widths with the same cache
        work as the one-move loop."""
        plans = []
        for search in (SearchConfig(batch_width=1, use_decap=False), False):
            engine = BatchedAnalysisEngine(cache_size=1)
            plan = ConventionalPowerPlanner(
                small_benchmark.technology,
                max_iterations=BUDGET,
                analyzer=engine,
                search=search,
            ).plan(
                small_benchmark.floorplan,
                small_benchmark.topology,
                initial_widths=tiny_start.copy(),
            )
            plans.append((plan, engine.cache_info()))
        (search_plan, search_info), (one_move, one_move_info) = plans
        assert search_plan.search.moves_committed > 1
        assert np.array_equal(search_plan.widths, one_move.widths)
        assert search_info == one_move_info


class TestRankerSearch:
    @pytest.fixture(scope="class")
    def ranker_plan(self, exact_search_plan, small_benchmark, tiny_start):
        _, exact = exact_search_plan
        features, improvements = exact.search.training_data()
        ranker = CandidateRanker()
        ranker.fit(features, improvements)
        planner = ConventionalPowerPlanner(
            small_benchmark.technology,
            max_iterations=BUDGET,
            search=SearchConfig(ranker=ranker),
        )
        return planner.plan(
            small_benchmark.floorplan,
            small_benchmark.topology,
            initial_widths=tiny_start.copy(),
        )

    def test_ranker_prunes_before_solving(self, ranker_plan):
        stats = ranker_plan.search
        assert stats.ranker_used
        assert stats.candidates_pruned > 0
        assert stats.candidates_generated == (
            stats.candidates_pruned + stats.candidates_solved
        )

    def test_pruned_search_still_improves_the_grid(self, ranker_plan, tiny_start):
        assert ranker_plan.search.moves_committed >= 1
        assert np.any(ranker_plan.widths > tiny_start)

    def test_unfitted_ranker_raises(self):
        ranker = CandidateRanker()
        assert not ranker.is_fitted
        with pytest.raises(NotFittedError):
            ranker.predict_improvement(np.zeros((2, len(FEATURE_NAMES))))

    def test_wrong_feature_count_rejected(self, rng):
        ranker = CandidateRanker()
        with pytest.raises(ValueError, match="features per candidate"):
            ranker.fit(rng.normal(size=(10, 3)), rng.normal(size=10))

    def test_fitted_ranker_pickles(self, rng):
        ranker = CandidateRanker()
        features = rng.normal(size=(64, len(FEATURE_NAMES)))
        ranker.fit(features, features[:, 0])
        clone = pickle.loads(pickle.dumps(ranker))
        np.testing.assert_array_equal(
            clone.predict_improvement(features), ranker.predict_improvement(features)
        )

    def test_select_always_keeps_protected(self, rng, small_benchmark, tiny_start):
        candidates, features = _tiny_batch(small_benchmark, tiny_start)
        ranker = CandidateRanker()
        train = rng.normal(size=(64, len(FEATURE_NAMES)))
        ranker.fit(train, train[:, 0])
        kept = ranker.select(candidates, features, keep=2)
        assert len(kept) == 2
        protected = [i for i, cand in enumerate(candidates) if cand.protected]
        assert set(protected) <= set(kept)


def _tiny_batch(small_benchmark, tiny_start):
    """One candidate batch generated from the undersized small benchmark."""
    technology = small_benchmark.technology
    rules = DesignRules.from_technology(technology)
    builder = GridBuilder(technology)
    compiled = builder.build_compiled(
        small_benchmark.floorplan, small_benchmark.topology, tiny_start
    )
    engine = BatchedAnalysisEngine()
    voltages = engine.solve_voltages(compiled)
    drops = compiled.vdd - voltages
    worst = int(np.argmax(drops))
    baseline = rules.legalize_widths(tiny_start * 1.5)
    config = SearchConfig()
    candidates = generate_candidates(
        widths=tiny_start,
        baseline_widths=baseline,
        topology=small_benchmark.topology,
        compiled=compiled,
        drops=drops,
        rules=rules,
        upsize_factor=1.25,
        config=config,
    )
    from repro.design.search import candidate_features

    features = candidate_features(
        candidates,
        widths=tiny_start,
        topology=small_benchmark.topology,
        compiled=compiled,
        worst_x=float(compiled.node_x[worst]),
        worst_y=float(compiled.node_y[worst]),
        worst_ir_drop=float(drops[worst]),
        loads=compiled.base_loads,
    )
    return candidates, features


class TestCandidateGeneration:
    def test_batch_shape_and_kinds(self, small_benchmark, tiny_start):
        candidates, features = _tiny_batch(small_benchmark, tiny_start)
        config = SearchConfig()
        assert 1 <= len(candidates) <= config.batch_width
        kinds = {cand.kind for cand in candidates}
        assert {"heuristic", "upsize", "pitch"} <= kinds
        assert features.shape == (len(candidates), len(FEATURE_NAMES))

    def test_baseline_first_and_protected(self, small_benchmark, tiny_start):
        candidates, _ = _tiny_batch(small_benchmark, tiny_start)
        assert candidates[0].kind == "heuristic"
        assert candidates[0].protected
        assert sum(1 for cand in candidates if cand.protected) == 1

    def test_every_candidate_dominates_the_baseline_move(
        self, small_benchmark, tiny_start
    ):
        """Each candidate is a superset of the baseline move, so whichever
        wins, the committed step is at least as strong as the one-move
        step from the same state."""
        candidates, _ = _tiny_batch(small_benchmark, tiny_start)
        baseline = candidates[0].widths
        for cand in candidates[1:]:
            assert np.all(cand.widths >= baseline - 1e-12)

    def test_candidates_deduplicated(self, small_benchmark, tiny_start):
        candidates, _ = _tiny_batch(small_benchmark, tiny_start)
        keys = {
            cand.widths.tobytes() + (b"decap" if cand.load_scale is not None else b"")
            for cand in candidates
        }
        assert len(keys) == len(candidates)


class TestDecapRelief:
    def test_load_scale_bounded(self, small_benchmark, tiny_start):
        technology = small_benchmark.technology
        compiled = GridBuilder(technology).build_compiled(
            small_benchmark.floorplan, small_benchmark.topology, tiny_start
        )
        relief = decap_load_scale(small_benchmark.floorplan, technology, compiled)
        if relief is None:
            pytest.skip("no decap relief achievable on this benchmark")
        scale, plan = relief
        assert scale.shape == (compiled.num_nodes,)
        assert np.all(scale <= 1.0 + 1e-12)
        assert np.all(scale > 0.0)
        assert np.any(scale < 1.0)
        assert plan.placements


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(batch_width=0)
        with pytest.raises(ValueError):
            SearchConfig(prune_to=0)
        with pytest.raises(ValueError):
            SearchConfig(pitch_stride=0)
        with pytest.raises(ValueError):
            SearchConfig(hotspots=0)

    def test_resolved_prune_to_default(self):
        assert SearchConfig(batch_width=12).resolved_prune_to == 8
        assert SearchConfig(batch_width=3).resolved_prune_to == 4
        assert SearchConfig(prune_to=5).resolved_prune_to == 5

    def test_empty_stats_training_data(self):
        features, improvements = SearchStats().training_data()
        assert features.shape == (0, len(FEATURE_NAMES))
        assert improvements.shape == (0,)
