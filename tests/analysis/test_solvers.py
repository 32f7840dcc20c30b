"""Tests for the SuperLU backend and incremental updates.

The acceptance bar: voltages served through a low-rank incremental update
(Woodbury or preconditioned CG) must agree with a fresh factorization to
1e-9 on every resize shape — single line, stripe, full grid (where the
crossover policy must fall back to fresh factors instead).
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import (
    BatchedAnalysisEngine,
    LinearSolverError,
    PreconditionedUpdateFactorization,
    SpluBackend,
    UpdateDivergenceError,
    UpdatePolicy,
    WoodburyFactorization,
    make_update_factorization,
)
from repro.grid import GridBuilder, SyntheticIBMSuite

VOLTAGE_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def builder(ibmpg1_bench):
    return GridBuilder(ibmpg1_bench.technology)


@pytest.fixture(scope="module")
def base_compiled(ibmpg1_bench, builder):
    """The ibmpg1 grid at uniform 5 um, compiled once per module."""
    network = builder.build(ibmpg1_bench.floorplan, ibmpg1_bench.topology, 5.0)
    return network.compile()


def resized(builder, bench, base, line_scale):
    """A compiled clone with per-line widths ``5.0 * line_scale``."""
    widths = 5.0 * np.asarray(line_scale, dtype=float)
    return builder.resize_compiled(base, bench.topology, widths)


def single_line_scale(bench):
    scale = np.ones(bench.topology.num_lines)
    scale[0] = 1.4
    return scale


def stripe_scale(bench):
    scale = np.ones(bench.topology.num_lines)
    scale[2:7] = 1.3
    return scale


def base_rhs(compiled):
    """The reduced-system right-hand side of the grid's own loads."""
    return compiled.rhs_matrix(compiled.base_loads[None])[:, 0]


# ----------------------------------------------------------------------
# Update provenance and incidence extraction on the compiled grid
# ----------------------------------------------------------------------
class TestUpdateColumns:
    def test_base_grid_has_no_update_provenance(self, base_compiled):
        assert base_compiled.update_base_fingerprint is None
        assert base_compiled.update_indices is None

    def test_clone_records_changed_indices(self, ibmpg1_bench, builder, base_compiled):
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        assert clone.update_base_fingerprint == base_compiled.fingerprint
        changed = clone.update_indices
        assert changed is not None and changed.size > 0
        untouched = np.setdiff1d(np.arange(base_compiled.num_resistors), changed)
        assert np.array_equal(
            clone.conductance[untouched], base_compiled.conductance[untouched]
        )
        assert np.all(clone.conductance[changed] != base_compiled.conductance[changed])

    def test_provenance_is_per_clone_not_inherited(
        self, ibmpg1_bench, builder, base_compiled
    ):
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        chained = resized(builder, ibmpg1_bench, clone, stripe_scale(ibmpg1_bench))
        assert chained.update_base_fingerprint == clone.fingerprint
        assert chained.update_base_fingerprint != base_compiled.fingerprint

    def test_low_rank_term_reproduces_matrix_difference(
        self, ibmpg1_bench, builder, base_compiled
    ):
        """ΔG = B·diag(Δg)·Bᵀ must equal the reduced-matrix difference."""
        clone = resized(builder, ibmpg1_bench, base_compiled, stripe_scale(ibmpg1_bench))
        incidence, active = clone.update_columns(clone.update_indices)
        assert incidence.shape == (clone.num_unknowns, active.size)
        delta = clone.conductance[active] - base_compiled.conductance[active]
        assert np.all(delta != 0.0)
        low_rank = (incidence @ sp.diags(delta) @ incidence.T).toarray()
        difference = (clone.reduced_matrix - base_compiled.reduced_matrix).toarray()
        np.testing.assert_allclose(low_rank, difference, atol=1e-12)

    def test_branches_without_matrix_effect_are_filtered(self, base_compiled):
        """Pad-pad / ground-side branches contribute nothing to the reduced
        matrix, so feeding *every* branch index must yield a reduced-rank
        column set (never more columns than branches)."""
        all_indices = np.arange(base_compiled.num_resistors)
        incidence, active = base_compiled.update_columns(all_indices)
        assert active.size <= all_indices.size
        assert incidence.shape == (base_compiled.num_unknowns, active.size)


# ----------------------------------------------------------------------
# Incremental solves agree with fresh factorizations
# ----------------------------------------------------------------------
class TestIncrementalAgreement:
    def check_resize(self, bench, builder, base, scale):
        engine = BatchedAnalysisEngine()
        oracle = BatchedAnalysisEngine(incremental_updates=False)
        engine.analyze(base)
        oracle.analyze(base)
        clone = resized(builder, bench, base, scale)
        incremental = engine.solve_voltages(clone)
        fresh = oracle.solve_voltages(clone)
        assert np.max(np.abs(incremental - fresh)) <= VOLTAGE_TOLERANCE
        return engine, oracle

    def test_single_line_resize(self, ibmpg1_bench, builder, base_compiled):
        engine, oracle = self.check_resize(
            ibmpg1_bench, builder, base_compiled, single_line_scale(ibmpg1_bench)
        )
        assert engine.cache_info().updates == 1
        assert engine.cache_info().update_fallbacks == 0
        assert engine.cache_info().factorizations == 1
        assert oracle.cache_info().updates == 0
        assert oracle.cache_info().factorizations == 2

    def test_stripe_resize(self, ibmpg1_bench, builder, base_compiled):
        engine, _ = self.check_resize(
            ibmpg1_bench, builder, base_compiled, stripe_scale(ibmpg1_bench)
        )
        assert engine.cache_info().updates == 1

    def test_downsize_also_served_incrementally(
        self, ibmpg1_bench, builder, base_compiled
    ):
        scale = np.ones(ibmpg1_bench.topology.num_lines)
        scale[1] = 0.6
        engine, _ = self.check_resize(ibmpg1_bench, builder, base_compiled, scale)
        assert engine.cache_info().updates == 1

    def test_chained_resizes_update_the_original_factors(
        self, ibmpg1_bench, builder, base_compiled
    ):
        """Resize-of-a-resize still references the first direct factors;
        updates never stack on updates."""
        engine = BatchedAnalysisEngine()
        oracle = BatchedAnalysisEngine(incremental_updates=False)
        engine.analyze(base_compiled)
        first = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        engine.analyze(first)
        second = resized(builder, ibmpg1_bench, first, stripe_scale(ibmpg1_bench))
        incremental = engine.solve_voltages(second)
        fresh = oracle.solve_voltages(second)
        assert np.max(np.abs(incremental - fresh)) <= VOLTAGE_TOLERANCE
        info = engine.cache_info()
        assert info.updates == 2
        assert info.factorizations == 1
        factor, _ = engine._factor(second)
        assert factor.is_update
        assert factor.direct is engine._factor(base_compiled)[0]

    def test_full_grid_resize_crosses_over_to_fresh_factors(
        self, ibmpg1_bench, builder, base_compiled
    ):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        clone = resized(
            builder,
            ibmpg1_bench,
            base_compiled,
            np.full(ibmpg1_bench.topology.num_lines, 1.6),
        )
        voltages = engine.solve_voltages(clone)
        info = engine.cache_info()
        assert info.update_fallbacks == 1
        assert info.updates == 0
        assert info.factorizations == 2
        fresh = BatchedAnalysisEngine().solve_voltages(clone)
        np.testing.assert_array_equal(voltages, fresh)

    def test_identical_conductances_hit_the_cache(self, base_compiled):
        """A clone whose conductances did not change keeps the fingerprint,
        so it is served as a plain cache hit — no update is even built."""
        clone = base_compiled.with_conductances(base_compiled.conductance.copy())
        assert clone.update_indices.size == 0
        assert clone.fingerprint == base_compiled.fingerprint
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        engine.analyze(clone)
        info = engine.cache_info()
        assert info.factorizations == 1
        assert info.hits == 1
        assert info.updates == 0

    def test_rank_zero_update_reuses_direct_factors(self, base_compiled):
        """A delta with no matrix effect (rank 0) serves the clone with the
        base entry's direct factors instead of building anything."""
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        entry = engine._cache[base_compiled.fingerprint]
        clone = base_compiled.with_conductances(base_compiled.conductance.copy())
        rank_zero = engine._update_entry(clone, entry)
        assert rank_zero is not None
        assert rank_zero.factor is entry.direct
        assert engine.cache_info().updates == 1
        assert engine.cache_info().factorizations == 1

    def test_update_not_attempted_when_base_evicted(
        self, ibmpg1_bench, builder, base_compiled
    ):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        engine.clear_cache()
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        engine.analyze(clone)
        info = engine.cache_info()
        assert info.updates == 0
        assert info.factorizations == 2

    def test_incremental_updates_disabled(self, ibmpg1_bench, builder, base_compiled):
        engine = BatchedAnalysisEngine(incremental_updates=False)
        engine.analyze(base_compiled)
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        engine.analyze(clone)
        assert engine.cache_info().updates == 0
        assert engine.cache_info().factorizations == 2


# ----------------------------------------------------------------------
# The two update implementations and the policy crossover between them
# ----------------------------------------------------------------------
class TestUpdateFactorizations:
    @pytest.fixture(scope="class")
    def update_pieces(self, ibmpg1_bench, builder, base_compiled):
        clone = resized(builder, ibmpg1_bench, base_compiled, stripe_scale(ibmpg1_bench))
        incidence, active = clone.update_columns(clone.update_indices)
        delta = clone.conductance[active] - base_compiled.conductance[active]
        base_factor = SpluBackend().factor(base_compiled.reduced_matrix)
        return clone, base_factor, incidence, delta

    def test_dense_woodbury_matches_direct_solve(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=int(delta.size))
        factor = make_update_factorization(
            clone.reduced_matrix, base_factor, incidence, delta, policy
        )
        assert isinstance(factor, WoodburyFactorization)
        assert factor.is_update and factor.update_rank == delta.size
        assert factor.direct is base_factor
        rhs = base_rhs(clone)
        direct = SpluBackend().factor(clone.reduced_matrix).solve(rhs)
        assert np.max(np.abs(factor.solve(rhs) - direct)) <= VOLTAGE_TOLERANCE

    def test_preconditioned_cg_matches_direct_solve(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0)
        factor = make_update_factorization(
            clone.reduced_matrix, base_factor, incidence, delta, policy
        )
        assert isinstance(factor, PreconditionedUpdateFactorization)
        rhs = base_rhs(clone)
        direct = SpluBackend().factor(clone.reduced_matrix).solve(rhs)
        assert np.max(np.abs(factor.solve(rhs) - direct)) <= VOLTAGE_TOLERANCE
        assert 0 < factor.iterations <= policy.maxiter

    def test_block_rhs_solves_column_wise(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0)
        factor = make_update_factorization(
            clone.reduced_matrix, base_factor, incidence, delta, policy
        )
        rhs = base_rhs(clone)
        block = np.column_stack([rhs, 2.0 * rhs])
        direct = SpluBackend().factor(clone.reduced_matrix).solve(block)
        assert np.max(np.abs(factor.solve(block) - direct)) <= VOLTAGE_TOLERANCE

    def test_iteration_cap_raises_divergence(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0, rtol=1e-15, maxiter=1)
        factor = make_update_factorization(
            clone.reduced_matrix, base_factor, incidence, delta, policy
        )
        with pytest.raises(UpdateDivergenceError):
            factor.solve(base_rhs(clone))

    def test_engine_downgrades_on_divergence(
        self, ibmpg1_bench, builder, base_compiled
    ):
        """A diverging update must be replaced by fresh factors mid-solve,
        still returning accurate voltages."""
        engine = BatchedAnalysisEngine(
            update_policy=UpdatePolicy(dense_rank_limit=0, rtol=1e-15, maxiter=1)
        )
        engine.analyze(base_compiled)
        clone = resized(builder, ibmpg1_bench, base_compiled, stripe_scale(ibmpg1_bench))
        voltages = engine.solve_voltages(clone)
        info = engine.cache_info()
        assert info.updates == 1  # the update was built...
        assert info.update_fallbacks == 1  # ...then downgraded at solve time
        assert info.factorizations == 2
        fresh = BatchedAnalysisEngine().solve_voltages(clone)
        assert np.max(np.abs(voltages - fresh)) <= VOLTAGE_TOLERANCE
        assert not engine._factor(clone)[0].is_update

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            UpdatePolicy(dense_rank_limit=-1)
        with pytest.raises(ValueError):
            UpdatePolicy(crossover_fraction=0.0)
        with pytest.raises(ValueError):
            UpdatePolicy(crossover_fraction=1.5)
        with pytest.raises(ValueError):
            UpdatePolicy(rtol=0.0)
        with pytest.raises(ValueError):
            UpdatePolicy(maxiter=0)


# ----------------------------------------------------------------------
# The explicit factor_update API
# ----------------------------------------------------------------------
class TestFactorUpdate:
    def test_explicit_update_and_cache_hit(self, ibmpg1_bench, builder, base_compiled):
        engine = BatchedAnalysisEngine(incremental_updates=False)
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        factor = engine.factor_update(base_compiled, clone)
        assert factor.is_update and factor.update_rank > 0
        assert engine.cache_info().updates == 1
        again = engine.factor_update(base_compiled, clone)
        assert again is factor
        # The repeat call hits twice: once re-serving the base factors,
        # once finding the update entry under the clone's fingerprint.
        assert engine.cache_info().hits == 2

    def test_topology_mismatch_rejected(self, base_compiled, tiny_grid):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="sharing one topology"):
            engine.factor_update(base_compiled, tiny_grid.compile())

    def test_cg_sized_systems_rejected(self, ibmpg1_bench, builder, base_compiled):
        engine = BatchedAnalysisEngine(direct_size_limit=4)
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        with pytest.raises(ValueError, match="direct"):
            engine.factor_update(base_compiled, clone)


# ----------------------------------------------------------------------
# The engine's one backend and the seam that substitutes it
# ----------------------------------------------------------------------
class TestOneBackend:
    def test_engine_takes_no_solver_argument(self):
        with pytest.raises(TypeError, match="solver"):
            BatchedAnalysisEngine(solver="splu")

    def test_engine_factors_with_splu(self, base_compiled):
        engine = BatchedAnalysisEngine()
        assert isinstance(engine.solver_backend, SpluBackend)
        assert engine.solver_backend.name == "splu"
        factor, _ = engine._factor(base_compiled)
        assert factor.backend == "splu"

    def test_assigned_backend_serves_every_fresh_factorization(
        self, ibmpg1_bench, builder, base_compiled
    ):
        """Assigning ``solver_backend`` is how a wrapper stands in for the
        backend: every fresh factorization then goes through it, a
        crossover fallback included, while updates reuse its factors."""

        class CountingBackend(SpluBackend):
            calls = 0

            def factor(self, matrix):
                self.calls += 1
                return super().factor(matrix)

        engine = BatchedAnalysisEngine()
        backend = CountingBackend()
        engine.solver_backend = backend
        engine.analyze(base_compiled)
        engine.analyze(
            resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        )
        assert backend.calls == 1
        engine.analyze(
            resized(
                builder,
                ibmpg1_bench,
                base_compiled,
                np.full(ibmpg1_bench.topology.num_lines, 1.6),
            )
        )
        info = engine.cache_info()
        assert info.updates == 1 and info.update_fallbacks == 1
        assert backend.calls == info.factorizations == 2


class TestSpluFactorization:
    """The backend factors the SPD reduced matrix in symmetric mode."""

    def test_fill_below_the_unsymmetric_default(self, base_compiled):
        matrix = base_compiled.reduced_matrix.tocsc()
        unsymmetric = spla.splu(matrix)
        symmetric = SpluBackend().factor(matrix)._factor
        assert symmetric.L.nnz + symmetric.U.nnz < unsymmetric.L.nnz + unsymmetric.U.nnz

    def test_singular_matrix_raises_linear_solver_error(self):
        singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(LinearSolverError, match="factorization failed"):
            SpluBackend().factor(singular)

    @pytest.mark.parametrize("grid_name", ["ibmpg1", "ibmpgnew1"])
    def test_block_solve_residual(self, grid_name):
        compiled = SyntheticIBMSuite().load(grid_name).build_uniform_grid(5.0).compile()
        rng = np.random.default_rng(11)
        loads = compiled.base_loads * rng.uniform(0.5, 1.5, (16, compiled.num_nodes))
        rhs = compiled.rhs_matrix(loads)
        solution = SpluBackend().factor(compiled.reduced_matrix).solve(rhs)
        residual = compiled.reduced_matrix @ solution - rhs
        relative = np.linalg.norm(residual, axis=0) / np.linalg.norm(rhs, axis=0)
        assert relative.max() <= 1e-12


# ----------------------------------------------------------------------
# Counters and cache-key semantics
# ----------------------------------------------------------------------
class TestCacheSemantics:
    def test_counters_survive_clear_cache(self, ibmpg1_bench, builder, base_compiled):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        engine.analyze(clone)
        before = engine.cache_info()
        assert before.updates == 1 and before.entries == 2
        engine.clear_cache()
        after = engine.cache_info()
        assert after.entries == 0
        assert after.factorizations == before.factorizations
        assert after.updates == before.updates
        assert after.update_fallbacks == before.update_fallbacks

    def test_cache_key_is_the_fingerprint(self, base_compiled):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        (key,) = engine._cache.keys()
        assert key == base_compiled.fingerprint
