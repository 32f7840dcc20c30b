"""Tests for the pluggable solver-backend layer and incremental updates.

The acceptance bar: voltages served through a low-rank incremental update
(Woodbury or preconditioned CG) must agree with a fresh factorization to
1e-9 on every resize shape — single line, stripe, full grid (where the
crossover policy must fall back to fresh factors instead) — and the
CHOLMOD backend, where installed, must be solution-equivalent to SuperLU.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import (
    SOLVER_ENV,
    BatchedAnalysisEngine,
    CholmodBackend,
    PreconditionedUpdateFactorization,
    SpluBackend,
    UpdateDivergenceError,
    UpdatePolicy,
    WoodburyFactorization,
    cholmod_available,
    make_update_factorization,
    resolve_solver_backend,
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
        entry = engine._cache[engine._cache_key(base_compiled.fingerprint)]
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
        rhs = clone.rhs()
        direct = SpluBackend().factor(clone.reduced_matrix).solve(rhs)
        assert np.max(np.abs(factor.solve(rhs) - direct)) <= VOLTAGE_TOLERANCE

    def test_preconditioned_cg_matches_direct_solve(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0)
        factor = make_update_factorization(
            clone.reduced_matrix, base_factor, incidence, delta, policy
        )
        assert isinstance(factor, PreconditionedUpdateFactorization)
        rhs = clone.rhs()
        direct = SpluBackend().factor(clone.reduced_matrix).solve(rhs)
        assert np.max(np.abs(factor.solve(rhs) - direct)) <= VOLTAGE_TOLERANCE
        assert 0 < factor.iterations <= policy.maxiter

    def test_block_rhs_solves_column_wise(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0)
        factor = make_update_factorization(
            clone.reduced_matrix, base_factor, incidence, delta, policy
        )
        block = np.column_stack([clone.rhs(), 2.0 * clone.rhs()])
        direct = SpluBackend().factor(clone.reduced_matrix).solve(block)
        assert np.max(np.abs(factor.solve(block) - direct)) <= VOLTAGE_TOLERANCE

    def test_iteration_cap_raises_divergence(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0, rtol=1e-15, maxiter=1)
        factor = make_update_factorization(
            clone.reduced_matrix, base_factor, incidence, delta, policy
        )
        with pytest.raises(UpdateDivergenceError):
            factor.solve(clone.rhs())

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
# Backend policy resolution (names, environment, degrade path)
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_default_is_splu(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        assert resolve_solver_backend().name == "splu"
        assert resolve_solver_backend("splu").name == "splu"

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "splu")
        assert resolve_solver_backend().name == "splu"

    def test_environment_invalid_name_mentions_variable(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "pardiso")
        with pytest.raises(ValueError, match=SOLVER_ENV):
            resolve_solver_backend()

    def test_invalid_explicit_name(self):
        with pytest.raises(ValueError, match="pardiso"):
            resolve_solver_backend("pardiso")

    def test_backend_instance_passes_through(self):
        backend = SpluBackend()
        assert resolve_solver_backend(backend) is backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(TypeError):
            resolve_solver_backend(3.14)

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_auto_degrades_silently_without_cholmod(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_solver_backend("auto").name == "splu"

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_cholmod_request_warns_and_degrades(self):
        with pytest.warns(RuntimeWarning, match="degrading to the 'splu' backend"):
            backend = resolve_solver_backend("cholmod")
        assert backend.name == "splu"

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_engine_degrades_to_splu_without_cholmod(self, base_compiled):
        """The whole engine stays usable on a cholmod request: policy
        resolution warns, the splu backend serves every solve."""
        with pytest.warns(RuntimeWarning, match="scikit-sparse"):
            engine = BatchedAnalysisEngine(solver="cholmod")
        assert engine.cache_info().backend == "splu"
        voltages = engine.solve_voltages(base_compiled)
        assert np.all(np.isfinite(voltages))

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_cholmod_backend_factor_raises_without_binding(self, base_compiled):
        from repro.analysis import LinearSolverError

        with pytest.raises(LinearSolverError, match="scikit-sparse"):
            CholmodBackend().factor(base_compiled.reduced_matrix)


class TestSpluFactorization:
    """The default backend factors the SPD reduced matrix in symmetric mode."""

    def test_fill_below_the_unsymmetric_default(self, base_compiled):
        matrix = base_compiled.reduced_matrix.tocsc()
        unsymmetric = spla.splu(matrix)
        symmetric = SpluBackend().factor(matrix)._factor
        assert symmetric.L.nnz + symmetric.U.nnz < unsymmetric.L.nnz + unsymmetric.U.nnz

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
# CHOLMOD equivalence (runs only where scikit-sparse is installed)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not cholmod_available(), reason="scikit-sparse not installed")
class TestCholmodEquivalence:
    def test_backend_resolves(self):
        assert resolve_solver_backend("cholmod").name == "cholmod"
        assert resolve_solver_backend("auto").name == "cholmod"

    def test_voltages_match_splu(self, base_compiled):
        cholmod = BatchedAnalysisEngine(solver="cholmod")
        splu = BatchedAnalysisEngine(solver="splu")
        diff = cholmod.solve_voltages(base_compiled) - splu.solve_voltages(base_compiled)
        assert np.max(np.abs(diff)) <= VOLTAGE_TOLERANCE
        assert cholmod.cache_info().backend == "cholmod"

    def test_incremental_updates_on_cholmod_base(
        self, ibmpg1_bench, builder, base_compiled
    ):
        engine = BatchedAnalysisEngine(solver="cholmod")
        engine.analyze(base_compiled)
        clone = resized(builder, ibmpg1_bench, base_compiled, stripe_scale(ibmpg1_bench))
        incremental = engine.solve_voltages(clone)
        fresh = BatchedAnalysisEngine(solver="splu").solve_voltages(clone)
        assert np.max(np.abs(incremental - fresh)) <= VOLTAGE_TOLERANCE
        assert engine.cache_info().updates == 1


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

    def test_cache_keys_are_backend_qualified(self, base_compiled):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        (key,) = engine._cache.keys()
        assert key == f"splu:{base_compiled.fingerprint}"

    def test_cache_info_reports_backend(self):
        assert BatchedAnalysisEngine().cache_info().backend == "splu"
        assert BatchedAnalysisEngine(solver="auto").cache_info().backend in (
            "splu",
            "cholmod",
        )
