"""Tests for the SuperLU backend and the engine's factorization cache.

Every grid the engine solves directly is factored fresh, a resized clone
included, so a clone's voltages equal a rebuilt grid's bit for bit on
every resize shape — single line, stripe, downsize, full grid, chained.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import (
    BatchedAnalysisEngine,
    EngineCacheInfo,
    LinearSolverError,
    SpluBackend,
)
from repro.grid import GridBuilder, SyntheticIBMSuite

from ..reference_rhs import reference_rhs


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
# Resized clones are factored fresh, exactly like a rebuild
# ----------------------------------------------------------------------
def downsize_scale(bench):
    scale = np.ones(bench.topology.num_lines)
    scale[1] = 0.6
    return scale


def full_grid_scale(bench):
    return np.full(bench.topology.num_lines, 1.6)


RESIZE_SHAPES = {
    "single-line": single_line_scale,
    "stripe": stripe_scale,
    "downsize": downsize_scale,
    "full-grid": full_grid_scale,
}


class TestFreshClones:
    """A :meth:`with_conductances` clone is one more grid to the engine: it
    is factored fresh from its own matrix, so its voltages equal those of
    a grid rebuilt from scratch at the same widths, bit for bit."""

    @pytest.mark.parametrize("shape", sorted(RESIZE_SHAPES))
    def test_clone_solves_like_a_rebuild(self, ibmpg1_bench, builder, base_compiled, shape):
        scale = RESIZE_SHAPES[shape](ibmpg1_bench)
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        clone = resized(builder, ibmpg1_bench, base_compiled, scale)
        rebuilt = builder.build_compiled(
            ibmpg1_bench.floorplan, ibmpg1_bench.topology, 5.0 * scale
        )
        voltages = engine.solve_voltages(clone)
        np.testing.assert_array_equal(
            voltages, BatchedAnalysisEngine().solve_voltages(rebuilt)
        )
        info = engine.cache_info()
        assert (info.factorizations, info.hits, info.entries) == (2, 0, 2)

    def test_chained_clone_solves_like_a_rebuild(self, ibmpg1_bench, builder, base_compiled):
        """A resize of a resize is factored from its own matrix too."""
        engine = BatchedAnalysisEngine()
        first = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        engine.analyze(first)
        scale = single_line_scale(ibmpg1_bench) * stripe_scale(ibmpg1_bench)
        second = builder.resize_compiled(first, ibmpg1_bench.topology, 5.0 * scale)
        rebuilt = builder.build_compiled(
            ibmpg1_bench.floorplan, ibmpg1_bench.topology, 5.0 * scale
        )
        np.testing.assert_array_equal(
            engine.solve_voltages(second), BatchedAnalysisEngine().solve_voltages(rebuilt)
        )
        assert engine.cache_info().factorizations == 2
        assert engine._factor(second)[0] is not engine._factor(first)[0]

    def test_identical_conductances_hit_the_cache(self, base_compiled):
        """A clone whose conductances did not change keeps the fingerprint,
        so it is served as a plain cache hit."""
        clone = base_compiled.with_conductances(base_compiled.conductance.copy())
        assert clone.fingerprint == base_compiled.fingerprint
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        engine.analyze(clone)
        info = engine.cache_info()
        assert (info.factorizations, info.hits, info.entries) == (1, 1, 1)

    def test_evicted_clone_is_factored_again(self, ibmpg1_bench, builder, base_compiled):
        """With one cache entry, alternating two grids refactors each time."""
        engine = BatchedAnalysisEngine(cache_size=1)
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        first = engine.solve_voltages(clone)
        engine.analyze(base_compiled)
        np.testing.assert_array_equal(engine.solve_voltages(clone), first)
        info = engine.cache_info()
        assert (info.factorizations, info.hits, info.entries) == (3, 0, 1)

    def test_clone_keeps_no_update_provenance(self, ibmpg1_bench, builder, base_compiled):
        """Nothing records the parent a clone came from: neither the
        grid nor the engine has a low-rank update path to feed."""
        clone = resized(builder, ibmpg1_bench, base_compiled, stripe_scale(ibmpg1_bench))
        for name in ("update_base_fingerprint", "update_indices", "update_columns"):
            assert not hasattr(clone, name)
        engine = BatchedAnalysisEngine()
        for name in ("factor_update", "incremental_updates", "update_policy"):
            assert not hasattr(engine, name)


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
        backend: every factorization then goes through it, each resized
        clone's included."""

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
        assert backend.calls == 2
        engine.analyze(
            resized(builder, ibmpg1_bench, base_compiled, full_grid_scale(ibmpg1_bench))
        )
        engine.analyze(base_compiled)
        info = engine.cache_info()
        assert (info.factorizations, info.hits) == (3, 1)
        assert backend.calls == info.factorizations


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
        rhs = reference_rhs(compiled, loads)
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
        engine.analyze(clone)
        before = engine.cache_info()
        assert (before.factorizations, before.hits, before.entries) == (2, 1, 2)
        engine.clear_cache()
        after = engine.cache_info()
        assert after.entries == 0
        assert (after.factorizations, after.hits) == (before.factorizations, before.hits)

    def test_cache_info_holds_three_counters(self):
        names = tuple(field.name for field in dataclasses.fields(EngineCacheInfo))
        assert names == ("factorizations", "hits", "entries")
        assert BatchedAnalysisEngine().cache_info() == EngineCacheInfo(0, 0, 0)

    def test_cache_key_is_the_fingerprint(self, base_compiled):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        (key,) = engine._cache.keys()
        assert key == base_compiled.fingerprint
