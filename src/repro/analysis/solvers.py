"""The sparse direct backend and low-rank incremental updates.

The reduced MNA system the engine solves is symmetric positive definite.
This module holds the three parts of how the engine solves it:

* **The backend** (:class:`SpluBackend`) owns the *fresh* factorization
  of a reduced matrix: SuperLU in symmetric mode, the one factorization
  the engine uses.  The engine holds it as a settable ``solver_backend``
  attribute, so a wrapper (a timing probe, say) can stand in for it.

* **Incremental updates** (:func:`make_update_factorization`) serve the
  planner's analyse–resize loop.  A resize that touches the conductances
  of ``r`` branches changes the reduced matrix by the low-rank symmetric
  term ``ΔG = B·diag(Δg)·Bᵀ`` where ``B`` is the (reduced-space) incidence
  of the touched branches.  Instead of refactorizing, the new system is
  solved against the *previous* factorization:

  - at small rank, literally via the Sherman–Morrison–Woodbury identity
    (:class:`WoodburyFactorization`) — two triangular solves against the
    base factorization plus a dense ``r × r`` capacitance solve;
  - at planner-scale rank, via the capacitance-free formulation
    (:class:`PreconditionedUpdateFactorization`): conjugate gradients on
    the *new* matrix preconditioned by the base factorization.  For an
    upsize-only resize by factor ``α`` the update satisfies
    ``ΔG ⪯ (α−1)·G₀``, so ``κ(G₀⁻¹G₁) ≤ α`` and CG converges in a handful
    of iterations to far below the engine's 1e-9 equivalence bar — the
    ``r × r`` capacitance matrix is never formed.

  Both paths raise :class:`UpdateDivergenceError` when they cannot reach
  the requested tolerance, letting the engine fall back to a fresh
  factorization and count the downgrade.

* **Policy** (:class:`UpdatePolicy`) holds the crossover knobs: the dense
  Woodbury rank limit, the rank fraction past which an update is not
  attempted at all, and the CG tolerance / iteration cap.

Systems above the engine's ``direct_size_limit`` are never factored:
:func:`solve_cg` solves them by Jacobi-preconditioned conjugate gradients,
one right-hand side at a time, holding only the matrix and a few vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinearSolverError(RuntimeError):
    """Raised when the nodal system could not be solved to tolerance.

    Shared by the solver backend, the conjugate-gradient fallback and
    the engine.
    """


class UpdateDivergenceError(LinearSolverError):
    """An incremental update factorization could not reach its tolerance.

    Raised by the update solve paths (and by update construction when the
    capacitance system is unusable); the engine responds by refactorizing
    fresh and counting the downgrade in ``EngineCacheInfo.update_fallbacks``.
    """


@dataclass(frozen=True)
class UpdatePolicy:
    """Crossover and tolerance knobs of the incremental-update path.

    Attributes:
        dense_rank_limit: Largest update rank served by the explicit dense
            Woodbury path; above it the capacitance-free preconditioned-CG
            path is used (whose cost is independent of the rank).
        crossover_fraction: Updates whose rank exceeds this fraction of the
            unknown count are not attempted at all — a fresh factorization
            is cheaper and unconditionally accurate (e.g. a full-grid
            resize, where the "update" touches every branch).
        rtol: Relative residual tolerance of the preconditioned-CG update
            solve.  Far below the engine's 1e-9 voltage-equivalence bar.
        maxiter: CG iteration cap; hitting it raises
            :class:`UpdateDivergenceError` so the engine can refactorize
            instead of returning an inaccurate solution.
    """

    dense_rank_limit: int = 32
    crossover_fraction: float = 0.5
    rtol: float = 1e-12
    maxiter: int = 64

    def __post_init__(self) -> None:
        if self.dense_rank_limit < 0:
            raise ValueError("dense_rank_limit must be non-negative")
        if not 0.0 < self.crossover_fraction <= 1.0:
            raise ValueError("crossover_fraction must be in (0, 1]")
        if self.rtol <= 0.0:
            raise ValueError("rtol must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


class Factorization:
    """One factorization of a reduced conductance matrix.

    The engine's cache stores these; the only operation the solve paths
    need is :meth:`solve` against one or many right-hand sides.

    Attributes:
        backend: Name of the backend that produced the base factorization.
        update_rank: Rank of the low-rank update this factorization
            applies on top of its base (0 for fresh factorizations).
    """

    backend: str = "?"
    update_rank: int = 0

    @property
    def is_update(self) -> bool:
        """True when this factorization reuses a previous one's factors."""
        return False

    @property
    def direct(self) -> "Factorization":
        """The underlying fresh factorization (itself when not an update)."""
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against a ``(n,)`` vector or ``(n, k)`` RHS block."""
        raise NotImplementedError


class SpluFactorization(Factorization):
    """SuperLU factorization (the engine's one direct path)."""

    backend = "splu"

    def __init__(self, factor: spla.SuperLU) -> None:
        self._factor = factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor.solve(rhs)


class SpluBackend:
    """Sparse LU via ``scipy.sparse.linalg.splu``: the engine's one backend.

    The reduced matrix is symmetric positive definite — the engine rejects
    grids with a node that reaches neither a pad nor ground, the one way it
    could be singular — so SuperLU factors it in symmetric mode: a minimum
    degree ordering of ``Aᵀ + A`` applied to rows and columns alike, and
    the diagonal taken as pivot without any row interchange.  Against the
    general unsymmetric treatment (COLAMD, partial pivoting) this cuts the
    fill of ``L + U`` (ibmpg1: 44 040 → 34 656 entries) and with it every
    triangular solve.
    """

    name = "splu"

    def factor(self, matrix: sp.spmatrix) -> SpluFactorization:
        try:
            return SpluFactorization(
                spla.splu(
                    matrix.tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            )
        except RuntimeError as exc:
            raise LinearSolverError(f"factorization failed: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SpluBackend()"


class WoodburyFactorization(Factorization):
    """Exact small-rank update via the Sherman–Morrison–Woodbury identity.

    With ``A₁ = A₀ + B·diag(δ)·Bᵀ`` and ``F₀`` the factorization of
    ``A₀``::

        A₁⁻¹ rhs = y − W · C⁻¹ · (Bᵀ y),   y = F₀⁻¹ rhs,
        W = F₀⁻¹ B,   C = diag(δ)⁻¹ + Bᵀ W

    ``W`` and the dense LU of the ``r × r`` capacitance matrix ``C`` are
    computed once at construction; each subsequent solve costs one base
    triangular solve plus dense rank-``r`` corrections, which makes this
    the right shape when an updated matrix serves *many* right-hand sides.
    """

    def __init__(
        self,
        base: Factorization,
        update_incidence: sp.spmatrix,
        delta: np.ndarray,
    ) -> None:
        self.backend = base.backend
        self.update_rank = int(delta.size)
        self._base = base
        self._B = update_incidence.tocsc()
        dense_b = self._B.toarray()
        self._W = base.solve(dense_b)
        capacitance = np.diag(1.0 / delta) + dense_b.T @ self._W
        if not np.all(np.isfinite(capacitance)):
            raise UpdateDivergenceError("Woodbury capacitance matrix is not finite")
        try:
            self._capacitance_lu = sla.lu_factor(capacitance)
        except sla.LinAlgError as exc:
            raise UpdateDivergenceError(
                f"Woodbury capacitance matrix is singular: {exc}"
            ) from exc

    @property
    def is_update(self) -> bool:
        return True

    @property
    def direct(self) -> Factorization:
        return self._base

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._base.solve(rhs)
        correction = sla.lu_solve(self._capacitance_lu, self._B.T @ y)
        return y - self._W @ correction


class PreconditionedUpdateFactorization(Factorization):
    """Capacitance-free update: CG on the new matrix, base as preconditioner.

    Solves ``A₁ x = rhs`` by conjugate gradients preconditioned with the
    base factorization ``F₀ ≈ A₁⁻¹``.  The ``r × r`` capacitance matrix of
    the Woodbury identity is never formed, so the per-solve cost is
    independent of the update rank — it depends only on how far the update
    moved the spectrum (for an upsize-only resize by ``α``,
    ``κ(A₀⁻¹A₁) ≤ α``, giving convergence in ~10 iterations at planner
    settings).  Divergence (iteration cap, non-finite iterates) raises
    :class:`UpdateDivergenceError` instead of returning a bad solution.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        base: Factorization,
        update_rank: int,
        policy: UpdatePolicy,
    ) -> None:
        self.backend = base.backend
        self.update_rank = int(update_rank)
        self.iterations = 0
        self._matrix = matrix.tocsr()
        self._base = base
        self._policy = policy
        n = self._matrix.shape[0]
        self._preconditioner = spla.LinearOperator((n, n), matvec=base.solve)

    @property
    def is_update(self) -> bool:
        return True

    @property
    def direct(self) -> Factorization:
        return self._base

    def _solve_column(self, rhs: np.ndarray) -> np.ndarray:
        iterations = 0

        def count(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        solution, info = spla.cg(
            self._matrix,
            rhs,
            rtol=self._policy.rtol,
            atol=0.0,
            maxiter=self._policy.maxiter,
            M=self._preconditioner,
            callback=count,
        )
        self.iterations += iterations
        if info != 0 or not np.all(np.isfinite(solution)):
            raise UpdateDivergenceError(
                f"incremental update solve did not converge within "
                f"{self._policy.maxiter} iterations (rank {self.update_rank}); "
                "refactorize fresh"
            )
        return solution

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return self._solve_column(rhs)
        return np.column_stack([self._solve_column(rhs[:, k]) for k in range(rhs.shape[1])])


CG_RTOL = 1e-10
"""Relative residual tolerance of :func:`solve_cg`."""

CG_MAX_ITERATIONS = 20_000
"""Iteration cap of :func:`solve_cg`; reaching it raises :class:`LinearSolverError`."""


def solve_cg(matrix: sp.spmatrix, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve ``matrix @ x = rhs`` by Jacobi-preconditioned conjugate gradients.

    The engine's path for systems too large to factor: CG to a relative
    residual of :data:`CG_RTOL`, preconditioned by the inverse diagonal.

    Returns:
        The solution and the number of CG iterations it took.

    Raises:
        LinearSolverError: If the matrix has a non-positive diagonal entry
            (it cannot be SPD), or CG does not converge within
            :data:`CG_MAX_ITERATIONS` iterations.
    """
    diagonal = matrix.diagonal()
    if np.any(diagonal <= 0):
        raise LinearSolverError("conductance matrix has a non-positive diagonal entry")
    preconditioner = spla.LinearOperator(matrix.shape, matvec=lambda x: x / diagonal)
    iterations = 0

    def count(_xk: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1

    solution, info = spla.cg(
        matrix,
        rhs,
        rtol=CG_RTOL,
        maxiter=CG_MAX_ITERATIONS,
        M=preconditioner,
        callback=count,
    )
    if info > 0:
        raise LinearSolverError(
            f"CG did not converge within {CG_MAX_ITERATIONS} iterations (info={info})"
        )
    if info < 0:
        raise LinearSolverError(f"CG failed with illegal input (info={info})")
    return solution, iterations


def make_update_factorization(
    matrix: sp.spmatrix,
    base: Factorization,
    update_incidence: sp.spmatrix,
    delta: np.ndarray,
    policy: UpdatePolicy,
) -> Factorization:
    """Build the update factorization the policy prescribes for this rank.

    Args:
        matrix: The *new* reduced matrix ``A₁`` (already assembled — the
            compiled grid's pattern-based refresh makes this cheap).
        base: Fresh factorization of the base matrix ``A₀``.
        update_incidence: ``(num_unknowns, r)`` incidence ``B`` of the
            touched branches (from
            :meth:`~repro.grid.compiled.CompiledGrid.update_columns`).
        delta: ``(r,)`` conductance deltas ``Δg`` (all non-zero).
        policy: Crossover / tolerance knobs.

    Raises:
        UpdateDivergenceError: When the dense capacitance system is
            unusable; rank-vs-crossover decisions are the caller's.
    """
    rank = int(delta.size)
    if rank <= policy.dense_rank_limit:
        return WoodburyFactorization(base, update_incidence, delta)
    return PreconditionedUpdateFactorization(matrix, base, rank, policy)
