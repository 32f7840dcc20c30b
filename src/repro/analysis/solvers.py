"""The sparse direct backend: one SuperLU factorization per grid.

The reduced MNA system the engine solves is symmetric positive definite.
:class:`SpluBackend` owns its factorization: SuperLU in symmetric mode,
the one factorization the engine uses, returned as a
:class:`Factorization` that solves one or many right-hand sides.  The
engine holds the backend as a settable ``solver_backend`` attribute, so a
wrapper (a timing probe, say) can stand in for it.  Every grid the engine
solves is factored fresh, a planner's resized clone included; a grid too
large to factor in memory raises :class:`LinearSolverError`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinearSolverError(RuntimeError):
    """Raised when the nodal system could not be factored or solved.

    Shared by the solver backend and the engine.
    """


class Factorization:
    """One factorization of a reduced conductance matrix.

    The engine's cache stores these; the only operation the solve paths
    need is :meth:`solve` against one or many right-hand sides.

    Attributes:
        backend: Name of the backend that produced the factorization.
    """

    backend: str = "?"

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
        except MemoryError as exc:
            raise LinearSolverError(
                f"factorization of {matrix.shape[0]} unknowns ran out of memory"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SpluBackend()"
