"""Summary statistics, failure accounting and the run manifest.

Importing it needs only the standard library (numpy and scipy are
imported inside the manifest helpers), so ``run.py`` can use it before
the program under test is importable.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from fractions import Fraction
from pathlib import Path
from typing import Sequence

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
"""BLAS/OpenMP thread variables every workload process pins to 1."""

TAIL_LEVELS = (99.9, 99.0, 90.0)


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest value with ``level``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < level <= 100.0:
        raise ValueError(f"percentile level must be in (0, 100], got {level}")
    ordered = sorted(values)
    return ordered[max(_rank(level, len(ordered)), 1) - 1]


def _rank(level: float, count: int) -> int:
    """1-based nearest rank of ``level`` in ``count`` samples, in exact arithmetic."""
    return math.ceil(Fraction(str(level)) * count / 100)


def tail_level(count: int, beyond: int = 10) -> float | None:
    """Highest of 99.9/99/90 with at least ``beyond`` samples above it, else None."""
    for level in TAIL_LEVELS:
        if count - _rank(level, count) >= beyond:
            return level
    return None


def failure_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("failure rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (``statistics.quantiles``, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def _git_sha(root: Path) -> str:
    """The checked-out commit read from ``.git`` (no git process), or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def manifest(root: Path, workload: str, seed: int, params: dict, executor: dict) -> dict:
    """Everything needed to decide whether two records are comparable."""
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "params": params,
        "executor": executor,
    }
