"""Central registry of every environment variable the repo reads.

Every ``REPRO_*`` knob must be declared here with a one-line description
— the :mod:`repro.devtools.lint` rule ``RPR006`` (env-var registry)
rejects any ``os.environ`` / ``os.getenv`` read whose key is missing
from :data:`KNOWN_ENV_VARS`, so this table cannot silently go stale.

Conventions the linter enforces alongside the registry:

* Read keys through a module-level ``*_ENV`` string constant (e.g.
  ``EXECUTOR_ENV = "REPRO_TEST_EXECUTOR"``) or a string literal, never a
  dynamically-built expression — a key the linter cannot resolve cannot
  be checked against this table.
* The constant's *definition* is checked where it is assigned, so a
  module importing someone else's ``*_ENV`` constant needs no local
  entry lookup.
"""

from __future__ import annotations

KNOWN_ENV_VARS: dict[str, str] = {
    # --- engine executor default (test-suite steering) ---------------
    "REPRO_TEST_EXECUTOR": (
        "Default sweep executor (serial|threads|processes|hybrid|remote) "
        "for every analyze_* call that passes no executor=; unset means "
        "serial."
    ),
    # --- remote fleet -------------------------------------------------
    "REPRO_REMOTE_COORDINATOR": (
        "Base URL of the standing sweep coordinator RemoteExecutor submits "
        "to when coordinator= is not passed; required by the remote executor."
    ),
    # --- benchmark harness --------------------------------------------
    "REPRO_BENCH_SCALE": (
        "Grid-size scale factor of the benchmark suite (1 = full scale; "
        "CI smoke runs use 0.15 and tag records as smoke)."
    ),
    "REPRO_BENCH_EPOCHS": "Training-epoch budget of the NN benchmark legs.",
    "REPRO_BENCH_SUITE": "Benchmark-grid suite override of benchmarks/conftest.py.",
    "REPRO_BENCH_PLANNER_GRID": (
        "Benchmark-grid override of the planner iteration / search benches."
    ),
}
"""Mapping of environment-variable name to its one-line contract."""
