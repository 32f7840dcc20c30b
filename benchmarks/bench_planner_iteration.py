"""Planner-iteration micro-benchmark: fresh build vs ``resize_compiled``.

The planner builds the compiled arrays once and then only rewrites the
stripe conductances per resize iteration (``GridBuilder.resize_compiled``),
reusing the frozen topology, index maps and COO→CSR sparsity pattern.
The test suite's reference planner (``tests/design/reference_planner.py``)
instead rebuilds the grid every iteration (``GridBuilder.build``, a view
over the vectorised ``build_compiled`` arrays) and assembles its matrix
from scratch.

This bench plans the largest shipped benchmark grid both ways, verifies
bit-identical convergence (iterations, per-iteration history, final
widths, worst IR drop), times one iteration's construction both ways — a
fresh ``build_compiled`` plus matrix assembly against ``resize_compiled``
plus the pattern refresh — and emits a JSON speedup record mirroring
``bench_engine_batched_solve.py``.  The acceptance bar is a ≥ 3x
per-iteration construction speedup at full grid scale.  Reduced-scale
records carry ``"smoke": true`` so ``check_results.py`` skips the
performance bars.

A second section (``test_planner_search_batched``) benchmarks the
batched candidate search against the one-move-per-iteration loop:
factorizations per committed move, wall-clock per iteration and final
worst drop for the baseline, the exact search and the NN-ranker-pruned
search, with every committed candidate checked bit for bit against an
independent rebuild and solve.  Its record lands in
``bench_planner_search.json``.

Run it from the repository root (``python -m pytest
benchmarks/bench_planner_iteration.py -q -o testpaths=``), so the
reference planner imports as ``tests.design.reference_planner``.

Environment variables:
    REPRO_BENCH_PLANNER_GRID: Benchmark to plan (default: the largest grid).
    REPRO_BENCH_SCALE: Global grid scale (tiny-grid CI smoke gate).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import bench_scale, full_scale

from repro.analysis import BatchedAnalysisEngine
from repro.core import format_key_values
from repro.design import CandidateRanker, ConventionalPowerPlanner, SearchConfig
from repro.grid import GridBuilder, SyntheticIBMSuite
from tests.design.reference_planner import reference_plan

MIN_SPEEDUP = 3.0
REPEATS = 3
SEARCH_ITERATIONS = 10
MAX_RANKER_LOSS = 0.01


def target_benchmark_name(suite: SyntheticIBMSuite) -> str:
    """Benchmark to plan: REPRO_BENCH_PLANNER_GRID or the largest grid."""
    override = os.environ.get("REPRO_BENCH_PLANNER_GRID", "").strip()
    if override:
        return override
    return max(suite.names(), key=lambda name: suite.config(name).approx_nodes)


def _iteration_history(plan) -> list[dict]:
    return [
        {
            "index": iteration.index,
            "worst_ir_drop": iteration.worst_ir_drop,
            "em_violations": iteration.em_violations,
            "lines_resized": iteration.lines_resized,
            "build_time": iteration.build_time,
            "analysis_time": iteration.analysis_time,
        }
        for iteration in plan.iterations
    ]


def test_planner_iteration_speedup(benchmark, results_dir):
    """Fresh build vs ``resize_compiled`` construction, identical convergence."""
    suite = SyntheticIBMSuite(scale=bench_scale())
    name = target_benchmark_name(suite)
    bench = suite.load(name)
    technology = bench.technology
    floorplan, topology = bench.floorplan, bench.topology

    reference_planner = ConventionalPowerPlanner(technology)
    fast_planner = ConventionalPowerPlanner(technology)
    reference = reference_plan(reference_planner, floorplan, topology)
    fast_plan = benchmark.pedantic(
        lambda: fast_planner.plan(floorplan, topology), rounds=1, iterations=1
    )

    # Convergence must be bit-identical to the reference planner's.
    assert fast_plan.num_iterations == reference.num_iterations
    assert fast_plan.converged == reference.converged
    assert np.array_equal(fast_plan.widths, reference.widths)
    assert fast_plan.ir_result.worst_ir_drop == reference.ir_result.worst_ir_drop
    for reference_it, fast_it in zip(reference.iterations, fast_plan.iterations):
        assert fast_it.lines_resized == reference_it.lines_resized
        assert fast_it.em_violations == reference_it.em_violations
        assert fast_it.worst_ir_drop == reference_it.worst_ir_drop

    # Per-iteration construction cost: what one resize round pays before the
    # solve.  Fresh: array build + first matrix assembly (the sparsity
    # pattern included).  Resize: conductance rewrite + pattern-based
    # matrix refresh.
    builder = GridBuilder(technology)
    initial_widths = fast_planner.sizer.size(floorplan, topology)
    resized_widths = fast_planner.rules.legalize_widths(initial_widths * 1.25)

    build_times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        builder.build_compiled(floorplan, topology, resized_widths).reduced_matrix
        build_times.append(time.perf_counter() - start)

    start = time.perf_counter()
    base = builder.build_compiled(floorplan, topology, initial_widths)
    base.reduced_matrix
    first_build_time = time.perf_counter() - start

    compiled_times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        builder.resize_compiled(base, topology, resized_widths).reduced_matrix
        compiled_times.append(time.perf_counter() - start)

    fresh_build_seconds = float(np.mean(build_times))
    compiled_seconds = float(np.mean(compiled_times))
    speedup = fresh_build_seconds / compiled_seconds

    record = {
        "benchmark": name,
        "scale": bench_scale(),
        "smoke": not full_scale(),
        "grid_statistics": dict(
            zip(
                ("num_nodes", "num_resistors", "num_sources", "num_loads"),
                reference.network.statistics().as_row(),
            )
        ),
        "num_iterations": reference.num_iterations,
        "converged": reference.converged,
        "fresh_iteration_build_seconds": fresh_build_seconds,
        "compiled_iteration_build_seconds": compiled_seconds,
        "compiled_first_build_seconds": first_build_time,
        "iteration_build_speedup": speedup,
        "reference_history": _iteration_history(reference),
        "compiled_history": _iteration_history(fast_plan),
        "reference_plan_total_seconds": reference.total_time,
        "compiled_plan_total_seconds": fast_plan.total_time,
    }
    print()
    print(
        format_key_values(
            {
                "benchmark": name,
                "iterations": reference.num_iterations,
                "fresh build (s)": round(fresh_build_seconds, 5),
                "resize_compiled (s)": round(compiled_seconds, 5),
                "compiled first build (s)": round(first_build_time, 5),
                "per-iteration speedup": round(speedup, 2),
                "plan total reference (s)": round(reference.total_time, 4),
                "plan total compiled (s)": round(fast_plan.total_time, 4),
            },
            title=f"fresh build vs resize_compiled planner iteration ({name})",
        )
    )
    with open(results_dir / "bench_planner_iteration.json", "w") as handle:
        json.dump(record, handle, indent=2)

    if full_scale():
        assert speedup >= MIN_SPEEDUP, (
            f"resize_compiled iteration speedup {speedup:.2f}x over a fresh build "
            f"below the {MIN_SPEEDUP}x bar"
        )


def _committed_moves(plan) -> int:
    """Moves the one-move loop actually applied (iterations that resized)."""
    return sum(1 for iteration in plan.iterations if iteration.lines_resized > 0)


def _oracle_verify(technology, floorplan, topology, moves) -> float:
    """Max voltage error of every committed candidate vs an independent solve.

    Each committed move is rebuilt from its absolute widths with
    ``build_compiled`` (bit-identical to the resize chain) and re-solved
    by a new engine against the move's recorded loads.  The rebuild has
    the committed candidate's matrix, so its factors and voltages are the
    same bits: anything but 0.0 is a fault.
    """
    builder = GridBuilder(technology)
    oracle = BatchedAnalysisEngine()
    worst = 0.0
    for move in moves:
        fresh = builder.build_compiled(floorplan, topology, move.widths)
        voltages = oracle.solve_voltages(fresh, move.loads)
        worst = max(worst, float(np.max(np.abs(voltages - move.voltages))))
    return worst


def test_planner_search_batched(results_dir):
    """Batched candidate search vs the one-move-per-iteration loop.

    All three modes start from a deliberately undersized grid (every
    stripe at the legal minimum) under one fixed iteration budget, so
    each pays a full analyse–resize trajectory:

    * **one-move baseline** — the conventional loop, fresh factorization
      per iteration (the paper's flow);
    * **exact search** — every candidate of every batch solved on its
      own freshly factored grid;
    * **ranker search** — the batch pruned by the NN ranker (trained on
      the exact run's observed improvements) before any solve.

    Gates: every committed candidate must equal an independent rebuild
    and solve bit for bit, every solve of the exact search must be a
    factorization or a cache hit, and the candidate counters must
    balance; at full scale the exact search must also reach a final
    worst drop no worse than the baseline, and the ranker-pruned search
    must lose <= 1% final drop vs exact.
    """
    suite = SyntheticIBMSuite(scale=bench_scale())
    name = target_benchmark_name(suite)
    bench = suite.load(name)
    technology = bench.technology
    floorplan, topology = bench.floorplan, bench.topology

    baseline_planner = ConventionalPowerPlanner(technology, max_iterations=SEARCH_ITERATIONS)
    tiny = np.full(topology.num_lines, baseline_planner.rules.min_width)
    baseline_plan = baseline_planner.plan(floorplan, topology, initial_widths=tiny)
    baseline_cache = baseline_planner.analyzer.cache_info()
    baseline_moves = max(_committed_moves(baseline_plan), 1)
    baseline_solves_per_move = baseline_cache.factorizations / baseline_moves

    exact_planner = ConventionalPowerPlanner(
        technology, max_iterations=SEARCH_ITERATIONS, search=True
    )
    exact_plan = exact_planner.plan(floorplan, topology, initial_widths=tiny.copy())
    exact_cache = exact_planner.analyzer.cache_info()
    exact_stats = exact_plan.search
    exact_moves = max(exact_stats.moves_committed, 1)
    exact_solves_per_move = exact_cache.factorizations / exact_moves

    oracle_max_error = _oracle_verify(
        technology, floorplan, topology, exact_stats.committed
    )
    assert oracle_max_error == 0.0, (
        f"committed candidate differs from its independent rebuild by {oracle_max_error}"
    )
    assert exact_cache.factorizations + exact_cache.hits == (
        exact_stats.candidates_solved + 1
    ), exact_cache
    assert exact_stats.candidates_generated == (
        exact_stats.candidates_pruned + exact_stats.candidates_solved
    )
    assert exact_stats.candidates_pruned == 0  # exact mode solves everything

    features, improvements = exact_stats.training_data()
    ranker = CandidateRanker()
    ranker.fit(features, improvements)
    ranker_planner = ConventionalPowerPlanner(
        technology,
        max_iterations=SEARCH_ITERATIONS,
        search=SearchConfig(ranker=ranker),
    )
    ranker_plan = ranker_planner.plan(floorplan, topology, initial_widths=tiny.copy())
    ranker_stats = ranker_plan.search
    assert ranker_stats.candidates_pruned > 0
    assert ranker_stats.candidates_generated == (
        ranker_stats.candidates_pruned + ranker_stats.candidates_solved
    )
    ranker_loss = (
        ranker_plan.ir_result.worst_ir_drop - exact_plan.ir_result.worst_ir_drop
    ) / exact_plan.ir_result.worst_ir_drop

    record = {
        "benchmark": name,
        "scale": bench_scale(),
        "smoke": not full_scale(),
        "iteration_budget": SEARCH_ITERATIONS,
        "baseline": {
            "final_worst_ir_drop": baseline_plan.ir_result.worst_ir_drop,
            "converged": baseline_plan.converged,
            "iterations": baseline_plan.num_iterations,
            "committed_moves": _committed_moves(baseline_plan),
            "factorizations": baseline_cache.factorizations,
            "solves_per_committed_move": baseline_solves_per_move,
            "seconds_per_iteration": (
                baseline_plan.total_time / baseline_plan.num_iterations
            ),
            "total_seconds": baseline_plan.total_time,
        },
        "exact_search": {
            "final_worst_ir_drop": exact_plan.ir_result.worst_ir_drop,
            "converged": exact_plan.converged,
            "iterations": exact_plan.num_iterations,
            "factorizations": exact_cache.factorizations,
            "hits": exact_cache.hits,
            "solves_per_committed_move": exact_solves_per_move,
            "seconds_per_iteration": (
                exact_plan.total_time / exact_plan.num_iterations
            ),
            "total_seconds": exact_plan.total_time,
            "oracle_max_voltage_error": oracle_max_error,
            **exact_stats.as_record(),
        },
        "ranker_search": {
            "final_worst_ir_drop": ranker_plan.ir_result.worst_ir_drop,
            "converged": ranker_plan.converged,
            "iterations": ranker_plan.num_iterations,
            "relative_loss_vs_exact": ranker_loss,
            "seconds_per_iteration": (
                ranker_plan.total_time / ranker_plan.num_iterations
            ),
            "total_seconds": ranker_plan.total_time,
            **ranker_stats.as_record(),
        },
    }
    print()
    print(
        format_key_values(
            {
                "benchmark": name,
                "baseline final drop (V)": round(
                    baseline_plan.ir_result.worst_ir_drop, 6
                ),
                "exact search final drop (V)": round(
                    exact_plan.ir_result.worst_ir_drop, 6
                ),
                "ranker final drop (V)": round(
                    ranker_plan.ir_result.worst_ir_drop, 6
                ),
                "ranker loss vs exact": f"{ranker_loss:+.3%}",
                "baseline solves/move": round(baseline_solves_per_move, 3),
                "search solves/move": round(exact_solves_per_move, 3),
                "candidates solved (exact)": exact_stats.candidates_solved,
                "candidates pruned (ranker)": ranker_stats.candidates_pruned,
                "oracle max voltage error": oracle_max_error,
            },
            title=f"batched planner search vs one-move loop ({name})",
        )
    )
    with open(results_dir / "bench_planner_search.json", "w") as handle:
        json.dump(record, handle, indent=2)

    if full_scale():
        assert exact_plan.ir_result.worst_ir_drop <= (
            baseline_plan.ir_result.worst_ir_drop + 1e-12
        ), "exact search finished worse than the one-move baseline"
        assert ranker_loss <= MAX_RANKER_LOSS, (
            f"ranker-pruned search lost {ranker_loss:.3%} final drop vs exact "
            f"(bar: {MAX_RANKER_LOSS:.0%})"
        )
