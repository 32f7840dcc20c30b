#!/usr/bin/env python
"""Regression checker for the benchmark JSON records.

CI uploads every ``benchmarks/results/*.json`` record as a workflow
artifact and then runs this script, which fails the build when a recorded
speedup (or exactness invariant) falls below its acceptance bar.  Bars
that only hold on the full-size grids are skipped for records tagged
``"smoke": true`` (the tiny-grid CI runs), so smoke runs still exercise
the checker — including every exactness invariant — without asserting
full-scale performance.  Records from older benches without the tag fall
back to the ``scale`` heuristic.

Stdlib-only on purpose: it must run before (or without) the package being
installed.

Usage::

    python benchmarks/check_results.py [--results-dir benchmarks/results]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _gate_performance(record: dict) -> bool:
    """True when the record's performance bars should be enforced.

    The benches tag reduced-size runs with ``"smoke": true``; their
    speedup / throughput / fold-fraction bars are skipped (exactness
    invariants always apply).  Records without the tag — produced by an
    older bench — fall back to the full-scale heuristic: no ``scale``
    field (e.g. the engine micro-benchmark, which always runs the
    full-size grid) counts as full scale.
    """
    if "smoke" in record:
        return not bool(record["smoke"])
    return float(record.get("scale", 1.0)) == 1.0


def check_engine_batched_solve(record: dict) -> list[str]:
    problems = []
    if record.get("speedup", 0.0) < 3.0:
        problems.append(f"batched-solve speedup {record.get('speedup')} below the 3.0x bar")
    if record.get("batched_factorizations", 1) != 1:
        problems.append(
            f"batched sweep used {record.get('batched_factorizations')} factorizations, expected 1"
        )
    return problems


def check_planner_iteration(record: dict) -> list[str]:
    problems = []
    if _gate_performance(record) and record.get("iteration_build_speedup", 0.0) < 3.0:
        problems.append(
            f"planner iteration speedup {record.get('iteration_build_speedup')} "
            "below the 3.0x bar"
        )
    if _gate_performance(record) and not record.get("converged", False):
        problems.append("planner did not converge")
    return problems


def check_mega_sweep_sinks(record: dict) -> list[str]:
    problems = []
    if not record.get("exact_sinks_match", False):
        problems.append("streamed sinks did not match the dense reference bitwise")
    if record.get("factorizations", 1) != 1:
        problems.append(
            f"mega-sweep used {record.get('factorizations')} factorizations, expected 1"
        )
    if _gate_performance(record) and record.get("num_scenarios", 0) < 100_000:
        problems.append(
            f"full-scale mega-sweep ran {record.get('num_scenarios')} scenarios, "
            "expected >= 100000"
        )
    if "parallel_matches" not in record or "parallel_factorizations" not in record:
        problems.append(
            "record lacks the parallel-sweep fields (parallel_matches / "
            "parallel_factorizations) — produced by an older bench? re-run it"
        )
    else:
        if not record["parallel_matches"]:
            problems.append(
                "parallel mega-sweep did not match the sequential sweep bitwise"
            )
        if record["parallel_factorizations"] != 1:
            problems.append(
                f"parallel mega-sweep used {record['parallel_factorizations']} "
                "factorizations, expected 1"
            )
    # The throughput bar only holds where parallel chunk solving can
    # actually run concurrently: full-scale grids on a multi-core runner.
    if (
        _gate_performance(record)
        and int(record.get("cpu_count", 1)) >= 2
        and record.get("parallel_speedup", 0.0) < 1.5
    ):
        problems.append(
            f"parallel mega-sweep speedup {record.get('parallel_speedup')} below "
            f"the 1.5x bar on a {record.get('cpu_count')}-core runner"
        )
    if "process_matches" not in record or "process_factorizations" not in record:
        problems.append(
            "record lacks the process-sharded fields (process_matches / "
            "process_factorizations) — produced by an older bench? re-run it"
        )
    else:
        if not record["process_matches"]:
            problems.append(
                "process-sharded mega-sweep did not match the sequential sweep "
                "bitwise for the exact sinks / reductions"
            )
        if record["process_factorizations"] != 1:
            problems.append(
                f"process-sharded mega-sweep left {record['process_factorizations']} "
                "factorizations in the parent engine, expected 1 (cache warm)"
            )
    # Process sharding pays a pool + per-worker-factorization overhead, so
    # its >= 2x bar only holds with enough real cores to amortise it.
    if (
        _gate_performance(record)
        and int(record.get("cpu_count", 1)) >= 4
        and record.get("process_speedup", 0.0) < 2.0
    ):
        problems.append(
            f"process-sharded mega-sweep speedup {record.get('process_speedup')} "
            f"below the 2.0x bar on a {record.get('cpu_count')}-core runner"
        )
    if "hybrid_matches" not in record or "hybrid_payload_bytes_shared" not in record:
        problems.append(
            "record lacks the hybrid-executor fields (hybrid_matches / "
            "hybrid_payload_bytes_shared) — produced by an older bench? re-run it"
        )
    else:
        # Bitwise identity is unconditional — smoke runs included.
        if not record["hybrid_matches"]:
            problems.append(
                "hybrid mega-sweep did not match the sequential sweep bitwise "
                "for the exact sinks / reductions"
            )
        # At full scale both worker-context claims are measured, not
        # asserted: forked shards inherit the grid (nothing ships), and
        # the forkserver rerun ships it as the pickled sweep payload.
        full_scale = _gate_performance(record)
        forked_bytes = record["hybrid_payload_bytes_shared"]
        if full_scale and record.get("hybrid_start_method") == "fork" and forked_bytes != 0:
            problems.append(
                f"forked hybrid mega-sweep shipped {forked_bytes} payload bytes; "
                "fork shards should inherit their context"
            )
        if full_scale and record.get("hybrid_forkserver_payload_bytes_shared", 0) <= 0:
            problems.append(
                "forkserver hybrid mega-sweep shipped no payload "
                "(hybrid_forkserver_payload_bytes_shared == 0); the pickled "
                "worker-payload path was not exercised"
            )
    # Multiplying the two axes must beat each axis alone — but only where
    # there are enough real cores for both axes to make progress at once.
    if _gate_performance(record) and int(record.get("cpu_count", 1)) >= 4:
        single_axis = max(
            record.get("parallel_speedup", 0.0), record.get("process_speedup", 0.0)
        )
        if record.get("hybrid_speedup", 0.0) < single_axis:
            problems.append(
                f"hybrid mega-sweep speedup {record.get('hybrid_speedup')} below "
                f"the best single-axis speedup {single_axis} on a "
                f"{record.get('cpu_count')}-core runner"
            )
    if "remote_matches" not in record or "sketch_rel_error" not in record:
        problems.append(
            "record lacks the remote-executor fields (remote_matches / "
            "sketch_rel_error) — produced by an older bench? re-run it"
        )
    else:
        if not record["remote_matches"]:
            problems.append(
                "remote-fleet mega-sweep did not match the sequential sweep "
                "bitwise for the mergeable sinks / reductions"
            )
        if record.get("remote_factorizations", 1) != 1:
            problems.append(
                f"remote mega-sweep left {record.get('remote_factorizations')} "
                "factorizations in the parent engine, expected 1 (cache warm)"
            )
        # The sketch's accuracy contract is unconditional — smoke included.
        bound = float(record.get("sketch_relative_error_bound", 0.01))
        if record["sketch_rel_error"] > bound:
            problems.append(
                f"quantile sketch relative error {record['sketch_rel_error']} "
                f"above its documented {bound} bound"
            )
    # Like process sharding, the remote path pays coordinator + payload
    # overhead (HTTP upload, one factorization per worker), so its >= 1.5x
    # bar needs real cores.
    if (
        _gate_performance(record)
        and int(record.get("cpu_count", 1)) >= 4
        and record.get("remote_speedup", 0.0) < 1.5
    ):
        problems.append(
            f"remote-fleet mega-sweep speedup {record.get('remote_speedup')} "
            f"below the 1.5x bar on a {record.get('cpu_count')}-core runner"
        )
    # The vectorised P² fold must stay a small fraction of the solve, or
    # the fold serialises parallel sweeps again.
    if _gate_performance(record) and record.get("p2_fold_fraction", 0.0) >= 0.25:
        problems.append(
            f"P2 fold consumed {record.get('p2_fold_fraction')} of the sweep; "
            "the fold is the bottleneck again (bar: < 0.25)"
        )
    return problems


def check_planner_search(record: dict) -> list[str]:
    problems = []
    baseline = record.get("baseline", {})
    exact = record.get("exact_search", {})
    ranker = record.get("ranker_search", {})
    if not baseline or not exact or not ranker:
        return [
            "record lacks the baseline / exact_search / ranker_search sections "
            "— produced by an older bench? re-run it"
        ]
    # Exactness: every committed candidate must equal its independent
    # rebuild and solve bit for bit, smoke runs included.
    oracle_error = exact.get("oracle_max_voltage_error")
    if oracle_error != 0.0:
        problems.append(
            f"committed search candidates differ from their independent rebuild "
            f"by {oracle_error} (bar: 0.0)"
        )
    # Counter bookkeeping must balance in both search modes.
    for label, stats in (("exact_search", exact), ("ranker_search", ranker)):
        generated = stats.get("candidates_generated", -1)
        pruned = stats.get("candidates_pruned", -1)
        solved = stats.get("candidates_solved", -1)
        if generated < 0 or pruned < 0 or solved < 0:
            problems.append(f"{label} record lacks the candidate counters")
        elif generated != pruned + solved:
            problems.append(
                f"{label} counters do not balance: generated {generated} != "
                f"pruned {pruned} + solved {solved}"
            )
    if exact.get("candidates_pruned", 0) != 0:
        problems.append("exact search pruned candidates; it must solve every one")
    if ranker.get("candidates_pruned", 0) <= 0:
        problems.append("ranker search pruned nothing; the model gate did not run")
    if not _gate_performance(record):
        return problems
    # Full-scale bars: search quality.
    if exact.get("final_worst_ir_drop", float("inf")) > (
        baseline.get("final_worst_ir_drop", 0.0) + 1e-12
    ):
        problems.append(
            f"exact search final drop {exact.get('final_worst_ir_drop')} worse "
            f"than the one-move baseline {baseline.get('final_worst_ir_drop')}"
        )
    if ranker.get("relative_loss_vs_exact", 1.0) > 0.01:
        problems.append(
            f"ranker-pruned search lost {ranker.get('relative_loss_vs_exact')} "
            "final drop vs the exact search (bar: <= 1%)"
        )
    return problems


CHECKS = {
    "bench_engine_batched_solve.json": check_engine_batched_solve,
    "bench_planner_iteration.json": check_planner_iteration,
    "bench_mega_sweep_sinks.json": check_mega_sweep_sinks,
    "bench_planner_search.json": check_planner_search,
}

SUMMARY_FIELDS = {
    "bench_engine_batched_solve.json": ("speedup",),
    "bench_planner_iteration.json": ("iteration_build_speedup",),
    "bench_mega_sweep_sinks.json": (
        "scenarios_per_second",
        "parallel_speedup",
        "process_speedup",
        "hybrid_speedup",
        "hybrid_payload_bytes_shared",
        "hybrid_forkserver_payload_bytes_shared",
        "remote_speedup",
    ),
}
"""Key numbers each bench contributes to the compact ``BENCH_summary.json``."""

SUMMARY_NAME = "BENCH_summary.json"


def write_summary(results_dir: Path, records: dict, failed: set) -> Path:
    """Emit the one-line-per-bench summary CI uploads with the raw records.

    JSON-lines on purpose: one self-contained object per bench, so the
    perf trajectory stays greppable across PR artifacts
    (``grep hybrid_speedup */BENCH_summary.json``).
    """
    lines = []
    for name in sorted(records):
        record = records[name]
        entry = {
            "bench": name.removeprefix("bench_").removesuffix(".json"),
            "smoke": not _gate_performance(record),
            "ok": name not in failed,
        }
        for field in SUMMARY_FIELDS.get(name, ()):
            value = record.get(field)
            if isinstance(value, float):
                value = round(value, 4)
            entry[field] = value
        lines.append(json.dumps(entry))
    path = results_dir / SUMMARY_NAME
    path.write_text("\n".join(lines) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory holding the benchmark JSON records",
    )
    args = parser.parse_args(argv)

    if not args.results_dir.is_dir():
        print(f"no results directory at {args.results_dir}; nothing to check")
        return 0

    failures = []
    checked = 0
    records: dict[str, dict] = {}
    failed: set[str] = set()
    for path in sorted(args.results_dir.glob("*.json")):
        if path.name == SUMMARY_NAME:
            continue  # our own output from a previous run
        check = CHECKS.get(path.name)
        if check is None:
            print(f"  - {path.name}: no acceptance bars registered, skipped")
            continue
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            failures.append(f"{path.name}: unreadable JSON ({exc})")
            continue
        problems = check(record)
        checked += 1
        records[path.name] = record
        scale = record.get("scale", 1.0)
        if problems:
            failures.extend(f"{path.name}: {problem}" for problem in problems)
            failed.add(path.name)
            print(f"  - {path.name} (scale={scale}): FAIL")
        else:
            print(f"  - {path.name} (scale={scale}): ok")

    if records:
        summary_path = write_summary(args.results_dir, records, failed)
        print(f"compact summary written to {summary_path}")

    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"{checked} benchmark record(s) within acceptance bars")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
