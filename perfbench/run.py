"""The repo's benchmark: one command for every workload and metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # every declared workload in turn

Each workload runs in a fresh interpreter (``python3 -m
perfbench.workload``) with the BLAS/OpenMP thread variables pinned to 1
and the program's ``REPRO_*`` environment defaults removed.  Set-up time
is one sample per interpreter, so ``SETUP_SAMPLES`` extra interpreters
only set up, half before the measuring interpreter and half after it,
and ``setup_s`` is the median over those and the measuring interpreter.
The workloads are the ones ``BENCHMARK.json`` declares.  The report
lists the run manifest, the workload's named figures, every check and
every metric with its unit; the last line of standard output is the
JSON record
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  The exit code is 2 when the checkout holds no program to
measure and 1 when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import THREAD_VARS, failure_rate  # noqa: E402

SETUP_SAMPLES = 4
"""Interpreters per untraced run that only set up, besides the measuring one.

They are split around the measuring interpreter so that the samples span
the whole run: on a shared host a slow spell of a few seconds would
otherwise hit every sample of a run at once."""
TIME_BUDGET_S = 170.0
"""Wall-clock budget of one workload, set-up samples included."""


class BenchmarkError(RuntimeError):
    """A workload process failed or reported something undeclared."""


def _child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def _spawn(arguments: list[str], deadline: float) -> tuple[float, dict]:
    """Run one workload process; return its spawn time and its JSON record."""
    command = [sys.executable, "-m", "perfbench.workload", *arguments]
    spawned = time.monotonic()
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(arguments)} exceeded the time budget") from exc
    if completed.stderr:
        sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"{' '.join(arguments)} exited with {completed.returncode}")
    return spawned, json.loads(lines[-1])


def _setup_sample(common: list[str], deadline: float) -> float:
    """Set-up time of one interpreter that only sets up."""
    spawned, sample = _spawn([*common, "--seconds", "0", "--setup-only"], deadline)
    return sample["ready"] - spawned


def _declared(spec: dict, trace: bool) -> dict[str, dict]:
    return {entry["name"]: entry for entry in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    """Measure one workload; print its report; return its JSON record."""
    deadline = time.monotonic() + TIME_BUDGET_S
    common = ["--workload", name, "--seed", str(args.seed), "--scale", str(args.scale)]
    extra = 0 if args.trace else SETUP_SAMPLES
    setup_samples = [_setup_sample(common, deadline) for _ in range(extra // 2)]
    spawned, record = _spawn(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    metrics = dict(record["metrics"])
    messages, attempted, failed = record["messages"], record["attempted"], record["failed"]
    setup_samples.append(record["ready"] - spawned)
    setup_samples += [_setup_sample(common, deadline) for _ in range(extra - extra // 2)]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_samples)

    declared = _declared(spec, bool(args.trace))
    if set(metrics) != set(declared):
        raise BenchmarkError(
            f"{name} reported {sorted(set(metrics) - set(declared))} undeclared and "
            f"missed {sorted(set(declared) - set(metrics))} declared metrics"
        )
    mode = "traced, per-layer" if args.trace else "untraced, end-to-end"
    print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  {mode}")
    print(f"manifest {json.dumps(record['manifest'], sort_keys=True)}")
    for key, value in record["figures"].items():
        print(f"figure {key} = {value}")
    for message in messages:
        print(f"check FAILED: {message}")
    print(
        f"operations attempted={attempted} failed={failed} "
        f"failure_rate={failure_rate(failed, attempted)}"
    )
    warm = sorted(record["warm_s"])
    print(
        f"warm operations n={len(warm)} min={warm[0]!r} median={statistics.median(warm)!r} "
        f"max={warm[-1]!r} (s, untraced)"
    )
    if not args.trace:
        print(f"setup samples (s) {setup_samples}")
    for metric, entry in declared.items():
        print(
            f"metric {metric} = {metrics[metric]!r} {entry['unit']} "
            f"({entry['better']} is better)"
        )
    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": entry["unit"]}
            for metric, entry in declared.items()
        },
    }
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser.add_argument("--workload", choices=(*workloads, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="benchmark size factor; below 1 only for smoke tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args, spec) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) > 1:
        print(
            json.dumps(
                {
                    "correct": all(result["correct"] for result in results.values()),
                    "attempted": sum(result["attempted"] for result in results.values()),
                    "failed": sum(result["failed"] for result in results.values()),
                    "metrics": {
                        f"{name}.{metric}": value
                        for name, result in results.items()
                        for metric, value in result["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
