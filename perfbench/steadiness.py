"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads sweep-serial,paper-flow --seeds 1-10

For every workload and end-to-end metric this prints the median of the
runs, the interquartile distance over the median (``statistics.quantiles``
with n=4, the spread the acceptance rule uses) and the metric's bound
from ``BENCHMARK.json``.  A spread at or above the bound is marked
``FAIL``, one above a third of it ``wide``.  Every run's JSON record is
also printed, so the raw values stay available.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if completed.returncode != 0:
                print(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr}")
                return 1
            record = json.loads(completed.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: {json.dumps(record)}", flush=True)
            failed |= not record["correct"]
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for entry in spec["end_to_end"]:
            series = values[entry["name"]]
            spread = relative_spread(series)
            verdict = "FAIL" if spread >= entry["bound"] else (
                "wide" if spread > entry["bound"] / 3 else "ok"
            )
            print(
                f"{workload:15s} {entry['name']:12s} median {statistics.median(series):12.5g} "
                f"{entry['unit']:3s} spread {spread:7.4f}  bound {entry['bound']:.2f}  {verdict}"
            )
            failed |= spread >= entry["bound"]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
