"""One workload in a fresh interpreter: set up, measure, check, report.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.workload`` from
the checkout root.  The last line of standard output is one JSON record:
``ready`` (the ``time.monotonic()`` at which the inputs were ready, so the
parent can time set-up from its own spawn), the operation counts, the
check messages, the metrics and the run manifest.  With ``--setup-only``
the process stops after set-up and reports only ``ready``.
"""

from __future__ import annotations

import os

from .stats import THREAD_VARS

# Pinned before numpy is first imported: an unpinned BLAS oversubscribes
# the sharded sweeps (see README.md, "Measured findings").
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from .flows import WORKLOADS, Op, Workload, layer_metrics  # noqa: E402
from .stats import manifest  # noqa: E402
from .tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _attempt(workload: Workload, tracer: Tracer | None, cold: Op | None, log: list) -> Op:
    """Run one operation and its checks; record the messages in ``log``.

    The previous operation's garbage is collected first, so neither its
    collection pauses nor its leftover objects land in this operation's
    time and memory.  A traced operation runs inside a ``cold`` or
    ``warm`` span, by which the per-layer shares tell the phases apart.
    """
    gc.collect()
    phase = nullcontext() if tracer is None else tracer.span("cold" if cold is None else "warm")
    with phase:
        op = workload.run(tracer, cold=cold is None)
    failures = workload.check(op, cold or op)
    op.failed = bool(failures)
    log.extend(failures)
    return op


def measure(workload: Workload, seconds: float) -> dict:
    """The cold operation, then warm ones until ``seconds`` have passed.

    In a traced run warm operations alternate traced and untraced (traced
    first); the untraced ones are the reference for the tracing overhead.
    """
    tracer = Tracer()
    workload.setup(tracer)
    ready = time.monotonic()
    trace = workload.trace
    messages: list[str] = []
    start = time.perf_counter()
    cold = _attempt(workload, tracer if trace else None, None, messages)
    warm: list[Op] = []
    minimum = 2 if trace else workload.min_warm_ops
    while time.perf_counter() - start < seconds or len(warm) < minimum:
        traced = trace and len(warm) % 2 == 0
        warm.append(_attempt(workload, tracer if traced else None, cold, messages))
    peak_rss_mb = max(_peak_rss_mb(resource.RUSAGE_SELF), _peak_rss_mb(resource.RUSAGE_CHILDREN))

    reference = workload.reference_check(cold)
    messages.extend(reference)
    ops = [cold, *warm]
    failed = len(ops) if reference else sum(op.failed for op in ops)
    if trace:
        metrics = layer_metrics(tracer, workload, cold, warm)
        metrics["executors.children_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    else:
        # The fastest warm operation: on a shared host other tenants only
        # ever add time, and the fastest operation of a run is far steadier
        # from run to run than the median (see README.md).
        metrics = {
            "warm_min_ms": min(op.wall for op in warm) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "ready": ready,
        "warm_s": [op.wall for op in warm if not op.traced],
        "attempted": len(ops),
        "failed": failed,
        "messages": messages,
        "metrics": metrics,
        "figures": workload.figures(cold, warm),
        "manifest": manifest(
            ROOT, workload.name, workload.seed, workload.params(), workload.executor(cold)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.scale, trace=bool(args.trace))
    if args.setup_only:
        workload.setup(Tracer())
        record = {"ready": time.monotonic()}
    else:
        record = measure(workload, args.seconds)
    print(json.dumps(record, default=_json_default))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
