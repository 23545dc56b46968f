"""One fresh interpreter of the benchmark: set up a workload, optionally run it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode run --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --mode trace --seconds S --trace-file PATH

``setup`` imports the library, builds the workload's fixtures and exits.
``run`` then runs a closed loop (one client; each op starts when the previous
one has finished) over a fixed number of whole cycles of ops (see
:func:`closed_loop`).  ``trace`` runs the same ops with spans around the
library's public functions.

The last line of standard output is one JSON object.  ``ready`` is the
``time.perf_counter()`` reading when the first op was ready; on Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so the parent can subtract
the instant it started this interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

import numpy
import scipy

import workloads


def execute(workload, op):
    start = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception as exc:  # an op that raises is counted as a failed op
        result = exc
    latency = time.perf_counter() - start
    return latency, workload.check(op, result)


def closed_loop(workload, seconds: float, tracer=None, min_ops: int = 40) -> dict:
    """Warm up, then run whole cycles of ops, one at a time, and check each.

    The number of cycles is those that take ``seconds`` on the reference
    machine (``workload.CYCLE_S`` each), so every run of a seed checks the
    same ops; and at least ``min_ops`` ops, by default enough that the tail
    (10 samples beyond it) is at or above the 75th percentile.
    """
    for op in workload.warmup():
        execute(workload, op)
    if tracer is not None:
        tracer.install()
    ops = workload.cycle()
    cycles = max(math.ceil(seconds / workload.CYCLE_S), math.ceil(min_ops / len(ops)))
    labels, latencies, cycle_max_err, failures = [], [], [], []
    start = time.perf_counter()
    for cycle in range(cycles):
        errors = []
        for op in ops if cycle == 0 else workload.cycle():
            if tracer is not None:
                tracer.op_id = len(latencies)
            latency, outcome = execute(workload, op)
            labels.append(op.label)
            latencies.append(latency)
            if outcome.err is not None:
                errors.append(outcome.err)
            if not outcome.ok:
                failures.append({"op": op.label, "reason": outcome.reason})
        cycle_max_err.append(max(errors) if errors else None)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    unexpected = [f for f in failures if f["op"] not in workload.KNOWN_DEFECTS]
    return {
        "cycles": cycles,
        "elapsed_s": elapsed,
        "labels": labels,
        "latencies_s": latencies,
        "cycle_max_err": cycle_max_err,
        "failures": failures,
        "correct": not unexpected,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed)
    out = {"ready": time.perf_counter()}
    try:
        if args.mode == "run":
            out.update(closed_loop(workload, args.seconds))
        elif args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            out.update(closed_loop(workload, args.seconds, tracer))
            ops = len(out["latencies_s"])
            out["layers"] = tracer.layer_metrics(ops)
            tracer.write(args.trace_file)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
