"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload jet_sweep --seed 1 --seconds 10 --trace 0

Run it from anywhere; the library is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` the per-layer metrics
and the tracing overhead.  The lines before it give provenance, the tail
percentile and its sample count, and every failed op.  A record of the run
goes to ``.bench_out/`` and the spans of a traced run to a file beside it.

Every measurement is made in a fresh interpreter (``worker.py``) with BLAS
pinned to one thread.  A run does a fixed number of cycles of ops, as many as
take ``--seconds`` on the reference machine, so every run of a seed checks the
same ops.  ``setup_s`` is the median over several interpreters of the time
from starting the interpreter until the first op is ready.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("jet_sweep", "abreu_cross", "cli_session")
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(deadline: float, workload: str, seed: int, mode: str, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + list(extra),
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {mode} for {workload} ran past the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def digits(err: float) -> float:
    """log10(1 + 1/err): about -log10(err) when small, always positive.

    Below 1e-17 a double has no more digits to give.
    """
    return min(17.0, math.log10(1.0 + 1.0 / err)) if err > 0 else 17.0


def max_err(run: dict) -> tuple[float, float]:
    """(worst error of the run, median over cycles of each cycle's worst error).

    The run's worst error depends on which rare input the seed happened to
    draw and varies tenfold between seeds; the typical cycle's worst does not.
    """
    per_cycle = [e for e in run["cycle_max_err"] if e is not None]
    return max(per_cycle), statistics.median(per_cycle)


def end_to_end(run: dict, setup_s: float) -> dict:
    lat = run["latencies_s"]
    tail_s, _ = tail(lat)
    return {
        "ops_per_s": (len(lat) / run["elapsed_s"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "max_err_digits": (digits(max_err(run)[1]), "digits"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def source_digest() -> str:
    """sha256 over the library sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="torickahler benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "torickahler" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    w, s, seconds = args.workload, args.seed, str(args.seconds)

    if args.trace == 0:
        spawn(deadline, w, s, "setup")  # fills bytecode caches; not counted
        setup_s = statistics.median(spawn(deadline, w, s, "setup")["setup_s"] for _ in range(SETUP_SAMPLES))
        run = spawn(deadline, w, s, "run", "--seconds", seconds)
        metrics = end_to_end(run, setup_s)
        correct = run["correct"]
    else:
        plain = spawn(deadline, w, s, "run", "--seconds", seconds)
        trace_file = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        run = spawn(deadline, w, s, "trace", "--seconds", seconds, "--trace-file", str(trace_file))
        metrics = dict(run["layers"])
        traced_e2e = end_to_end(run, run["setup_s"])
        for name, (value, unit) in end_to_end(plain, plain["setup_s"]).items():
            metrics[f"trace_overhead.{name}"] = (traced_e2e[name][0] - value, unit)
        correct = run["correct"] and plain["correct"]

    attempted = len(run["latencies_s"])
    failed = len(run["failures"])
    _, tail_pct = tail(run["latencies_s"])
    provenance = {
        "argv": sys.argv,
        "seed": args.seed,
        "workload": args.workload,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": run["versions"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "closed_loop": "1 client, next op starts when the previous one finished",
        "cycles": run["cycles"],
        "measured_s": run["elapsed_s"],
        "tail_percentile": tail_pct,
        "samples": attempted,
        "fail_rate": failed / attempted,
        "max_err": max_err(run)[0],
        "cycle_max_err_median": max_err(run)[1],
    }
    by_op: dict[str, dict] = {}
    for f in run["failures"]:
        entry = by_op.setdefault(f["op"], {"count": 0, "reason": f["reason"]})
        entry["count"] += 1
    print("# provenance " + json.dumps(provenance))
    print(f"# op_tail_ms is the p{tail_pct:.1f} latency of {attempted} ops")
    print(f"# fail_rate {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"# max_err {provenance['max_err']!r}: worst |v - ref| / (1 + |ref|) of the run; "
          f"median over cycles of each cycle's worst {provenance['cycle_max_err_median']!r}")
    for label, entry in sorted(by_op.items()):
        print(f"# failed {entry['count']}x {label}: {entry['reason']}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"provenance": provenance, "failed_ops": by_op, "result": result}
    (OUT / f"run_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
