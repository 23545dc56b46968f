"""Time whole benchmark cycles of two checkouts, alternating between them.

    python3 tools/ab_cycles.py ROOT_A ROOT_B --workload abreu_cross --pairs 40 --seed 1

Each root's ``perfbench/workloads.py`` is imported in its own interpreter,
which imports the library from that root's ``src/`` and writes no bytecode
there.  Both interpreters build the workload from the same seed and run its
warm-up ops; then each pair runs one whole cycle of fresh seeded ops in each
interpreter, one after the other, and the side that goes first alternates
from pair to pair.  A cycle's time is the sum of its ops' ``run`` times, as
``perfbench/worker.py`` times them; every op is checked, and a failure
outside the workload's ``KNOWN_DEFECTS`` makes the exit status 1.

A pair's ratio is A's cycle time over B's, so a ratio above 1 means B was
faster.  The last line gives the median of the ratios, in how many pairs B
was faster, and the ratios' quartiles (the exclusive method of
:func:`statistics.quantiles`), which show their spread.  BLAS is pinned to
one thread, as in ``perfbench/run.py``.  Two interpreters of one checkout
can differ by a few percent (each runs on its own core and cache), so run
the same root as A and B first to see how far from 1 a ratio must be to
mean anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs in each child interpreter: argv is ROOT WORKLOAD SEED, and each line
#: read from stdin asks for one cycle, answered with one JSON line.
SERVER = r"""
import json, sys, time
sys.dont_write_bytecode = True
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, root + "/perfbench")
import workloads, torickahler

def execute(w, op):
    start = time.perf_counter()
    try:
        result = w.run(op)
    except Exception as exc:
        result = exc
    return time.perf_counter() - start, w.check(op, result)

w = workloads.build(name, seed)
try:
    for op in w.warmup():
        execute(w, op)
    print(json.dumps({"library": torickahler.__file__}), flush=True)
    for _ in sys.stdin:
        seconds, failed = 0.0, []
        for op in w.cycle():
            latency, outcome = execute(w, op)
            seconds += latency
            if not outcome.ok:
                failed.append(op.label)
        unexpected = [label for label in failed if label not in w.KNOWN_DEFECTS]
        print(json.dumps({"seconds": seconds, "failed": len(failed), "unexpected": unexpected}), flush=True)
finally:
    if hasattr(w, "close"):
        w.close()
"""


def start(root: Path, workload: str, seed: int) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-c", SERVER, str(root), workload, str(seed)],
        cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    library = Path(reply(proc)["library"]).resolve()
    if not library.is_relative_to(root / "src"):
        raise SystemExit(f"error: {root} imported the library from {library}")
    return proc


def reply(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"error: a worker exited with status {proc.wait()}")
    return json.loads(line)


def cycle(proc: subprocess.Popen) -> dict:
    proc.stdin.write("cycle\n")
    proc.stdin.flush()
    return reply(proc)


def main(argv: list[str] | None = None) -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = [args.root_a.resolve(), args.root_b.resolve()]
    for root in roots:
        if not (root / "perfbench" / "workloads.py").is_file():
            parser.error(f"{root} has no perfbench/workloads.py")

    procs: list[subprocess.Popen] = []
    try:
        for root in roots:
            procs.append(start(root, args.workload, args.seed))
        ratios, failed, unexpected = [], [0, 0], [set(), set()]
        for pair in range(args.pairs):
            seconds = [0.0, 0.0]
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                out = cycle(procs[side])
                seconds[side] = out["seconds"]
                failed[side] += out["failed"]
                unexpected[side].update(out["unexpected"])
            ratios.append(seconds[0] / seconds[1])
            print(f"pair {pair + 1}: A {seconds[0] * 1e3:.1f} ms, B {seconds[1] * 1e3:.1f} ms, A/B {ratios[-1]:.3f}")
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait(timeout=60)
    for side, name in enumerate("AB"):
        print(f"{name}: {roots[side]}, {failed[side]} failed ops, unexpected: {sorted(unexpected[side]) or 'none'}")
    wins = sum(r > 1.0 for r in ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{args.workload}: median A/B {statistics.median(ratios):.3f} over {len(ratios)} pairs; "
          f"B faster in {wins}/{len(ratios)}; quartiles [{q1:.3f}, {q3:.3f}]")
    return 1 if unexpected[0] or unexpected[1] else 0


if __name__ == "__main__":
    raise SystemExit(main())
