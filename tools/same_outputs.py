"""Compare what two checkouts output, byte for byte.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each root runs in its own child interpreter, which imports the library from
that root's ``src/`` and writes no bytecode there.  The child runs every argv
of ``ARGVS`` through ``cli.dispatch``, once with ``--format json`` and once
with ``--format csv``, and records the exit code, stdout and stderr.  It then
runs the warm-up and one cycle of every workload in the root's
``perfbench/workloads.py`` for seeds 1-3, and records each op's inputs and
output with every float written by ``float.hex`` (an exception as its type
and message).  The two records are compared key by key.

Each difference is printed, with the first line where the two differ.  The
exit status is 0 when there is none, 1 when there is one, and 2 on a usage
error (a root without ``src/torickahler`` or ``perfbench/workloads.py``) or
when a root's child interpreter fails or imports another root's library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

CATALOG_T = {"flat": 2.0, "fubini_study": 0.3, "generalized_burns": 2.0, "burns_simanca": 2.0}
CATALOG_T_RANGE = {"flat": "0.5..5", "fubini_study": "0.05..0.95", "generalized_burns": "1.5..8",
                   "burns_simanca": "1.001..50"}

#: The argv compared, without ``--format``.
ARGVS = (
    # Every subcommand with its defaults, given what it requires.
    [["verify-catalog"], ["derive", "--dim", "3"], ["legendre"], ["decay", "--dim", "2"],
     ["curvature", "--potential", "fubini_study", "--dim", "2", "--t", "0.3"],
     ["admissible", "--potential", "fubini_study", "--t-range", "0.1..0.9"]]
    # Each catalog name through curvature --t, at a t of its range and at 1e200, and admissible.
    + [argv + ["--dim", str(n)]
       for name in CATALOG_T
       for argv in (["curvature", "--potential", name, "--t", repr(CATALOG_T[name])],
                    ["curvature", "--potential", name, "--t", "1e200"],
                    ["admissible", "--potential", name, "--t-range", CATALOG_T_RANGE[name]])
       for n in (1, 2, 3, 5, 8)]
    # The CI smoke argv.
    + [["verify-catalog", "--dims", "1..4"],
       ["curvature", "--potential", "generalized_burns", "--dim", "3", "--t", "2.0"],
       ["curvature", "--potential", "burns_simanca", "--dim", "3", "--point", "0.6,0.6,0.6"],
       ["curvature", "--potential", "burns_simanca", "--dim", "3", "--point", "10,10,10"],
       ["decay", "--dim", "2", "--u-max", "1e160"],
       ["legendre", "--potential", "fubini_study", "--dim", "200", "--samples", "2"],
       ["decay", "--dim", "200"],
       ["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "1.001..50"],
       ["curvature", "--potential", "flat", "--dim", "1", "--t", "1e308"],
       ["verify-catalog", "--tol", "inf"],
       ["derive", "--dim", "3", "--seed", "-1"],
       ["decay", "--dim", "3", "--u-max", "1.7e308"],
       ["admissible", "--potential", "generalized_burns", "--t-range", "1.0001..1.7e308"],
       ["curvature", "--potential", "flat", "--dim", "2", "--point", "1e160,1e160"]]
    # The malformed input of the cli_session workload.
    + [["derive"],
       ["curvature", "--potential", "nope", "--dim", "2", "--t", "0.5"],
       ["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "5"],
       ["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "5..1"],
       ["decay", "--dim", "3", "--samples", "4"],
       ["curvature", "--potential", "burns_simanca", "--dim", "3", "--point", "0.1,0.1,0.1"],
       ["legendre", "--samples", "0"],
       ["admissible", "--potential", "fubini_study", "--t-range", "0.1..0.9", "--samples", "-5"]]
    # Large dimensions.
    + [["derive", "--dim", "1"], ["derive", "--dim", "50"], ["derive", "--dim", "200"], ["derive", "--dim", "1000"],
       ["curvature", "--potential", "burns_simanca", "--dim", "1100", "--t", "2.0"]]
)

SEEDS = (1, 2, 3)

#: Runs in each child interpreter: argv is ROOT and the JSON of [ARGVS, SEEDS]; it prints one JSON record.
CHILD = r"""
import contextlib, io, json, sys
sys.dont_write_bytecode = True
root = sys.argv[1]
argvs, seeds = json.loads(sys.argv[2])
sys.path.insert(0, root + "/perfbench")
import numpy as np
import workloads
import torickahler
from torickahler import cli

def encode(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (str, type(None))):
        return value
    if isinstance(value, np.ndarray):
        return [list(value.shape), encode(value.ravel().tolist())]
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, BaseException):
        return f"raised {type(value).__name__}: {value}"
    if callable(value):  # a reference function of a workload's op, whose repr holds an address
        return value.__qualname__
    return repr(value)

record = {"library": torickahler.__file__}
for argv in argvs:
    for fmt in ("json", "csv"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.dispatch(argv + ["--format", fmt])
            except BaseException as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        record[" ".join(argv + ["--format", fmt])] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
for name in workloads.WORKLOADS:
    for seed in seeds:
        w = workloads.build(name, seed)
        try:
            for k, op in enumerate(w.warmup() + w.cycle()):
                try:
                    result = w.run(op)
                except Exception as exc:
                    result = exc
                record[f"{name} seed {seed} op {k} {op.label}"] = encode({"args": op.args, "output": result})
        finally:
            if hasattr(w, "close"):
                w.close()
print(json.dumps(record))
"""


def start(root: Path) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(root), json.dumps([ARGVS, SEEDS])],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(root: Path, proc: subprocess.Popen) -> dict:
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        print(f"error: the child for {root} exited with status {proc.returncode}:\n{stderr}", file=sys.stderr)
        raise SystemExit(2)
    record = json.loads(stdout)
    library = Path(record.pop("library")).resolve()
    if not library.is_relative_to(root / "src"):
        print(f"error: {root} imported the library from {library}", file=sys.stderr)
        raise SystemExit(2)
    return record


def _lines(value, path: str = "") -> list[str]:
    """A recorded value as lines: a string split into its own lines, a container into its entries."""
    if isinstance(value, dict):
        return [line for k in sorted(value) for line in _lines(value[k], f"{path}.{k}")]
    if isinstance(value, list):
        return [line for k, v in enumerate(value) for line in _lines(v, f"{path}[{k}]")]
    if isinstance(value, str):
        return [f"{path}: {line}" for line in value.splitlines() or [""]]
    return [f"{path}: {value}"]


def first_difference(a, b) -> str:
    """The first line at which the recorded values ``a`` and ``b`` differ, both sides shown."""
    lines_a, lines_b = _lines(a), _lines(b)
    for k in range(max(len(lines_a), len(lines_b))):
        line_a = lines_a[k] if k < len(lines_a) else "<end>"
        line_b = lines_b[k] if k < len(lines_b) else "<end>"
        if line_a != line_b:
            return f"line {k + 1}: parent {line_a.strip()[:160]} | change {line_b.strip()[:160]}"
    return "no line differs"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        for needed in ("src/torickahler", "perfbench/workloads.py"):
            if not (root / needed).exists():
                print(f"error: {root} has no {needed}", file=sys.stderr)
                return 2
    procs = [start(root) for root in roots]
    parent, change = (finish(root, proc) for root, proc in zip(roots, procs))
    differences = 0
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            print(f"{key}: only in the {'change' if key in change else 'parent'}")
            differences += 1
        elif parent[key] != change[key]:
            print(f"{key}: {first_difference(parent[key], change[key])}")
            differences += 1
    print(f"{len(parent.keys() | change.keys())} outputs compared, {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
