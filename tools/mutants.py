"""Check that the test suite fails on each registered mutant of the package.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file, a text that occurs exactly once in
it, the text that replaces it, and why the suite must notice.  The runner
copies ``src/`` and ``tests/`` into a temporary directory, with what the
tests also read: ``tools/``, ``perfbench/``, ``BENCHMARK.json``, and
``pyproject.toml`` for the pytest settings (warnings are errors).  There it
applies one mutant at a time, runs ``pytest -x -q`` and puts the file back.
A run that fails or times out kills its mutant.  The registry's own
integrity test is deselected in the copy: it reads the mutated file, so it
would kill every mutant whose new text drops the old one.

Before the mutants, the runner checks that the copy imports its own
package, and that ``EQUIVALENT`` (a change of spacing only) survives: the
suite passes in the copy, and a mutant the tests cannot see is reported.

The exit status is 0 when every mutant is killed, 1 when one survives, and
2 when the copy imports another package or kills the equivalent mutant.  A
change that makes a check failable adds its mutant here; a mutant that
survives gets a test that kills it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "BENCHMARK.json", "pyproject.toml")
#: A run slower than this is taken as a hang, which kills its mutant.
TIMEOUT_S = 600
#: Reads the registered files, which the copy mutates; see the module docstring.
INTEGRITY_TEST = "tests/test_tools.py::test_every_registered_mutant_applies_once"


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    reason: str


CURVATURE = "src/torickahler/curvature.py"
POTENTIALS = "src/torickahler/potentials.py"
CLI = "src/torickahler/cli.py"
JETS = "src/torickahler/jets.py"
SCALARFLAT = "src/torickahler/scalarflat.py"

#: Changes no behaviour, so the suite must pass with it applied.
EQUIVALENT = Mutant(CURVATURE, "2 * (n + 1) * t * phi1", "2 * (n+1) * t * phi1",
                    "equivalent: the spacing of reduced S's first-derivative term")

MUTANTS = (
    Mutant(CURVATURE, "2 * (n + 1) * t * phi1", "2 * n * t * phi1",
           "reduced S with 2n for 2(n + 1) in its first-derivative term"),
    Mutant(CURVATURE, "        _check_resolved(n, t, (u, du, d2u), D2, terms, flat)\n", "        pass\n",
           "reduced S summed from underflowed inputs"),
    Mutant(CURVATURE, "eps * size) & ~flat", "eps * size)",
           "an exact zero jet refused as underflow"),
    Mutant(CURVATURE, "bad = (slack > np.finfo(float).eps", "bad = (slack > 1000 * np.finfo(float).eps",
           "underflow slack allowed 1000 eps"),
    Mutant(CURVATURE, "D[..., upper] = D[..., lower] = 0.5 * (", "D[..., upper] = D[..., lower] = 0.5005 * (",
           "two-corner mixed Hessian entries scaled by 1.001"),
    Mutant(CURVATURE, "_stencil_points(b, step, out=buffer[: len(b)])", "_stencil_points(b, step)",
           "a fresh points array per Hessian block"),
    Mutant(CURVATURE, '        raise DegeneratePotentialError("Hessian has a non-finite entry")\n', "        pass\n",
           "a non-finite Hessian passed to eigvalsh"),
    Mutant(CURVATURE, "if np.any(ratio < 1e-8):", "if np.any(ratio < 0.0):",
           "a numerically singular Hessian accepted"),
    Mutant(CURVATURE, "if not (eigenvalues[..., 0] > 0.0).all():", "if False:",
           "a Hessian that is not positive definite accepted"),
    Mutant(CURVATURE, "if (bound >= 4e-8).all():", "if (bound >= 1e-17).all():",
           "the Cholesky-and-norms certificate accepts a ratio bound down to 1e-17"),
    Mutant(CURVATURE, "            np.linalg.cholesky(G)\n", "",
           "the certificate without its Cholesky gate, so an indefinite Hessian is inverted"),
    Mutant(POTENTIALS, "c[1:] /= 0.5 * order", "c[1:] /= order",
           "Chebyshev interpolation scales the coefficients past the first by 1/order, not 2/order"),
    Mutant(CURVATURE, "    if norm == math.inf:\n", "    if False:\n",
           "a point whose norm overflows given an infinite step"),
    Mutant(CURVATURE, "    _check_hessians(hess_a)\n", "",
           "the Legendre roundtrip's Hessians unchecked"),
    Mutant(CURVATURE, "admissible = (f1 > 0.0) & (f1 + s * f2 > 0.0)", "admissible = f1 + s * f2 > 0.0",
           "the roundtrip gates on f' + s f'' > 0 alone"),
    Mutant(POTENTIALS, "        if order and _any(e):\n", "        if False:\n",
           "the family's refusal of an underflowed derivative jet skipped"),
    Mutant(POTENTIALS, "if doublings > 200:", "if doublings > 2000:",
           "bracket search bounded at 2000 steps"),
    Mutant(POTENTIALS, "s = 2.0 * s if up else 0.5 * s", "s = 2.0 * s if up else 0.25 * s",
           "downward bracket search halves by 4"),
    Mutant(POTENTIALS, 'side = ">=" if up else "<="', 'side = ">=" if up else ">="',
           "bracket failure names the wrong side"),
    Mutant(POTENTIALS, "lo, hi = (t, s) if up else (s, t)", "lo, hi = (t, s) if up else (t, s)",
           "downward bracket ends swapped"),
    Mutant(POTENTIALS, "for degree in (32, 64, 128, 256):", "for degree in (32, 64, 128):",
           "Chebyshev ladder without 256"),
    Mutant(POTENTIALS, "for degree in (32, 64, 128, 256):", "for degree in (32, 128, 256):",
           "Chebyshev ladder without 64"),
    Mutant(POTENTIALS, "<= 1e-12 * scale:", "<= 1e-9 * scale:",
           "Chebyshev interpolant accepted at 1e-9"),
    Mutant(POTENTIALS, "if a == 1.0 and b < 0.0:", "if a == 1.0 and b <= 0.0:",
           "n = 1 family with a = 1, b = 0 given a domain"),
    Mutant(POTENTIALS, "np.where(where, np.frexp(v)[1], 0)", "np.where(where, np.frexp(v)[1] - 1, 0)",
           "a batch's scaled t^n in [1, 2), so t times it overflows past 2^1023"),
    Mutant(POTENTIALS, "shift = math.frexp(v)[1] * where", "shift = (math.frexp(v)[1] - 1) * where",
           "one t's scaled t^n in [1, 2), so t times it overflows past 2^1023"),
    Mutant(POTENTIALS, "k = np.maximum(np.frexp(t)[1] + math.frexp(abs(a) + abs(b))[1] - 1000, 0)", "k = 0",
           "a t + b formed unscaled, so it overflows near the float maximum"),
    Mutant(POTENTIALS, "scalar_flat_family(1, 0.0, 1.0,", "scalar_flat_family(1, 0.0, 2.0,",
           "generalized Burns with b = 2"),
    Mutant(POTENTIALS, "if A + B == 1 and A <= n:", "if A + B == 1:",
           "the family's divisibility branch without a <= n, so (t - 1)(t - 2) starts at 1"),
    Mutant(POTENTIALS, "    if jet.order != order or not _same_base(jet.base, t):\n", "    if False:\n",
           "f2_jet's malformed-jet check skipped"),
    Mutant(POTENTIALS, "        if clearly_negative(slope, scale):\n", "        if False:\n",
           "the bracket search's falling-gamma check skipped"),
    Mutant(JETS, "    def __reduce__(self):", "    def _reduce(self):",
           "copies and pickles of a jet skip its constructor"),
    Mutant(JETS, "a0 * b2 + a1 * b1 + a2 * b0", "a0 * b2 + (a1 * b1 + a2 * b0)",
           "the written-out order-2 product summed in another order"),
    Mutant(JETS, "            if not math.isfinite(v):\n", "            if False:\n",
           "one-point jets made by arithmetic keep non-finite coefficients"),
    Mutant(JETS, "        _check_finite(base, fresh)\n", "        pass\n",
           "batched jets made by arithmetic keep non-finite coefficients"),
    Mutant(JETS, "if a.base is not b.base or len(ac) != len(bc):", "if a.base is not b.base:",
           "jets sharing a base object combined without comparing orders"),
    Mutant(SCALARFLAT, "remainder = descending[-1] + quotient[-1]",
           "remainder = descending[-1] + quotient[-1] + 1",
           "the boundary division leaves a remainder"),
    Mutant(SCALARFLAT, "per_row = match.n**2", "per_row = 1",
           "delta_check factors all its G^-1 in one block at every n"),
    Mutant(SCALARFLAT, "        if unresolved.any():\n", "        if False:\n",
           "delta_check passes a NaN log-determinant from an overflowed G^-1"),
    Mutant(POTENTIALS, "        if not math.isfinite(value):\n            raise DomainError(f\"the family's",
           "        if False:\n            raise DomainError(f\"the family's",
           "the family's guard on a non-finite a or b dropped"),
    Mutant(POTENTIALS, "lo, hi = hi, min(2.0 * hi, _FLOAT_MAX)", "lo, hi = hi, 2.0 * hi",
           "the family's domain search doubles past the float maximum"),
    Mutant(POTENTIALS, "        if mid == math.inf:", "        if False:",
           "the family's bisection takes an overflowed lo + hi"),
    Mutant(POTENTIALS, "    if not all(map(math.isfinite, (gamma0, scale0, gamma, scale))):\n", "    if False:\n",
           "the Legendre inversion brackets with an overflowed gamma"),
    Mutant(CURVATURE, "    if not resolved.all():\n", "    if False:\n",
           "the Legendre roundtrip takes an a whose e^(2 a_i) overflows or underflows"),
    Mutant(CURVATURE, "    if not (np.isfinite(G).all() and np.isfinite(G_inv).all()):\n", "    if False:\n",
           "hessian_t_family returns an overflowed G or G^-1"),
    Mutant(CLI, "    if not all(map(math.isfinite, values)):\n", "    if False:\n",
           "_parse_floats accepts a non-finite coordinate"),
    Mutant(CLI, "if not 0 <= value < math.inf:", "if value < 0:",
           "NaN and infinite tolerances accepted"),
    Mutant(CLI, "potentials.admissibility(pot, entry.t_range, 64).passed",
           "potentials.admissibility(pot, entry.t_range, 2).passed",
           "verify-catalog's admissibility sweep cut from 64 to 2 samples"),
    Mutant(CLI, 'report.check(f"S_reduced(t={t})", value, expected, 1e-9 * (1.0 + abs(expected)))',
           'report.check(f"S_reduced(t={t})", value, expected, None, ok=math.isfinite(value))',
           "curvature --t passes any finite value"),
    Mutant(CLI, "    if value < 0:\n        raise DomainError(f\"{value} is not a nonnegative seed\")",
           "    if value < -1:\n        raise DomainError(f\"{value} is not a nonnegative seed\")",
           "--seed accepts -1"),
    Mutant(CLI, "    except MemoryError as exc:", "    except ArithmeticError as exc:",
           "a --samples count too large to allocate ends in a traceback"),
)


def _copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, destination / name, ignore=ignore)
        else:
            shutil.copy2(source, destination / name)


def _run_mutant(workdir: Path, env: dict, mutant: Mutant) -> tuple[bool, str]:
    """Whether ``pytest -x -q`` passes in ``workdir`` with ``mutant`` applied, and its output."""
    target = workdir / mutant.path
    original = target.read_text()
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", INTEGRITY_TEST],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    finally:
        target.write_text(original)
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


def _first_failure(output: str) -> str:
    """The test that failed first in a ``pytest -q`` output, or why the run failed."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return output.splitlines()[-1] if output else "no output"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        workdir = Path(tmp)
        _copy_tree(workdir)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        where = subprocess.run(
            [sys.executable, "-c", "import torickahler; print(torickahler.__file__)"],
            cwd=workdir, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(workdir.resolve() / "src"):
            print(f"error: the copy imported the package from {where!r}", file=sys.stderr)
            return 2
        passed, output = _run_mutant(workdir, env, EQUIVALENT)
        if not passed:
            print(f"error: the equivalent mutant is killed:\n{output[-4000:]}", file=sys.stderr)
            return 2
        survivors = 0
        for k, mutant in enumerate(MUTANTS, start=1):
            began = time.perf_counter()
            passed, output = _run_mutant(workdir, env, mutant)
            survivors += passed
            verdict = "SURVIVED" if passed else "killed by " + _first_failure(output)
            print(f"{k:2d} {time.perf_counter() - began:5.1f} s  {mutant.path}: {mutant.reason}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
