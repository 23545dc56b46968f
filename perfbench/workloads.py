"""The three benchmark workloads: what one op does and how its output is checked.

Each workload is built from a seed alone (the library sees only the generated
inputs) and yields its ops in cycles: one cycle covers every op kind once, in
a fixed order, with fresh seeded inputs.  ``run(op)`` makes the library calls
and is the only part that is timed; ``check(op, result)`` compares the result
with a reference that does not go through the library route being timed.

A check returns an :class:`Outcome`: whether the op passed, the worst scaled
error ``|v - ref| / (1 + |ref|)`` among its compared values (``None`` when it
produced no comparable value), and a reason when it failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from torickahler import cli, curvature, jets, polytope, potentials, scalarflat  # noqa: E402

DIMS = range(2, 9)


# Each workload's CYCLE_S is the time one cycle took on the reference machine:
# a 2-core x86-64 sandbox, Python 3.11.7, numpy 2.4.6, one BLAS thread.


@dataclass(frozen=True)
class Op:
    label: str
    args: dict


@dataclass(frozen=True)
class Outcome:
    ok: bool
    err: float | None
    reason: str = ""


def scaled_error(value, ref) -> float:
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(value - ref) / (1.0 + np.abs(ref))))


class Checks:
    """Collects named comparisons for one op; any miss makes the op fail."""

    def __init__(self):
        self.errors: list[float] = []
        self.misses: list[str] = []

    def close(self, name, value, ref, tol) -> None:
        err = scaled_error(value, ref)
        if math.isfinite(err):
            self.errors.append(err)
        if not err <= tol:
            self.misses.append(f"{name}: scaled error {err:.3g} > {tol:g}")

    def equal(self, name, value, ref) -> None:
        if value != ref:
            self.misses.append(f"{name}: {value!r} != {ref!r}")

    def outcome(self) -> Outcome:
        err = max(self.errors) if self.errors else None
        return Outcome(not self.misses, err, "; ".join(self.misses))


def failed_with(exc: BaseException) -> Outcome:
    return Outcome(False, None, f"raised {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# jet_sweep: reduced S, admissibility, extremal fit and Legendre inversion
# ---------------------------------------------------------------------------


def _margin_fs(t):
    return 1.0 / (1.0 - t) + 1.0 / t


def _margin_gb(t):
    return 1.0 / (t - 1.0)


def _family_margin(n, a, b):
    # F'' + 1/t = t^(n-1) / (t^n - a t - b) for every member of the family.
    return lambda t: t ** (n - 1) / (t**n - a * t - b)


class JetSweep:
    """One op: a batch of seeded t points for one potential and one n."""

    name = "jet_sweep"
    CYCLE_S = 0.35
    KINDS = ("fubini_study", "generalized_burns", "burns_simanca", "scalar_flat_family")
    POINTS = 36
    ADMISSIBILITY_SAMPLES = 48
    LEGENDRE_POINTS = 2
    KNOWN_DEFECTS: frozenset = frozenset()

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.warm_rng = np.random.default_rng([seed, 1])
        self.fs = potentials.fubini_study_potential()
        self.gb = potentials.generalized_burns_potential()
        self.bs = {n: scalarflat.burns_simanca_potential(n) for n in DIMS}
        self.fs_radial = potentials.fubini_study_radial()

    def _op(self, rng, kind: str, n: int) -> Op:
        args = {"kind": kind, "n": n}
        if kind == "fubini_study":
            lo, hi = 0.02, 0.98
        elif kind == "generalized_burns":
            lo, hi = 1.05, 20.0
        elif kind == "burns_simanca":
            lo, hi = 1.01, 100.0
        else:
            a, b = rng.uniform(-2.0, 2.0, 2)
            start = max(0.5, potentials.scalar_flat_family(n, a, b).domain[0])
            lo, hi = start + 0.05, start + 6.0
            args.update(a=float(a), b=float(b))
        ts = []
        while len(ts) < self.POINTS:
            t = float(rng.uniform(lo, hi))
            if kind != "scalar_flat_family" or t**n - (a * t + b) >= 0.05 * max(1.0, t**n):
                ts.append(t)
        args.update(
            ts=sorted(ts),
            t_range=(lo, hi),
            legendre_ts=[float(v) for v in rng.uniform(0.05, 0.95, self.LEGENDRE_POINTS)],
        )
        return Op(f"{kind}.n{n}", args)

    def _cycle(self, rng) -> list[Op]:
        return [self._op(rng, kind, n) for kind in self.KINDS for n in DIMS]

    def cycle(self) -> list[Op]:
        return self._cycle(self.rng)

    def warmup(self) -> list[Op]:
        return self._cycle(self.warm_rng)

    def _potential(self, args):
        kind, n = args["kind"], args["n"]
        if kind == "fubini_study":
            return self.fs
        if kind == "generalized_burns":
            return self.gb
        if kind == "burns_simanca":
            return self.bs[n]
        return potentials.scalar_flat_family(n, args["a"], args["b"])

    def run(self, op: Op) -> dict:
        a = op.args
        n = a["n"]
        pot = self._potential(a)
        S = [curvature.scalar_curvature_reduced(pot, n, t) for t in a["ts"]]
        adm = potentials.admissibility(pot, a["t_range"], self.ADMISSIBILITY_SAMPLES)
        ext = curvature.extremal_check(pot, n, a["ts"])
        duals = [potentials.kahler_to_t_potential(self.fs_radial, t) for t in a["legendre_ts"]]
        return {
            "S": S,
            "admissible": adm.passed,
            "min_margin": adm.min_margin,
            "extremal": ext.extremal,
            "fit": [ext.fit_intercept, ext.fit_slope],
            "F": [d.F for d in duals],
            "F2": [d.F2 for d in duals],
        }

    def check(self, op: Op, result) -> Outcome:
        if isinstance(result, BaseException):
            return failed_with(result)
        a = op.args
        kind, n = a["kind"], a["n"]
        ts = np.asarray(a["ts"])
        S = np.asarray(result["S"])
        c = Checks()
        if kind == "fubini_study":
            c.close("S = n(n+1)", S, np.full_like(ts, n * (n + 1)), 1e-9)
            exact_S, margin = np.full_like(ts, n * (n + 1)), _margin_fs
        elif kind == "generalized_burns":
            c.close("S t^2 = n^2-3n+2", S * ts**2, np.full_like(ts, n * n - 3 * n + 2), 1e-8)
            exact_S, margin = (n * n - 3 * n + 2) / ts**2, _margin_gb
        else:
            # Roundoff in the family's S reaches about 1e-9 at n = 8 (t near 6);
            # the catalog's 1e-9 is kept where it was set, for n <= 6.
            tol = 1e-9 if kind == "burns_simanca" or n <= 6 else 1e-8
            c.close("S = 0", S, np.zeros_like(ts), tol)
            exact_S = np.zeros_like(ts)
            if kind == "burns_simanca":
                margin = _family_margin(n, n - 1.0, 2.0 - n)
            else:
                margin = _family_margin(n, a["a"], a["b"])
        grid = np.linspace(*a["t_range"], self.ADMISSIBILITY_SAMPLES)
        c.equal("admissible", result["admissible"], True)
        c.close("min margin F''+1/t", result["min_margin"], np.min(margin(grid)), 1e-9)
        affine = kind != "generalized_burns" or n <= 2
        c.equal("extremal", result["extremal"], affine)
        slope, intercept = np.polyfit(ts, exact_S, 1)
        scale = 1.0 + float(np.max(np.abs(exact_S)))
        fit_err = np.abs(np.asarray(result["fit"]) - [intercept, slope]) / scale
        c.close("affine fit of S", fit_err, [0.0, 0.0], 1e-8)
        lts = np.asarray(a["legendre_ts"])
        c.close("Legendre F", result["F"], (1.0 - lts) * np.log1p(-lts), 1e-9)
        c.close("Legendre F''", result["F2"], 1.0 / (1.0 - lts), 1e-7)
        return c.outcome()


# ---------------------------------------------------------------------------
# abreu_cross: finite-difference S against the reduced formula
# ---------------------------------------------------------------------------


def _abreu_point(rng, n: int, t_lo: float, t_hi: float, facet_t: float) -> np.ndarray:
    """A point more than 4 Abreu steps inside every facet, as the stencil needs.

    The facets are x_i = 0 and t = facet_t; the default step of
    ``scalar_curvature_abreu`` is 0.02 (1 + |x|).
    """
    while True:
        t = rng.uniform(t_lo, t_hi)
        x_min = 0.08 * (1.0 + 1.1 * t / math.sqrt(n))
        if n * x_min >= t:
            continue
        x = x_min + (t - n * x_min) * rng.dirichlet(np.ones(n))
        reach = 4 * 0.02 * (1.0 + float(np.linalg.norm(x)))
        if x.min() > reach and abs(t - facet_t) > reach:
            return x


def _blowup_f2(t: float, order: int) -> jets.TaylorJet:
    # F = (t-1) ln(t-1) is what the canonical potential of the blow-up adds
    # to (1/2) sum x_i ln x_i, so F'' = 1/(t-1).
    return 1.0 / (jets.variable(t, order) - 1.0)


class AbreuCross:
    """One op: one n, and one seeded point for each of the three sources of g.

    ``closed_form`` is Fubini-Study through ``symplectic_evaluator`` (t < 1),
    ``chebyshev`` is Burns-Simanca through ``symplectic_evaluator`` with a
    ``t_window``, and ``canonical`` is the canonical potential of the blow-up
    polytope.  Each op's cost is set by n, so the cycle's seven op kinds are
    two to four times apart in latency.
    """

    name = "abreu_cross"
    CYCLE_S = 7.0
    SOURCES = ("closed_form", "chebyshev", "canonical")
    TOL_ABREU = 1e-4
    KNOWN_DEFECTS: frozenset = frozenset()

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.warm_rng = np.random.default_rng([seed, 1])
        self.fs = potentials.fubini_study_potential()
        self.fs_g = potentials.symplectic_evaluator(self.fs)
        self.bs = {n: scalarflat.burns_simanca_potential(n) for n in DIMS}
        self.blowup = {n: polytope.build_standard("blowup", n) for n in DIMS}
        self.blowup_pot = potentials.custom_potential(_blowup_f2, (1.0, math.inf), "blowup_canonical")

    def _op(self, rng, n: int) -> Op:
        points = {
            "closed_form": _abreu_point(rng, n, 0.3, 0.9, 1.0),
            "chebyshev": _abreu_point(rng, n, 1.6, 3.0 + 0.15 * n, 1.0),
            "canonical": _abreu_point(rng, n, 1.6, 3.0 + 0.15 * n, 1.0),
        }
        return Op(f"n{n}", {"n": n, **points})

    def cycle(self) -> list[Op]:
        return [self._op(self.rng, n) for n in DIMS]

    def warmup(self) -> list[Op]:
        return [self._op(self.warm_rng, n) for n in range(2, 5)]

    def run(self, op: Op) -> dict:
        n = op.args["n"]
        out = {}
        for source in self.SOURCES:
            x = op.args[source]
            t = float(x.sum())
            if source == "closed_form":
                pot, g = self.fs, self.fs_g
            elif source == "chebyshev":
                pot = self.bs[n]
                window = (t - 0.5, t + 0.5)
                g = potentials.symplectic_evaluator(pot, t_window=window)
                # The Chebyshev F and the quadrature F share the gauge F = F' = 0 at window[0].
                out["chebyshev.F"] = 2.0 * g(x) - float(np.sum(x * np.log(x)))
                out["chebyshev.F_quadrature"] = scalarflat.reconstruct_F(pot, t, anchor=window[0])[0]
            else:
                pot = self.blowup_pot
                poly = self.blowup[n]
                g = lambda y: polytope.canonical_potential(poly, y)  # noqa: E731
                out["canonical.g"] = g(x)
                out["canonical.g_custom"] = 0.5 * (float(np.sum(x * np.log(x))) + (t - 1.0) * math.log(t - 1.0))
            out[f"{source}.S_reduced"] = curvature.scalar_curvature_reduced(pot, n, t)
            out[f"{source}.S_abreu"] = curvature.scalar_curvature_abreu(g, x)
        return out

    def check(self, op: Op, result) -> Outcome:
        if isinstance(result, BaseException):
            return failed_with(result)
        n = op.args["n"]
        t = float(op.args["canonical"].sum())
        # S of F'' = 1/(t-1): t^(1-n) (t^(n+1) / (2t - 1))'' in closed form.
        p = n + 1
        canonical_S = t ** (1 - n) * (
            p * (p - 1) * t ** (p - 2) / (2 * t - 1)
            - 4 * p * t ** (p - 1) / (2 * t - 1) ** 2
            + 8 * t**p / (2 * t - 1) ** 3
        )
        exact = {"closed_form": n * (n + 1.0), "chebyshev": 0.0, "canonical": canonical_S}
        c = Checks()
        c.close("Chebyshev F vs quadrature F", result["chebyshev.F"], result["chebyshev.F_quadrature"], 1e-10)
        c.close("canonical g vs custom F", result["canonical.g"], result["canonical.g_custom"], 1e-12)
        for source in self.SOURCES:
            reduced = result[f"{source}.S_reduced"]
            c.close(f"{source}: reduced S vs closed form", reduced, exact[source], 1e-9)
            c.close(f"{source}: Abreu S vs reduced S", result[f"{source}.S_abreu"], reduced, self.TOL_ABREU)
        return c.outcome()


# ---------------------------------------------------------------------------
# cli_session: argv through cli.dispatch against the 0/1/2 exit contract
# ---------------------------------------------------------------------------


class CliSession:
    """One op: one argv through ``cli.dispatch``, the report written to a temp file.

    The expected exit code is the one the contract demands (0 all checks pass,
    1 a check failed, 2 bad usage or a value outside the domain), not the one
    the current code happens to give.  Where a report is written its numbers
    are compared with closed forms too.
    """

    name = "cli_session"
    CYCLE_S = 0.62
    #: Ops that fail at the seed commit.  They stay in the session and count as
    #: failures; only a failure outside this set makes the run incorrect.
    KNOWN_DEFECTS = frozenset(
        [f"decay --dim {n}" for n in range(4, 9)]
        + [
            "admissible --t-range 5",
            "admissible --t-range 5..1",
            "decay --samples 4",
            "curvature --point outside domain",
            "legendre --samples 0",
            "admissible --samples -5",
        ]
    )

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.warm_rng = np.random.default_rng([seed, 1])
        base = ROOT / ".bench_out"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=base))
        self.report_path = self.tmp / "report.json"

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _cycle(self, rng) -> list[Op]:
        def op(label, argv, expect=0, **ref):
            seeded = argv + ["--seed", str(int(rng.integers(0, 2**31)))]
            return Op(label, {"argv": seeded, "expect": expect, **ref})

        ops = [op("verify-catalog --dims 2..6", ["verify-catalog", "--dims", "2..6"])]
        ops += [op(f"derive --dim {n}", ["derive", "--dim", str(n)]) for n in (3, 12, 50, 200)]
        n = int(rng.integers(2, 5))
        ts = [float(v) for v in rng.uniform(0.05, 0.95, 2)]
        ops.append(op(
            "curvature fubini_study --t",
            ["curvature", "--potential", "fubini_study", "--dim", str(n)]
            + [w for t in ts for w in ("--t", repr(t))],
            S=n * (n + 1.0),
        ))
        x = _abreu_point(rng, 3, 0.4, 0.6, 1.0)
        ops.append(op(
            "curvature fubini_study --point",
            ["curvature", "--potential", "fubini_study", "--dim", "3", "--point", ",".join(repr(float(v)) for v in x)],
            S=12.0,
        ))
        x = _abreu_point(rng, 3, 1.5, 2.5, 1.0)
        ops.append(op(
            "curvature burns_simanca --point",
            ["curvature", "--potential", "burns_simanca", "--dim", "3", "--point", ",".join(repr(float(v)) for v in x)],
            S=0.0,
        ))
        ops.append(op(
            "legendre fubini_study",
            ["legendre", "--potential", "fubini_study", "--dim", str(int(rng.integers(2, 5)))],
        ))
        ops.append(op("legendre flat", ["legendre", "--potential", "flat", "--dim", "2"]))
        ops += [op(f"decay --dim {n}", ["decay", "--dim", str(n)], slope=1.0 - n) for n in DIMS]
        n = int(rng.integers(2, 7))
        hi = float(rng.uniform(20.0, 100.0))
        ops.append(op(
            "admissible burns_simanca",
            ["admissible", "--potential", "burns_simanca", "--dim", str(n), "--t-range", f"1.001..{hi!r}"],
            margin=_family_margin(n, n - 1.0, 2.0 - n), t_range=(1.001, hi), samples=200,
        ))
        ops.append(op(
            "admissible fubini_study",
            ["admissible", "--potential", "fubini_study", "--t-range", "0.01..0.99", "--samples", "64"],
            margin=_margin_fs, t_range=(0.01, 0.99), samples=64,
        ))
        # Malformed input: the contract demands exit 2 for each of these.
        ops += [
            op("derive without --dim", ["derive"], 2),
            op("curvature unknown potential", ["curvature", "--potential", "nope", "--dim", "2", "--t", "0.5"], 2),
            op("admissible --t-range 5",
               ["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "5"], 2),
            op("admissible --t-range 5..1",
               ["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "5..1"], 2),
            op("decay --samples 4", ["decay", "--dim", "3", "--samples", "4"], 2),
            op("curvature --point outside domain",
               ["curvature", "--potential", "burns_simanca", "--dim", "3", "--point", "0.1,0.1,0.1"], 2),
            op("legendre --samples 0", ["legendre", "--samples", "0"], 2),
            op("admissible --samples -5",
               ["admissible", "--potential", "fubini_study", "--t-range", "0.1..0.9", "--samples", "-5"], 2),
        ]
        return ops

    def cycle(self) -> list[Op]:
        return self._cycle(self.rng)

    def warmup(self) -> list[Op]:
        return self._cycle(self.warm_rng)

    def run(self, op: Op) -> dict:
        self.report_path.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = cli.dispatch(op.args["argv"] + ["--output", str(self.report_path)])
        report = json.loads(self.report_path.read_text()) if self.report_path.exists() else None
        return {"exit": code, "report": report}

    def check(self, op: Op, result) -> Outcome:
        if isinstance(result, BaseException):
            return failed_with(result)
        a = op.args
        c = Checks()
        c.equal("exit code", result["exit"], a["expect"])
        report = result["report"]
        if a["expect"] in (0, 1) and report is None:
            c.misses.append("no report written")
        if report is not None:
            self._check_report(op, report, c)
        return c.outcome()

    @staticmethod
    def _check_report(op: Op, report: dict, c: Checks) -> None:
        a = op.args
        for r in report["results"]:
            name, measured = r["name"], r["measured"]
            if report["command"] == "verify-catalog" and not name.endswith("_admissible"):
                n = int(name.split("_n")[1].split("_")[0])
                ref = {"fubini_study": n * (n + 1), "generalized_burns": n * n - 3 * n + 2}
                family = name.split("_n")[0]
                c.close(name, measured / (1.0 + ref.get(family, 0)), 0.0, 1e-9)
            elif name.startswith("S_reduced"):
                c.close(name, measured, a["S"], 1e-9)
            elif name.startswith("S_abreu"):
                c.close(name, measured, a["S"], 1e-4)
            elif report["command"] == "legendre":
                c.close(name, measured, 0.0, r["tolerance"])
            elif name == "fitted_slope":
                slope = float(measured) if isinstance(measured, str) else measured
                c.close(name, slope, a["slope"], 0.1 / (1.0 + abs(a["slope"])))  # the CLI's 0.1
            elif name == "admissibility" and "t_range" in a:
                grid = np.linspace(*a["t_range"], max(2, a["samples"]))
                c.close(name, measured["min_margin"], np.min(a["margin"](grid)), 1e-9)


WORKLOADS = {cls.name: cls for cls in (JetSweep, AbreuCross, CliSession)}


def build(name: str, seed: int):
    """Create a workload's fixtures; this is the set-up that ``setup_s`` times."""
    return WORKLOADS[name](seed)
