"""Command-line driver: verification, derivation and scan workflows.

Every subcommand writes a machine-readable report (JSON by default, CSV for
tabular scans) and exits 0 when all checks pass, 1 when a check fails, and 2
on usage or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import asymptotics, curvature, potentials, scalarflat
from .errors import DimensionError, DomainError, ToricError

__all__ = ["CATALOG", "CatalogEntry", "RunReport", "emit", "dispatch", "main"]


@dataclass
class RunReport:
    """A subcommand's report: each check, and a table ``{"columns", "rows"}``, is a dict that :func:`emit` writes."""

    command: str
    inputs: dict
    results: list[dict] = field(default_factory=list)
    table: dict | None = None

    def check(self, name, measured=None, expected=None, tolerance=None, ok=None):
        if ok is None:
            ok = abs(measured - expected) <= tolerance
        status = "pass" if ok else "fail"
        self.results.append(
            {"name": name, "status": status, "measured": measured, "expected": expected, "tolerance": tolerance}
        )

    @property
    def overall(self) -> str:
        return "pass" if all(r["status"] == "pass" for r in self.results) else "fail"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _csv_field(value) -> str:
    """One CSV field: a list or dict as its JSON text, any other value as its JSON-ready value's ``str``."""
    value = _jsonable(value)
    return json.dumps(value) if isinstance(value, (list, dict)) else str(value)


def emit(report: RunReport, fmt: str = "json", destination: str | None = None) -> None:
    """Write the report as JSON (a table as the last key), or as CSV rows (a table's, if any) through :mod:`csv`."""
    if fmt == "json":
        payload = dict(command=report.command, inputs=report.inputs, results=report.results, overall=report.overall)
        if report.table is not None:
            payload["table"] = report.table
        text = json.dumps(_jsonable(payload), indent=2) + "\n"
    elif fmt == "csv":
        if report.table is not None:
            records = [report.table["columns"], *report.table["rows"]]
            records.extend(
                [
                    f"# {r['name']}={_jsonable(r['measured'])} expected={_jsonable(r['expected'])} "
                    f"tolerance={_jsonable(r['tolerance'])} status={r['status']}"
                ]
                for r in report.results
            )
        else:
            records = [("name", "status", "measured", "expected", "tolerance")]
            records.extend(tuple(r.values()) for r in report.results)
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(map(_csv_field, record) for record in records)
        text = buffer.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if destination in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(destination, "w") as handle:
            handle.write(text)


class CatalogEntry(NamedTuple):
    """A catalog potential's maker (taking n), its reduced S(n, t) in closed form, and where to sample t.

    A potential that does not depend on n is one object, which the maker
    returns at every n, so ``verify-catalog`` sweeps its admissibility once.
    """

    maker: Callable[[int | None], potentials.TPotential]
    S: Callable[[int, float | np.ndarray], float | np.ndarray]
    t_range: tuple[float, float]


def _burns_simanca(n: int | None) -> potentials.TPotential:
    if n is None:
        raise DomainError("burns_simanca needs the dimension n")
    return scalarflat.burns_simanca_potential(n)  # DimensionError below n = 2


def _every_n(pot: potentials.TPotential) -> Callable[[int | None], potentials.TPotential]:
    """The maker of a catalog potential that does not depend on n: the one object ``pot`` at every n."""
    return lambda n: pot


CATALOG = {
    "flat": CatalogEntry(_every_n(potentials.flat_potential()), lambda n, t: 0.0, (0.5, 5.0)),
    "fubini_study": CatalogEntry(
        _every_n(potentials.fubini_study_potential()), lambda n, t: n * (n + 1.0), (0.05, 0.95)
    ),
    "generalized_burns": CatalogEntry(
        _every_n(potentials.generalized_burns_potential()), lambda n, t: (n - 1) * (n - 2) / (t * t), (1.5, 8.0)
    ),
    "burns_simanca": CatalogEntry(_burns_simanca, lambda n, t: 0.0, (1.001, 50.0)),
}


def _catalog_entry(name: str) -> CatalogEntry:
    entry = CATALOG.get(name.replace("-", "_"))
    if entry is None:
        raise DomainError(f"unknown potential {name!r}")
    return entry


def positive_int(text: str) -> int:
    """Argument type for dimensions and sample counts."""
    value = int(text)
    if value < 1:
        raise DomainError(f"{value} is not a positive integer")
    return value


def seed(text: str) -> int:
    """Argument type for ``--seed``: an integer that is not negative, as numpy's generators need."""
    value = int(text)
    if value < 0:
        raise DomainError(f"{value} is not a nonnegative seed")
    return value


def tolerance(text: str) -> float:
    """Argument type for tolerances: a finite number that is not negative, so that a check can fail."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise DomainError(f"{value} is not a finite nonnegative tolerance")
    return value


def _parse_range(text: str) -> range:
    try:
        lo, sep, hi = text.partition("..")
        dims = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise DomainError(f"expected an integer or a range a..b, got {text!r}") from None
    if not dims:
        raise DomainError(f"the range {text!r} is empty")
    return dims


def _parse_float_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split("..", 1)
        return float(lo), float(hi)
    except ValueError:
        raise DomainError(f"expected an interval a..b, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise DomainError(f"expected finite numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_verify_catalog(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    admissible = {}  # by name and potential: verify-catalog sweeps each potential once
    for n in _parse_range(args.dims):
        for name, entry in CATALOG.items():
            try:
                pot = entry.maker(n)
            except DimensionError:  # burns_simanca below n = 2
                continue
            ts = rng.uniform(*entry.t_range, args.samples)
            exact = entry.S(n, ts)
            error = np.abs(curvature.scalar_curvature_reduced(pot, n, ts) - exact) / (1.0 + np.abs(exact))
            report.check(f"{name}_n{n}_S", float(np.max(error)), 0.0, args.tol)
            if (name, pot) not in admissible:
                admissible[name, pot] = potentials.admissibility(pot, entry.t_range, 64).passed
            report.check(f"{name}_n{n}_admissible", ok=admissible[name, pot])


def _cmd_derive(args, report: RunReport) -> None:
    n = args.dim
    match = scalarflat.solve_boundary_coefficients(n)
    report.check("A", match.A, Fraction(n - 1), 0, ok=match.A == n - 1)
    report.check("B", match.B, Fraction(2 - n), 0, ok=match.B == 2 - n)
    report.check("division_remainder", match.remainder, Fraction(0), 0, ok=match.remainder == 0)
    descending = list(reversed([_jsonable(c) for c in match.quotient]))
    expected = [1] * (n - 1) + [-(n - 2)]
    report.check("quotient_coefficients", descending, expected, None, ok=descending == expected)
    q_at_1 = match.quotient_value(1.0)
    report.check("Q_at_1", q_at_1, 1.0, 0.0, ok=q_at_1 == 1.0)
    delta = scalarflat.delta_check(match, [1.0, 1.5, 2.0, 5.0, 25.0], seed=args.seed)
    report.check(
        "delta_positive_and_factorizes", delta.max_det_deviation, 0.0, scalarflat.DELTA_TOL, ok=delta.passed
    )


def _cmd_curvature(args, report: RunReport) -> None:
    entry = _catalog_entry(args.potential)
    pot = entry.maker(args.dim)
    if not args.t and not args.point:
        raise ToricError("give at least one --t or --point to evaluate at")
    for t in args.t or []:
        value = curvature.scalar_curvature_reduced(pot, args.dim, t)
        expected = entry.S(args.dim, t)
        report.check(f"S_reduced(t={t})", value, expected, 1e-9 * (1.0 + abs(expected)))
    for point_text in args.point or []:
        x = _parse_floats(point_text)
        if len(x) != args.dim:
            raise ToricError(f"point {point_text!r} does not have dimension {args.dim}")
        expected = curvature.scalar_curvature_reduced(pot, args.dim, sum(x))
        g = potentials.symplectic_evaluator(pot, t_window=curvature.abreu_t_window(x))
        value = curvature.scalar_curvature_abreu(g, x)
        report.check(f"S_abreu(x={point_text})", value, expected, 1e-4 * (1.0 + abs(expected)))


def _cmd_legendre(args, report: RunReport) -> None:
    maker = {"flat": potentials.flat_radial, "fubini_study": potentials.fubini_study_radial}
    key = args.potential.replace("-", "_")
    if key not in maker:
        raise ToricError(f"legendre roundtrips support flat and fubini_study, not {args.potential!r}")
    profile = maker[key]()
    rng = np.random.default_rng(args.seed)
    result = curvature.legendre_roundtrip(profile, rng.uniform(-0.8, 0.8, (args.samples, args.dim)))
    report.check("duality_identity_gap", float(np.max(result.duality_gap)), 0.0, args.tol_identity)
    report.check("hessian_inverse_match", float(np.max(result.hessian_residual)), 0.0, args.tol_hessian)
    report.check("moment_map_gradient_match", float(np.max(result.gradient_residual)), 0.0, 1e-6)


def _cmd_decay(args, report: RunReport) -> None:
    scan = asymptotics.decay_scan(args.dim, args.u_min, args.u_max, args.samples)
    rows = [(u, d, fitted) for (u, d), fitted in zip(scan.samples, scan.fitted)]
    report.table = {"columns": ("u", "deviation", "fitted"), "rows": rows}
    report.check("fitted_slope", scan.fitted_slope, scan.expected_slope, args.tol)


def _cmd_admissible(args, report: RunReport) -> None:
    pot = _catalog_entry(args.potential).maker(args.dim)
    lo, hi = _parse_float_range(args.t_range)
    result = potentials.admissibility(pot, (lo, hi), args.samples)
    report.check("admissibility", {"min_margin": result.min_margin, "witness": result.witness}, ok=result.passed)


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so one process builds it once; every
    dispatch after the first in a process (tests, notebooks, benchmarks)
    skips the build.
    """
    parser = argparse.ArgumentParser(
        prog="torickahler",
        description="Verify toric Kähler metric identities in action coordinates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=seed, default=0, help="random seed for sampled checks")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="destination path (default: stdout)")

    p = sub.add_parser("verify-catalog", help="constant/zero curvature checks for the catalog")
    p.add_argument("--dims", default="2..4", help="dimension range a..b")
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.add_argument("--samples", type=positive_int, default=5, help="random t draws per check")
    common(p)
    p.set_defaults(handler=_cmd_verify_catalog)

    p = sub.add_parser("derive", help="exact boundary matching on the blow-up polytope")
    p.add_argument("--dim", type=positive_int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("curvature", help="evaluate scalar curvature at points")
    p.add_argument("--potential", required=True)
    p.add_argument("--dim", type=positive_int, required=True)
    p.add_argument("--t", type=float, action="append", help="evaluate the reduced formula at t (repeatable)")
    p.add_argument("--point", action="append", help="comma-separated action point for the general formula")
    common(p)
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("legendre", help="roundtrip checks of the Legendre duality")
    p.add_argument("--potential", default="flat")
    p.add_argument("--dim", type=positive_int, default=2)
    p.add_argument("--samples", type=positive_int, default=20)
    p.add_argument("--tol-identity", type=tolerance, default=1e-8)
    p.add_argument("--tol-hessian", type=tolerance, default=1e-5)
    common(p)
    p.set_defaults(handler=_cmd_legendre)

    p = sub.add_parser("decay", help="asymptotic flatness scan of the blow-up metric")
    p.add_argument("--dim", type=positive_int, required=True)
    p.add_argument("--u-min", type=float, default=1e2)
    p.add_argument("--u-max", type=float, default=1e6)
    p.add_argument("--samples", type=positive_int, default=32)
    p.add_argument("--tol", type=tolerance, default=0.1, help="allowed slope mismatch")
    common(p)
    p.set_defaults(handler=_cmd_decay)

    p = sub.add_parser("admissible", help="positivity sweep F'' > -1/t")
    p.add_argument("--potential", required=True)
    p.add_argument("--dim", type=positive_int, default=None)
    p.add_argument("--t-range", required=True, help="interval a..b")
    p.add_argument("--samples", type=positive_int, default=200)
    common(p)
    p.set_defaults(handler=_cmd_admissible)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Run one subcommand; 0 = all checks pass, 1 = check failure, 2 = usage/domain error."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # Where and how the report is written is no input, so --output and stdout get the same bytes.
    inputs = {k: v for k, v in vars(args).items() if k not in ("subcommand", "handler", "format", "output")}
    report = RunReport(args.subcommand, inputs)
    try:
        args.handler(args, report)
        emit(report, args.format, args.output)
    except (ToricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a --samples count too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0 if report.overall == "pass" else 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
