import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torickahler
from torickahler import asymptotics, cli, curvature, potentials, scalarflat
from torickahler.cli import RunReport, build_parser, dispatch, emit
from torickahler.jets import variable
from torickahler.potentials import custom_potential


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


_CATALOG_NAMES = ["flat", "fubini_study", "generalized_burns", "burns_simanca"]
_EVERY_SUBCOMMAND = [
    ["verify-catalog", "--dims", "2..3"],
    ["derive", "--dim", "3"],
    ["curvature", "--potential", "burns_simanca", "--dim", "3", "--t", "2.0", "--point", "0.6,0.6,0.6"],
    ["legendre", "--samples", "3"],
    ["decay", "--dim", "2", "--samples", "16"],
    ["admissible", "--potential", "fubini_study", "--t-range", "0.01..0.99"],
]


def test_verify_catalog_passes(capsys):
    code, out = run(capsys, "verify-catalog", "--dims", "2..3", "--tol", "1e-9")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    names = [r["name"] for r in payload["results"]]
    assert any("fubini_study" in n for n in names)
    assert any("burns_simanca" in n for n in names)
    assert all(r["status"] == "pass" for r in payload["results"])


def test_verify_catalog_reports_failure_with_exit_one(capsys):
    code, out = run(capsys, "verify-catalog", "--dims", "2..2", "--tol", "1e-30")
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"


def test_exit_zero_never_with_failed_check(capsys):
    for args in (["verify-catalog", "--dims", "2..2"], ["verify-catalog", "--dims", "2..2", "--tol", "1e-30"]):
        code, out = run(capsys, *args)
        payload = json.loads(out)
        failed = [r for r in payload["results"] if r["status"] == "fail"]
        assert (code == 0) == (not failed)


def test_verify_catalog_checks_every_catalog_entry(capsys):
    # Burns-Simanca's boundary match needs n >= 2, so n = 1 has no entry for it.
    code, out = run(capsys, "verify-catalog", "--dims", "1..3")
    assert code == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    assert names == [
        f"{name}_n{n}_{check}"
        for n in (1, 2, 3)
        for name in _CATALOG_NAMES
        if n >= 2 or name != "burns_simanca"
        for check in ("S", "admissible")
    ]


@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_verify_catalog_fails_on_a_closed_form_off_by_1e_6(capsys, monkeypatch, name):
    entry = cli.CATALOG[name]
    monkeypatch.setitem(cli.CATALOG, name, entry._replace(S=lambda n, t: entry.S(n, t) + 1e-6))
    code, out = run(capsys, "verify-catalog", "--dims", "2..4")
    assert code == 1
    failed = [r["name"] for r in json.loads(out)["results"] if r["status"] == "fail"]
    assert failed == [f"{name}_n{n}_S" for n in (2, 3, 4)]


def test_verify_catalog_sweeps_admissibility_between_the_ends(capsys, monkeypatch):
    # 1 + t F'' = (t - t0)^2 - 1e-4 is negative only within 0.01 of t0, the
    # middle point of the sweep over the flat entry's t range; both ends pass,
    # and so do the sampled t of the S check.
    lo, hi = cli.CATALOG["flat"].t_range
    t0 = float(np.linspace(lo, hi, 64)[32])

    def jet(t, order):
        v = variable(t, order)
        return ((v - t0) * (v - t0) - 1.0001) / v

    pot = custom_potential(jet, (0.0, math.inf), "dip")
    S = functools.partial(curvature.scalar_curvature_reduced, pot)
    monkeypatch.setitem(cli.CATALOG, "flat", cli.CatalogEntry(lambda n: pot, S, (lo, hi)))
    code, out = run(capsys, "verify-catalog", "--dims", "2..2")
    assert code == 1
    failed = [r["name"] for r in json.loads(out)["results"] if r["status"] == "fail"]
    assert failed == ["flat_n2_admissible"]


def test_potential_names_take_hyphens_and_unknown_ones_exit_two(capsys):
    for name in ("fubini-study", "fubini_study"):
        assert run(capsys, "admissible", "--potential", name, "--t-range", "0.01..0.99")[0] == 0
    assert run(capsys, "admissible", "--potential", "burns-simanca", "--dim", "3", "--t-range", "1.001..50")[0] == 0
    assert run(capsys, "admissible", "--potential", "nonsense", "--t-range", "0.01..0.99")[0] == 2


def test_derive_blowup_dim3(capsys):
    code, out = run(capsys, "derive", "--dim", "3")
    assert code == 0
    payload = json.loads(out)
    results = {r["name"]: r for r in payload["results"]}
    assert results["A"]["measured"] == 2
    assert results["B"]["measured"] == -1
    assert results["quotient_coefficients"]["measured"] == [1, 1, -1]


def test_derive_high_dimension(capsys):
    # t^300 overflows at the sample t = 25; the family's F'' jet must not form it.
    code, out = run(capsys, "derive", "--dim", "300")
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_derive_reports_the_delta_tolerance_it_checks(capsys):
    code, out = run(capsys, "derive", "--dim", "4")
    results = {r["name"]: r for r in json.loads(out)["results"]}
    assert code == 0
    assert results["delta_positive_and_factorizes"]["tolerance"] == scalarflat.DELTA_TOL


def test_derive_fails_on_a_division_remainder(capsys, monkeypatch):
    # The report judges the remainder; the potential that needs it refuses it.
    divide = scalarflat._divide_by_t_minus_1

    def off_by_one(coeffs):
        quotient, remainder = divide(coeffs)
        return quotient, remainder + 1

    monkeypatch.setattr(scalarflat, "_divide_by_t_minus_1", off_by_one)
    code, out = run(capsys, "derive", "--dim", "3")
    assert code == 1
    results = {r["name"]: r for r in json.loads(out)["results"]}
    assert results["division_remainder"]["status"] == "fail"
    assert results["division_remainder"]["measured"] == 1
    for argv in (["decay", "--dim", "3"], ["curvature", "--potential", "burns_simanca", "--dim", "3", "--t", "2"]):
        assert dispatch(argv) == 2
        assert "exact division failed" in capsys.readouterr().err


def test_derive_rejects_other_polytopes(capsys):
    # derive works on the blow-up polytope only, and takes no --polytope option.
    for polytope in ("blowup", "simplex"):
        code, _ = run(capsys, "derive", "--polytope", polytope, "--dim", "3")
        assert code == 2


def test_curvature_reduced_value(capsys):
    code, out = run(capsys, "curvature", "--potential", "fubini_study", "--dim", "2", "--t", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["measured"] == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize(
    "name, dim, t, expected",
    [("flat", 2, 1.0, 0.0), ("fubini_study", 3, 0.5, 12.0), ("generalized_burns", 4, 2.0, 1.5),
     ("burns_simanca", 3, 2.0, 0.0)],
)
def test_curvature_t_is_checked_against_the_closed_form(capsys, name, dim, t, expected):
    code, out = run(capsys, "curvature", "--potential", name, "--dim", str(dim), "--t", str(t))
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["expected"] == expected
    assert result["tolerance"] == 1e-9 * (1.0 + abs(expected))


@pytest.mark.parametrize("name, dim, t", [("flat", 2, 1.0), ("fubini_study", 3, 0.5), ("generalized_burns", 4, 2.5),
                                          ("burns_simanca", 3, 2.0)])
@pytest.mark.parametrize("offset, expected_code", [(2e-9, 1), (-2e-9, 1), (0.5e-9, 0), (-0.5e-9, 0)])
def test_curvature_t_check_can_fail(capsys, monkeypatch, name, dim, t, offset, expected_code):
    original = curvature.scalar_curvature_reduced

    def shifted(pot, n, t):
        S = original(pot, n, t)
        return S + offset * (1.0 + abs(S))

    monkeypatch.setattr(curvature, "scalar_curvature_reduced", shifted)
    code, _ = run(capsys, "curvature", "--potential", name, "--dim", str(dim), "--t", str(t))
    assert code == expected_code


def test_curvature_t_near_the_pole_exits_one(capsys):
    # Reduced S loses digits as t nears the pole of F'' at t = 1 (the
    # cancellation in u' - u^2); at 1e-7 from it the scaled error is 8.4e-9.
    code, out = run(capsys, "curvature", "--potential", "burns_simanca", "--dim", "2", "--t", "1.0000001")
    assert code == 1
    (result,) = json.loads(out)["results"]
    assert result["status"] == "fail"
    assert abs(result["measured"] - result["expected"]) > result["tolerance"] == 1e-9


def test_curvature_reduced_beyond_float_range_of_t_power(capsys):
    # 10.7^301 overflows, yet F'' ~ 4e-307 is a normal float.  S = 0 there, up
    # to the roundoff of its three terms, each about n(n+1) F'' in size.
    code, out = run(capsys, "curvature", "--potential", "burns_simanca", "--dim", "300", "--t", "10.7", "--t", "1.5")
    assert code == 0
    eps = sys.float_info.epsilon
    for r, t in zip(json.loads(out)["results"], (10.7, 1.5), strict=True):
        f2 = math.exp(math.log(299 * t - 298) - math.log(t) - 300 * math.log(t))
        assert abs(r["measured"]) <= 64 * eps * 300 * 301 * f2


def test_high_dimension_where_t_power_overflows(capsys):
    # 1.9^1100 ~ 2^1019 and 2.4^1100 overflow a float; F'' is a float at
    # every t on the grid, and S = 0 at t = 1.905, where F'' ~ 1e-305.
    code, out = run(capsys, "admissible", "--potential", "burns_simanca", "--dim", "1100", "--t-range", "1.5..2.5")
    assert code == 0 and json.loads(out)["overall"] == "pass"
    code, out = run(capsys, "curvature", "--potential", "burns_simanca", "--dim", "1100", "--t", "1.905")
    assert code == 0
    assert abs(json.loads(out)["results"][0]["measured"]) <= 1e-290


def test_curvature_refuses_where_f2_underflows(capsys):
    # At t = 50, F'' ~ 1e-510 is below every float: exit 2, naming the cause.
    code = dispatch(["curvature", "--potential", "burns_simanca", "--dim", "300", "--t", "50"])
    assert code == 2
    assert "underflows at t=50.0" in capsys.readouterr().err


def test_curvature_requires_some_input(capsys):
    code, _ = run(capsys, "curvature", "--potential", "flat", "--dim", "2")
    assert code == 2


def test_curvature_point_evaluation(capsys):
    code, out = run(capsys, "curvature", "--potential", "burns_simanca", "--dim", "2", "--point", "1.0,1.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["measured"] == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize(
    "dim, point, expected_code",
    [
        # The stencil reaches 2 (step + inner step) = 0.79 from t = 30, past a fixed window of +-0.5.
        ("3", "10,10,10", 0),
        ("2", "8,8", 0),
        # Near x_2 = 0 and near the pole at t = 1 the finite differences are off by 1.8e-3 and 1.9e-2.
        ("2", "1.2,0.05", 1),
        ("2", "0.55,0.55", 1),
    ],
)
def test_curvature_point_is_checked_against_reduced_s(capsys, dim, point, expected_code):
    code, out = run(capsys, "curvature", "--potential", "burns_simanca", "--dim", dim, "--point", point)
    assert code == expected_code
    (result,) = json.loads(out)["results"]
    n, t = int(dim), sum(float(v) for v in point.split(","))
    assert result["expected"] == curvature.scalar_curvature_reduced(scalarflat.burns_simanca_potential(n), n, t)
    assert result["tolerance"] == 1e-4 * (1.0 + abs(result["expected"]))
    assert (abs(result["measured"] - result["expected"]) <= result["tolerance"]) == (expected_code == 0)


@pytest.mark.parametrize(
    "value, expected_code",
    [(5.0, 1), (6.0 - 7.1e-4, 1), (6.0 + 7.1e-4, 1), (1e300, 1), (-1e300, 1), (6.0 - 6.9e-4, 0), (6.0 + 6.9e-4, 0)],
)
def test_curvature_point_check_can_fail(capsys, monkeypatch, value, expected_code):
    # Fubini-Study at n = 2 has S = 6, so the tolerance is 1e-4 (1 + 6) = 7e-4.
    monkeypatch.setattr(curvature, "scalar_curvature_abreu", lambda g, x: value)
    code, _ = run(capsys, "curvature", "--potential", "fubini_study", "--dim", "2", "--point", "0.2,0.25")
    assert code == expected_code


def test_legendre_roundtrip_command(capsys):
    code, out = run(capsys, "legendre", "--potential", "fubini_study", "--dim", "2", "--samples", "10")
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_admissible_sweep(capsys):
    code, out = run(capsys, "admissible", "--potential", "fubini_study", "--t-range", "0.01..0.99")
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_decay_csv_contract(capsys):
    code, out = run(
        capsys, "decay", "--dim", "2", "--u-max", "1e5", "--samples", "16", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,deviation,fitted"
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 16
    scan = asymptotics.decay_scan(2, 1e2, 1e5, 16)
    assert data == [f"{u!r},{d!r},{f}" for (u, d), f in zip(scan.samples, scan.fitted, strict=True)]
    assert any("fitted_slope" in l for l in lines if l.startswith("#"))


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_every_csv_row_parses_to_its_header_width(capsys, argv):
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    data = [row for row in rows if not row[0].startswith("#")]
    assert data and all(len(row) == len(header) for row in data)
    assert all(len(row) == 1 for row in rows if row[0].startswith("#"))


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_report_inputs_are_the_parsed_options(capsys, argv):
    # Every option of the subcommand, in the parser's order, except where and how to write.
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = [a.dest for a in subparsers.choices[argv[0]]._actions if a.dest not in ("help", "format", "output")]
    args = build_parser().parse_args(argv)
    code, out = run(capsys, *argv)
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert list(inputs) == dests
    assert inputs == {dest: json.loads(json.dumps(getattr(args, dest))) for dest in dests}
    assert "seed" in inputs
    if argv[0] == "decay":
        assert inputs["tol"] == 0.1


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_output_file_holds_the_bytes_of_stdout(capsys, tmp_path, argv, fmt):
    _, out = run(capsys, *argv, "--format", fmt)
    target = tmp_path / "report"
    run(capsys, *argv, "--format", fmt, "--output", str(target))
    assert target.read_bytes() == out.encode()


def test_csv_list_and_dict_cells_are_one_json_field(capsys):
    _, out = run(capsys, "derive", "--dim", "3", "--format", "csv")
    rows = {row[0]: row for row in csv.reader(io.StringIO(out))}
    assert json.loads(rows["quotient_coefficients"][2]) == [1, 1, -1]
    _, out = run(capsys, "admissible", "--potential", "fubini_study", "--t-range", "0.01..0.99", "--format", "csv")
    rows = {row[0]: row for row in csv.reader(io.StringIO(out))}
    assert json.loads(rows["admissibility"][2])["witness"] is None


def test_decay_json_slope(capsys):
    code, out = run(capsys, "decay", "--dim", "3", "--samples", "16")
    assert code == 0
    payload = json.loads(out)
    slope = payload["results"][0]
    assert slope["measured"] == pytest.approx(-2.0, abs=0.1)


def test_decay_past_the_range_of_f2(capsys):
    # F''(u) ~ 1/u^2 underflows from u ~ 1e154 on; the scan still fits.
    code, out = run(capsys, "decay", "--dim", "2", "--u-max", "1e160")
    assert code == 0
    assert json.loads(out)["results"][0]["measured"] == pytest.approx(-1.0, rel=1e-6)


@pytest.mark.parametrize(
    "argv, unfitted",
    [(["--dim", "2", "--u-max", "1e160"], 3), (["--dim", "3", "--u-max", "1e200"], 17), (["--dim", "4"], 8)],
)
def test_decay_report_marks_the_samples_left_out_of_the_fit(capsys, argv, unfitted):
    # The fit reads samples past the first decade of u whose F'' = deviation/u is a normal float.
    code, out = run(capsys, "decay", *argv)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "inputs", "results", "overall", "table"]
    assert [r["name"] for r in payload["results"]] == ["fitted_slope"]
    assert payload["table"]["columns"] == ["u", "deviation", "fitted"]
    rows = payload["table"]["rows"]
    u_min = rows[0][0]
    assert [fitted for _, _, fitted in rows] == [u >= 10 * u_min and d >= u * sys.float_info.min for u, d, _ in rows]
    assert sum(not fitted for _, _, fitted in rows) == unfitted


@pytest.mark.parametrize(
    "argv",
    [["--dim", "200"], ["--dim", "2", "--u-min", "1e300", "--u-max", "1e305"]],
    ids=["dim200", "u_past_1e300"],
)
def test_decay_with_every_f2_underflowed_exits_two(capsys, argv):
    # No sample has a normal F'', so there is no slope to fit: a value outside
    # the domain (2), not a failed check (1).
    assert dispatch(["decay", *argv]) == 2
    assert "cannot fit a slope" in capsys.readouterr().err


def test_decay_output_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, _ = run(
        capsys, "decay", "--dim", "2", "--samples", "16", "--format", "csv", "--output", str(target)
    )
    assert code == 0
    assert target.read_text().splitlines()[0] == "u,deviation,fitted"


def test_unwritable_destination(capsys):
    code, _ = run(
        capsys, "decay", "--dim", "2", "--samples", "16", "--output", "/nonexistent/dir/out.json"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "5"],
        ["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "5..1"],
        ["admissible", "--potential", "fubini_study", "--t-range", "0.1..0.9", "--samples", "-5"],
        ["decay", "--dim", "3", "--samples", "4"],
        ["curvature", "--potential", "burns_simanca", "--dim", "3", "--point", "0.1,0.1,0.1"],
        ["curvature", "--potential", "fubini_study", "--dim", "2", "--point", "0.1,x"],
        ["legendre", "--samples", "0"],
        ["verify-catalog", "--samples", "0"],
        ["verify-catalog", "--dims", "5..1"],
        ["verify-catalog", "--tol", "nan"],
        ["verify-catalog", "--tol", "-1"],
        ["decay", "--dim", "3", "--tol", "nan"],
        ["legendre", "--tol-identity", "-1"],
        ["legendre", "--tol-hessian", "nan"],
        ["verify-catalog", "--tol", "inf"],
        ["legendre", "--tol-identity", "inf", "--tol-hessian", "inf"],
        ["decay", "--dim", "3", "--tol", "inf"],
        ["admissible", "--potential", "burns_simanca", "--t-range", "1.1..2"],
        ["curvature", "--potential", "fubini_study", "--dim", "3", "--point", "0.1,0.2"],
        ["verify-catalog", "--dims", "2..2", "--seed", "-1"],
        ["derive", "--dim", "3", "--seed", "-1"],
        ["legendre", "--seed", "-3"],
        ["verify-catalog", "--dims", "x"],
        ["verify-catalog", "--dims", "0..2"],
        ["legendre", "--potential", "burns_simanca"],
        ["curvature", "--potential", "flat", "--dim", "2", "--point", "inf,1"],
    ],
)
def test_malformed_input_exits_two(capsys, argv):
    assert dispatch(argv) == 2


def _refusing_huge(fn, size_of):
    """``fn``, except that a request for 1e9 or more values raises MemoryError instead of allocating."""

    def wrapper(*args, **kwargs):
        if np.prod(size_of(*args, **kwargs)) >= 1e9:
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "argv",
    [
        ["admissible", "--potential", "fubini_study", "--t-range", "0.1..0.9"],
        ["verify-catalog"],
        ["legendre"],
        ["decay", "--dim", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_sample_count_too_large_to_allocate_exits_two(capsys, monkeypatch, argv):
    # numpy raises MemoryError for an array it cannot allocate.  The stand-ins
    # raise it before any such array is asked for: under memory overcommit a
    # real allocation of 745 GiB could succeed.
    default_rng = np.random.default_rng

    class Rng:
        def __init__(self, seed):
            self.uniform = _refusing_huge(default_rng(seed).uniform, lambda low, high, size: size)

    monkeypatch.setattr(np.random, "default_rng", Rng)
    for name in ("linspace", "geomspace"):
        monkeypatch.setattr(np, name, _refusing_huge(getattr(np, name), lambda start, stop, num, **_: num))
    assert dispatch([*argv, "--samples", "100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: Unable to allocate")
    assert len(captured.err.splitlines()) == 1


_NUMBERS = st.sampled_from(["0.1", "0.3", "0.99", "1.5", "2", "25", "1e6", "0", "-1", "nan", "inf", "x"])
_POTENTIALS = st.sampled_from(["flat", "fubini_study", "fubini-study", "generalized_burns", "burns_simanca", "nope"])
_DIMS = st.integers(-1, 12).map(str)
_SAMPLES = st.integers(-2, 50).map(str)


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _repeated(flag, values):
    return st.lists(values, max_size=2).map(lambda vs: [w for v in vs for w in (flag, v)])


_INTERVALS = st.one_of(st.tuples(_NUMBERS, _NUMBERS).map("..".join), _NUMBERS)
_DIM_RANGES = st.one_of(
    st.tuples(st.integers(-1, 12), st.integers(-1, 12)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    st.sampled_from(["3", "x", "..3", "2..x", ""]),
)
# Points have at most three coordinates: Abreu's stencil costs O(n^4) calls.
_POINTS = st.lists(_NUMBERS, max_size=3).map(",".join)

_ARGV = st.one_of(
    st.tuples(st.just(["verify-catalog"]), _option("--dims", _DIM_RANGES), _option("--samples", _SAMPLES),
              _option("--tol", _NUMBERS)),
    st.tuples(st.just(["derive"]), _option("--dim", _DIMS)),
    st.tuples(st.just(["curvature"]), _option("--potential", _POTENTIALS), _option("--dim", _DIMS),
              _repeated("--t", _NUMBERS), _repeated("--point", _POINTS)),
    st.tuples(st.just(["legendre"]), _option("--potential", _POTENTIALS), _option("--dim", _DIMS),
              _option("--samples", _SAMPLES)),
    st.tuples(st.just(["decay"]), _option("--dim", _DIMS), _option("--samples", _SAMPLES),
              _option("--u-min", _NUMBERS), _option("--u-max", _NUMBERS)),
    st.tuples(st.just(["admissible"]), _option("--potential", _POTENTIALS), _option("--dim", _DIMS),
              _option("--t-range", _INTERVALS), _option("--samples", _SAMPLES)),
).map(lambda parts: [w for part in parts for w in part])


@given(_ARGV, st.sampled_from(["json", "csv"]))
@settings(max_examples=60, deadline=None)
def test_every_argv_keeps_the_exit_contract(argv, fmt):
    # Any exception escaping dispatch fails the test; so does any other exit code.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv + ["--format", fmt])
    assert code in (0, 1, 2)


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -W error::RuntimeWarning -m torickahler.cli argv`` in a fresh interpreter on this checkout."""
    src = str(Path(torickahler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "torickahler.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_module_entry_point_runs_without_warnings():
    # Importing the package must not import torickahler.cli ahead of runpy.
    proc = _run_module("derive", "--dim", "3")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("point", ["0.1,inf", "nan,0.2"])
def test_non_finite_point_exits_two_without_warnings(point):
    proc = _run_module("curvature", "--potential", "fubini_study", "--dim", "2", "--point", point)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: expected finite numbers, got {point!r}\n"


def test_flat_curvature_at_the_largest_t_is_zero_without_warnings():
    # 2 (n + 1) t overflows at t = 1e308, but F'' = 0 has S = 0 exactly.
    proc = _run_module("curvature", "--potential", "flat", "--dim", "1", "--t", "1e308")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"][0]["measured"] == 0.0


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["decay", "--dim", "2", "--u-max", "1.7e308"], 0, None),
        (["decay", "--dim", "3", "--u-max", "1.7e308"], 0, None),
        (["decay", "--dim", "8", "--u-max", "1.7e308"], 0, None),
        (["admissible", "--potential", "generalized_burns", "--t-range", "1.0001..1.7e308"], 0, None),
        (["admissible", "--potential", "burns_simanca", "--dim", "3", "--t-range", "1.001..1.7e308"], 0, None),
        (["curvature", "--potential", "generalized_burns", "--dim", "3", "--t", "1e200"], 2,
         "error: F'' underflows at t=1e+200; its derivatives are not representable\n"),
        (["curvature", "--potential", "burns_simanca", "--dim", "3", "--t", "1.7e308"], 2,
         "error: F'' underflows at t=1.7e+308; its derivatives are not representable\n"),
        (["curvature", "--potential", "flat", "--dim", "2", "--point", "1e160,1e160"], 2,
         "error: |x| overflows (largest |x_i| = 1e+160); no finite-difference step fits it\n"),
    ],
    ids=["decay_n2", "decay_n3", "decay_n8", "admissible_generalized_burns", "admissible_burns_simanca_n3",
         "generalized_burns_t1e200", "burns_simanca_t1.7e308", "flat_point1e160"],
)
def test_the_float_range_keeps_the_exit_contract_without_warnings(argv, code, message):
    # Up to the float maximum, t (t^n - a t - b) and a t + b are formed at a
    # power-of-two scale, and |x| is refused where it overflows.
    proc = _run_module(*argv)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == message
        return
    payload = json.loads(proc.stdout)
    assert payload["overall"] == "pass"
    if argv[0] == "decay":
        (slope,) = payload["results"]
        assert slope["expected"] == 1 - int(argv[2])
        assert slope["measured"] == pytest.approx(slope["expected"], abs=1e-6)


def test_runtime_imports_no_scipy():
    # The package and its CLI run on numpy alone; scipy costs most of an
    # interpreter's start-up, so no import path may pull it in.
    src = str(Path(torickahler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, torickahler, torickahler.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_curvature_point_imports_no_numpy_polynomial():
    # The Chebyshev F of Abreu's route is built without numpy.polynomial,
    # whose first use imports nine modules.
    src = str(Path(torickahler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from torickahler import cli; "
        "code = cli.dispatch(['curvature', '--potential', 'burns_simanca', '--dim', '3', '--point', '0.6,0.6,0.6']); "
        "sys.exit(code or 'numpy.polynomial' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_verify_catalog_sweeps_each_potential_once(capsys, monkeypatch):
    # Flat, Fubini-Study and generalized Burns do not depend on n; Burns-Simanca does.
    swept = []
    original = potentials.admissibility

    def recording(pot, t_range, samples=200):
        swept.append(pot.label)
        return original(pot, t_range, samples)

    monkeypatch.setattr(potentials, "admissibility", recording)
    code, out = run(capsys, "verify-catalog", "--dims", "1..4")
    assert code == 0
    assert swept == ["flat", "fubini_study", "generalized_burns"] + ["burns_simanca"] * 3
    names = [r["name"] for r in json.loads(out)["results"] if r["name"].endswith("_admissible")]
    assert len(names) == 15


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_legendre_report_does_not_depend_on_the_stencil_chunk(monkeypatch, tmp_path, dim):
    # A stencil bound of 5 points makes each of the 20 rows a block of its
    # own, one jet on its 1 + 2 n + 2 n^2 stencil values; a row gives the same
    # bits as inside a larger block, so the report is the same too.
    argv = ["legendre", "--potential", "fubini_study", "--dim", str(dim), "--seed", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv + ["--output", str(tmp_path / "whole.json")]) == 0
        monkeypatch.setattr(curvature, "STENCIL_BLOCK", 5)
        sizes = []
        original = curvature.radial_jet

        def recording(f, s, order):
            sizes.append(np.size(s))
            return original(f, s, order)

        monkeypatch.setattr(curvature, "radial_jet", recording)
        assert dispatch(argv + ["--output", str(tmp_path / "chunked.json")]) == 0
    assert sizes == [1 + 2 * dim + 2 * dim**2] * 20
    assert (tmp_path / "chunked.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


def test_unknown_subcommand(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_malformed_flag(capsys):
    assert dispatch(["decay", "--dim", "not-a-number"]) == 2


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "verify-catalog", "--dims", "2..3", "--seed", "11")
    _, second = run(capsys, "verify-catalog", "--dims", "2..3", "--seed", "11")
    assert first == second


def test_empty_report_is_valid_json():
    report = RunReport("noop", {})
    assert report.overall == "pass"
    emit(report, "json", None)


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(RunReport("noop", {}), "yaml", None)


def test_reused_parser_matches_a_fresh_parser_per_call(capsys):
    # One parser serves every dispatch of a process; no default or appended
    # value may leak from one call into the next.
    sequence = [
        ["legendre", "--samples", "3"],
        ["legendre"],
        ["curvature", "--potential", "fubini_study", "--dim", "2", "--t", "0.3", "--t", "0.4"],
        ["curvature", "--potential", "fubini_study", "--dim", "2", "--t", "0.5"],
        ["derive"],
        ["decay", "--dim", "3", "--samples", "4"],
        ["legendre", "--samples", "0"],
        ["frobnicate"],
        [],
        ["derive", "--dim", "3", "--format", "csv"],
        ["derive", "--dim", "3"],
    ]

    def outcomes(fresh):
        build_parser.cache_clear()
        seen = []
        for argv in sequence:
            if fresh:
                build_parser.cache_clear()
            code = dispatch(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    fresh, reused = outcomes(True), outcomes(False)
    assert build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 2, 2, 2, 2, 0, 0]
    assert json.loads(reused[1][1])["inputs"]["samples"] == 20
    assert len(json.loads(reused[3][1])["results"]) == 1
