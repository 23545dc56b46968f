import contextlib
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
from torickahler import curvature, scalarflat
from torickahler.cli import RunReport, build_parser, dispatch, emit


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_derive_blowup_dim3(capsys):
    code, out = run(capsys, "derive", "--polytope", "blowup", "--dim", "3")
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


def test_derive_rejects_other_polytopes(capsys):
    code, _ = run(capsys, "derive", "--polytope", "simplex", "--dim", "3")
    assert code == 2


def test_curvature_reduced_value(capsys):
    code, out = run(capsys, "curvature", "--potential", "fubini_study", "--dim", "2", "--t", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["measured"] == pytest.approx(6.0, abs=1e-9)


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
    assert lines[0] == "u,deviation"
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 16
    for line in data:
        u, dev = line.split(",")
        float(u), float(dev)
    assert any("fitted_slope" in l for l in lines if l.startswith("#"))


def test_decay_json_slope(capsys):
    code, out = run(capsys, "decay", "--dim", "3", "--samples", "16")
    assert code == 0
    payload = json.loads(out)
    slope = payload["results"][0]
    assert slope["measured"] == pytest.approx(-2.0, abs=0.1)


def test_decay_output_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, _ = run(
        capsys, "decay", "--dim", "2", "--samples", "16", "--format", "csv", "--output", str(target)
    )
    assert code == 0
    assert target.read_text().splitlines()[0] == "u,deviation"


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
        ["admissible", "--potential", "burns_simanca", "--t-range", "1.1..2"],
        ["curvature", "--potential", "fubini_study", "--dim", "3", "--point", "0.1,0.2"],
    ],
)
def test_malformed_input_exits_two(capsys, argv):
    assert dispatch(argv) == 2


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
    st.tuples(st.just(["derive"]), _option("--dim", _DIMS),
              _option("--polytope", st.sampled_from(["blowup", "simplex"]))),
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


def test_module_entry_point_runs_without_warnings():
    # Importing the package must not import torickahler.cli ahead of runpy.
    src = str(Path(torickahler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "torickahler.cli", "derive", "--dim", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_legendre_report_does_not_depend_on_the_stencil_chunk(monkeypatch, tmp_path, dim):
    # A stencil bound of 5 points splits every row's 1 + 4 n^2 stencil into
    # chunks; each point's sum and jet are the same, so the report is too.
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
    assert max(sizes) <= 5
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
