"""Tests of the benchmark itself: every check can fail, and every workload runs.

    python3 -m pytest perfbench -q

Each checker is given the result of a real op with one compared value
perturbed, and must count it as a failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads

HERE = Path(__file__).resolve().parent


def bump(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + 0.5 * (1.0 + abs(value))  # beyond every tolerance in the checks


def perturbed(result: dict):
    """Yield (field, copy of result with that one field perturbed)."""
    for key, value in result.items():
        if isinstance(value, list):
            for i in range(len(value)):
                bad = copy.deepcopy(result)
                bad[key][i] = bump(value[i])
                yield f"{key}[{i}]", bad
        else:
            bad = copy.deepcopy(result)
            bad[key] = bump(value)
            yield key, bad


def assert_checks_fail(workload, op, result):
    clean = workload.check(op, result)
    assert clean.ok, (op.label, clean.reason)
    for field, bad in perturbed(result):
        assert not workload.check(op, bad).ok, (op.label, field)


def test_jet_sweep_checks_can_fail():
    w = workloads.JetSweep(0)
    for op in w.cycle()[::3]:
        assert_checks_fail(w, op, w.run(op))


def test_abreu_cross_checks_can_fail():
    w = workloads.AbreuCross(0)
    for op in w.cycle()[:3]:
        assert_checks_fail(w, op, w.run(op))


def test_cli_session_checks_can_fail():
    w = workloads.CliSession(0)
    try:
        for op in w.cycle():
            if op.label == "derive --dim 200":
                continue  # same checks as the smaller dimensions, and slow
            if op.label in w.KNOWN_DEFECTS:
                assert not worker.execute(w, op)[1].ok, op.label
                continue
            result = w.run(op)
            assert w.check(op, result).ok, op.label
            assert not w.check(op, {**result, "exit": result["exit"] + 1}).ok, op.label
            report = result["report"]
            if report is None or report["command"] == "derive":
                continue
            for i, entry in enumerate(report["results"]):
                measured = entry["measured"]
                bad = copy.deepcopy(result)
                if isinstance(measured, dict):
                    bad["report"]["results"][i]["measured"]["min_margin"] = bump(measured["min_margin"])
                elif isinstance(measured, float) and entry["name"] != "samples":
                    bad["report"]["results"][i]["measured"] = bump(measured)
                else:
                    continue
                assert not w.check(op, bad).ok, (op.label, entry["name"])
    finally:
        w.close()


def test_an_exception_is_a_failure():
    w = workloads.JetSweep(0)
    op = w.cycle()[0]
    outcome = w.check(op, ValueError("boom"))
    assert not outcome.ok and "ValueError" in outcome.reason


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_cycle(name):
    w = workloads.build(name, 1)
    try:
        out = worker.closed_loop(w, seconds=0.0, min_ops=1)
    finally:
        if hasattr(w, "close"):
            w.close()
    assert out["correct"], out["failures"]
    assert out["cycles"] == 1
    assert len(out["latencies_s"]) == len(w.cycle())
    if name == "cli_session":
        assert {f["op"] for f in out["failures"]} <= w.KNOWN_DEFECTS
    else:
        assert out["failures"] == []


def test_same_seed_same_inputs():
    a, b = workloads.JetSweep(5), workloads.JetSweep(5)
    assert [op.args["ts"] for op in a.cycle()] == [op.args["ts"] for op in b.cycle()]


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, pct = run.tail(latencies)
    assert sum(v > value for v in latencies) == 10
    assert pct == 90.0


def test_digits_is_positive():
    assert run.digits(1e-6) == pytest.approx(6.0, abs=1e-5)
    assert run.digits(0.5) > 0.0
    assert run.digits(0.0) == 17.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "jet_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
