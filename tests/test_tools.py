import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_CYCLES = ROOT / "tools" / "ab_cycles.py"
BENCH_SUMMARY = ROOT / "tools" / "bench_summary.py"
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"


def test_ab_cycles_runs_one_pair_of_cycles():
    proc = subprocess.run(
        [sys.executable, str(AB_CYCLES), str(ROOT), str(ROOT), "--workload", "jet_sweep", "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"pair 1: A [\d.]+ ms, B [\d.]+ ms, A/B [\d.]+", lines[0])
    assert lines[1] == f"A: {ROOT}, 0 failed ops, unexpected: none"
    last = re.fullmatch(
        r"jet_sweep: median A/B ([\d.]+) over 1 pairs; B faster in [01]/1; quartiles \[([\d.]+), ([\d.]+)\]", lines[-1]
    )
    assert last and last[1] == last[2] == last[3]


def test_ab_cycles_refuses_a_root_without_the_benchmark(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(AB_CYCLES), str(ROOT), str(tmp_path), "--workload", "jet_sweep", "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "has no perfbench/workloads.py" in proc.stderr


def _run_record(directory: Path, seed: int, ops_per_s: float) -> None:
    """The fields of a ``perfbench/run.py`` record that the summary reads."""
    directory.mkdir(exist_ok=True)
    record = {
        "provenance": {"workload": "abreu_cross", "seed": seed},
        "result": {"attempted": 7, "failed": 0, "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}}},
        "failed_ops": {},
    }
    (directory / f"run_{seed}.json").write_text(json.dumps(record))


def test_bench_summary_pairs_runs_and_keeps_the_ab_cycles_line(tmp_path):
    for seed, (p, c) in enumerate([(10.0, 15.0), (11.0, 14.0), (12.0, 11.0)], start=1):
        _run_record(tmp_path / "parent", seed, p)
        _run_record(tmp_path / "change", seed, c)
    log = tmp_path / "ab.txt"
    last = "abreu_cross: median A/B 2.000 over 1 pairs; B faster in 1/1; quartiles [2.000, 2.000]"
    log.write_text(f"pair 1: A 2.0 ms, B 1.0 ms, A/B 2.000\n{last}\n")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_SUMMARY), str(tmp_path / "parent"), str(tmp_path / "change"), str(out),
         "--ab-cycles", str(log)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    ops = summary["workloads"]["abreu_cross"]["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["parent_wins"]) == (2, 1)
    assert ops["parent"]["median"] == 11.0 and ops["change"]["median"] == 14.0
    assert summary["ab_cycles"] == [last]


def _copy_checkout(destination: Path) -> Path:
    """The parts of this checkout that tools/same_outputs.py runs, copied to ``destination``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".bench_out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, destination / name, ignore=ignore)
    return destination


def test_same_outputs_passes_two_copies_and_flags_a_changed_tolerance(tmp_path):
    parent, change = _copy_checkout(tmp_path / "parent"), _copy_checkout(tmp_path / "change")

    def compare():
        return subprocess.run(
            [sys.executable, str(SAME_OUTPUTS), str(parent), str(change)], capture_output=True, text=True, timeout=600
        )

    same = compare()
    assert same.returncode == 0, same.stdout + same.stderr
    assert re.fullmatch(r"\d+ outputs compared, 0 differ\n", same.stdout)

    cli = change / "src" / "torickahler" / "cli.py"
    old = "1e-9 * (1.0 + abs(expected)))"
    assert cli.read_text().count(old) == 1
    cli.write_text(cli.read_text().replace(old, "2e-9 * (1.0 + abs(expected)))"))
    changed = compare()
    assert changed.returncode == 1, changed.stderr
    *flagged, last = changed.stdout.splitlines()
    assert re.fullmatch(r"\d+ outputs compared, \d+ differ", last)
    # Only the reports of curvature --t carry that tolerance.
    assert flagged and all(re.match(r"(cli_session .*)?curvature .*--t", line) for line in flagged)
    assert 'curvature --potential flat --t 2.0 --dim 2 --format json: line 20: parent .stdout:       "tolerance": ' \
        '1e-09 | change .stdout:       "tolerance": 2e-09' in flagged


def test_same_outputs_refuses_a_root_without_the_library(tmp_path):
    for argv in ([str(ROOT), str(tmp_path)], [str(ROOT)]):
        proc = subprocess.run([sys.executable, str(SAME_OUTPUTS), *argv], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""


def test_every_registered_mutant_applies_once():
    # Runs no mutant: a registry whose old texts drifted from the source
    # would mutate nothing, so each must still occur exactly once.
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.INTEGRITY_TEST.endswith("::" + test_every_registered_mutant_applies_once.__name__)
    for mutant in (mutants.EQUIVALENT, *mutants.MUTANTS):
        assert mutant.old != mutant.new, mutant.reason
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.reason
