import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_CYCLES = ROOT / "tools" / "ab_cycles.py"


def test_ab_cycles_runs_one_pair_of_cycles():
    proc = subprocess.run(
        [sys.executable, str(AB_CYCLES), str(ROOT), str(ROOT), "--workload", "jet_sweep", "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"pair 1: A [\d.]+ ms, B [\d.]+ ms, A/B [\d.]+", lines[0])
    assert lines[1] == f"A: {ROOT}, 0 failed ops, unexpected: none"
    assert re.fullmatch(r"jet_sweep: median A/B [\d.]+ over 1 pairs; B faster in [01]/1", lines[-1])


def test_ab_cycles_refuses_a_root_without_the_benchmark(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(AB_CYCLES), str(ROOT), str(tmp_path), "--workload", "jet_sweep", "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "has no perfbench/workloads.py" in proc.stderr
