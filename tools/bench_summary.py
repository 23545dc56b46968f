"""Summarise paired benchmark records of a parent commit and a change into one JSON file.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR OUT.json [--ab-cycles LOG ...]

Each directory holds the ``run_*.json`` records that ``perfbench/run.py``
writes to ``.bench_out/``, one per workload, seed and trace mode.  A run of
the parent and a run of the change with the same workload, seed and trace
mode form a pair; records without a partner are left out.  For every
workload (``<name>`` for end-to-end runs, ``<name>.trace`` for traced ones)
and every metric the output gives each side's median and quartiles, every
run's value by seed, and how many pairs each side won (ties count for
neither), with the better direction and bound from ``BENCHMARK.json``.  It
also gives each side's attempted and failed ops, the failed ops by label,
and the provenance of every run.  Each ``--ab-cycles`` log is the saved
output of ``tools/ab_cycles.py``; its last line, the median ratio and win
count, goes into the output's ``ab_cycles`` list.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Provenance fields kept per run; argv and the per-run error figures stay in the records.
PROVENANCE = ("seed", "git_commit", "source_sha256", "versions", "nproc", "usable_cpus",
              "blas_threads", "cycles", "measured_s", "samples", "fail_rate")


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    """The records of one side keyed by (workload, trace mode, seed)."""
    records = {}
    for path in sorted(directory.glob("run_*.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        trace = 1 if "trace_overhead.ops_per_s" in record["result"]["metrics"] else 0
        records[(prov["workload"], trace, prov["seed"])] = record
    return records


def directions() -> dict[str, dict]:
    """Metric name -> {"better": ..., "bound": ...} as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {k: m[k] for k in ("better", "bound") if k in m}
            for m in bench["end_to_end"] + bench["per_layer"]}


def spread(values: list[float]) -> dict:
    """Median and quartiles (the exclusive method of :func:`statistics.quantiles`)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(parent: dict, change: dict) -> dict:
    meta = directions()
    out = {}
    for key in sorted(parent.keys() & change.keys()):
        workload, trace, _ = key
        group = out.setdefault(f"{workload}.trace" if trace else workload, {"pairs": []})
        group["pairs"].append(key)
    for name, group in out.items():
        keys = group.pop("pairs")
        sides = {"parent": [parent[k] for k in keys], "change": [change[k] for k in keys]}
        group["seeds"] = [k[2] for k in keys]
        metrics = {}
        for metric, first in sides["parent"][0]["result"]["metrics"].items():
            values = {side: [r["result"]["metrics"][metric]["value"] for r in runs]
                      for side, runs in sides.items()}
            entry = {"unit": first["unit"], **meta.get(metric, {})}
            for side, vals in values.items():
                entry[side] = {**spread(vals), "runs": vals}
            better = entry.get("better")
            if better in ("higher", "lower"):
                sign = 1.0 if better == "higher" else -1.0
                diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
                entry["change_wins"] = sum(d > 0 for d in diffs)
                entry["parent_wins"] = sum(d < 0 for d in diffs)
                p, c = entry["parent"], entry["change"]
                entry["median_gap_exceeds_parent_iqr"] = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
            metrics[metric] = entry
        group["metrics"] = metrics
        for side, runs in sides.items():
            failed: dict[str, int] = {}
            for r in runs:
                for label, info in r["failed_ops"].items():
                    failed[label] = failed.get(label, 0) + info["count"]
            group[side] = {
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "failed_ops": failed,
                "provenance": [{f: r["provenance"].get(f) for f in PROVENANCE} for r in runs],
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--ab-cycles", type=Path, nargs="+", default=[])
    args = parser.parse_args(argv)
    parent, change = load(args.parent_dir), load(args.change_dir)
    summary = summarise(parent, change)
    if not summary:
        print("error: no workload, seed and trace mode is recorded on both sides", file=sys.stderr)
        return 2
    record = {"workloads": summary}
    if args.ab_cycles:
        record["ab_cycles"] = [log.read_text().splitlines()[-1] for log in args.ab_cycles]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
