"""Aggregate saved benchmark results into a baseline and a digest table.

Usage::

    python3 perfbench/baseline.py [--write-baseline] [--reference SEED ...]

Reads every ``perfbench/out/results/*.json`` that ``run.py`` saved and
prints, per workload, the median, quartiles and spread (quartile distance
over median) across seeds of each end-to-end metric.  ``--write-baseline``
also writes ``perfbench/baseline.json``: those statistics, the per-layer
table of the traced runs (median across seeds), every run's digests by
seed and the environment stamps.  ``--reference`` copies the digests of the
given seeds into ``perfbench/reference_digests.json``, which later runs
check against.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "out" / "results"


def stats(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def load() -> list:
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(RESULTS.glob("*.json"))]


def aggregate(records: list) -> dict:
    by_workload = defaultdict(list)
    for record in records:
        by_workload[record["workload"]].append(record)
    out = {}
    for workload, group in sorted(by_workload.items()):
        timed = [r for r in group if not r["trace"]]
        traced = [r for r in group if r["trace"]]
        end_to_end = defaultdict(list)
        for record in timed:
            for name, value in record["medians"].items():
                end_to_end[name].append(value)
        per_layer = defaultdict(list)
        for record in traced:
            for name, value in record["per_layer"].items():
                per_layer[name].append(value)
        out[workload] = {
            "seeds": sorted({r["seed"] for r in timed}),
            "end_to_end": {name: stats(values)
                           for name, values in end_to_end.items()},
            "failed_runs": sum(r["result"]["failed"] for r in group),
            "attempted_runs": sum(r["result"]["attempted"] for r in group),
            "per_layer": {name: statistics.median(values)
                          for name, values in per_layer.items()},
            "traced_seeds": sorted({r["seed"] for r in traced}),
            "digests": {str(r["seed"]): r["digests"] for r in group},
        }
    return out


def digest_table(records: list, seeds: list) -> dict:
    table = defaultdict(dict)
    for record in records:
        if record["seed"] in seeds:
            for label, digests in record["digests"].items():
                known = table[str(record["seed"])].setdefault(label, digests)
                if known != digests:
                    raise SystemExit(f"seed {record['seed']} {label}: "
                                     f"digests disagree between results")
    return dict(table)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--reference", type=int, nargs="*", default=[])
    args = parser.parse_args()
    records = load()
    if not records:
        raise SystemExit(f"no results under {RESULTS}")
    summary = aggregate(records)
    for workload, entry in summary.items():
        print(f"{workload}: seeds {entry['seeds']}, failed "
              f"{entry['failed_runs']} of {entry['attempted_runs']} runs")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<12} median {s['median']:10.4f} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}] spread {s['spread']:.4f} "
                  f"(n={s['n']})")
    if args.write_baseline:
        hosts = []
        for record in records:
            host = {k: v for k, v in record["environment"].items()
                    if not k.startswith("loadavg")}
            if host not in hosts:
                hosts.append(host)
        loads = [float(r["environment"][key].split()[0])
                 for r in records for key in ("loadavg_start", "loadavg_end")]
        baseline = {
            "environment": hosts,
            "loadavg_1min_range": [min(loads), max(loads)],
            "workloads": summary,
        }
        (BENCH / "baseline.json").write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    if args.reference:
        table = digest_table(records, args.reference)
        (BENCH / "reference_digests.json").write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
