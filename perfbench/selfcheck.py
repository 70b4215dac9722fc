"""Self-checks of the benchmark itself, on small CLI runs (about a minute).

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Checks that traced spans nest and their self times fit inside the traced
wall time, that the nesting check rejects a span outside its parent, that
the digest gate fails a run whose CSV has one flipped byte, that an
invalid configuration (exit code 2) counts as a failed run, and that
``BENCHMARK.json`` names exactly the metrics and workloads ``run.py``
reports.  Prints one PASS/FAIL line per check; exits 1 if any failed.
"""

from __future__ import annotations

import json
import sys

import run as bench
from workloads import WORKLOADS, Run

WORK = bench.WORK / "selfcheck"
SMALL = (
    Run("sandpile", ("width=8", "height=8", "warmup=100", "n_drops=300")),
    Run("resonance", ("omega=1.0", "dt=0.05", "t_total=700")),
    Run("search", ("sides=8", "target_counts=1", "radii=0")),
)


def check_tracing() -> str:
    untraced = bench.run_pass(SMALL, 0, WORK / "untraced", traced=False)
    traced = bench.run_pass(SMALL, 0, WORK / "traced", traced=True)
    digests: dict = {}
    bench.check_pass(untraced, SMALL, {}, digests)
    bench.check_pass(traced, SMALL, {}, digests)
    problems = [r.problems for r in untraced.runs + traced.runs]
    if any(problems):
        return f"a small run failed: {problems}"
    layers = bench.per_layer_metrics(traced, untraced.wall_s)
    total = sum(layers[f"{layer}.self_s"] for layer in bench.LAYERS)
    if not 0 < total <= traced.wall_s:
        return f"self times sum to {total} s, traced wall {traced.wall_s} s"
    if layers["trace.spans"] == 0 or layers["resonance.em_steps"] == 0:
        return "no spans or counters recorded"
    return ""


def check_nesting_rejected() -> str:
    result = bench.RunResult(label="synthetic", exit_code=0, wall_s=1.0,
                             setup_s=0.0, peak_rss_mb=0.0, spawn=0.0,
                             exit=1.0, out_dir=WORK, side=str(WORK / "x"))
    trace = {"spans": [("cli.main", 0.1, 0.5, -1),
                       ("core.periodogram", 0.4, 0.6, 0)]}
    try:
        bench._self_times(result, trace)
    except bench.BenchmarkError:
        return ""
    return "a child span ending after its parent was accepted"


def check_flipped_byte() -> str:
    runs = (Run("interfere"),)
    first = bench.run_pass(runs, 0, WORK / "digest", traced=False)
    bench.check_pass(first, runs, {}, {})
    result = first.runs[0]
    if result.problems:
        return f"clean run failed: {result.problems}"
    reference = {result.label: dict(result.digests)}
    csv_path = result.out_dir / "interfere.csv"
    data = bytearray(csv_path.read_bytes())
    data[-2] ^= 0x01
    csv_path.write_bytes(bytes(data))
    result.problems.clear()
    bench.check_run(result, runs[0], reference, {})
    if not any("reference" in p for p in result.problems):
        return f"flipped byte not caught: {result.problems}"
    return ""


def check_invalid_config() -> str:
    runs = (Run("decay"), Run("decay", ("n_atoms=0",)))
    result = bench.run_pass(runs, 0, WORK / "invalid", traced=False)
    bench.check_pass(result, runs, {}, {})
    if result.runs[1].exit_code != 2:
        return f"invalid config exited {result.runs[1].exit_code}, not 2"
    if result.failed / len(result.runs) != 0.5:
        return f"failed ratio {result.failed}/{len(result.runs)}, not 1/2"
    return ""


def check_benchmark_json() -> str:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems = []
    for key, units in (("end_to_end", bench.END_TO_END_UNITS),
                       ("per_layer", bench.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"{key} differs from run.py")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("workloads differ from workloads.py")
    return "; ".join(problems)


CHECKS = {
    "traced spans nest and self times fit the traced wall": check_tracing,
    "nesting check rejects a span outside its parent": check_nesting_rejected,
    "digest gate fails a run with one flipped CSV byte": check_flipped_byte,
    "invalid config (exit 2) counts in failed_ratio": check_invalid_config,
    "BENCHMARK.json matches run.py and workloads.py": check_benchmark_json,
}


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    failures = 0
    for description, check in CHECKS.items():
        try:
            problem = check()
        except bench.BenchmarkError as exc:
            problem = f"benchmark error: {exc}"
        failures += bool(problem)
        print(f"{'FAIL' if problem else 'PASS'}: {description}"
              + (f" -- {problem}" if problem else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
