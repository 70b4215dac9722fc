"""End-to-end and per-layer benchmark of the ``stochlab`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {paths,dynamics,suite} --seed N \\
        --seconds S --trace {0,1}

One pass of a workload runs its CLI runs (see ``workloads.py``) one after
another, each in a fresh child interpreter launched as
``python -c "...from stochlab.cli import main..."`` with ``src`` on
``PYTHONPATH``: a closed loop with one client.  Passes repeat until the
next one would end after ``--seconds``, with at least two, and every
end-to-end metric is the median over passes:

* ``wall_s``: first spawn to last exit of a pass, tracing off;
* ``setup_s``: per run, spawn until ``cli.validate`` returns (interpreter
  start, ``import stochlab.cli``, argument parsing, validation), summed
  over the pass;
* ``peak_rss_mb``: largest peak resident set of any run in the pass.

A run fails if it exits non-zero, writes no ``manifest.json``, a data
file's SHA-256 differs from its manifest entry, from the reference digest
recorded for the seed (``reference_digests.json``) or from the first
pass's digest, or a summary value leaves its acceptance band.

With ``--trace 1`` one further pass runs every child under ``tracer.py``;
its spans give the per-layer self times and counters, and are written with
their run id to ``spans.json`` in the traced pass's directory.  The last
line of standard output is the JSON result; full results go to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"
REFERENCE = BENCH / "reference_digests.json"
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("cli", "core", "quantum", "paths", "diffusion", "sandpile",
          "resonance", "memory", "networks", "search")

# Untraced child: the only instrumentation is one timestamp written when
# cli.validate returns, which ends the run's set-up interval.
UNTRACED_CHILD = """\
import os, sys, time
from stochlab import cli
from stochlab.cli import main
def _stamped(validate):
    def stamped(config):
        violations = validate(config)
        now = time.monotonic()
        with open(os.environ["PERFBENCH_STAMP"], "w") as f:
            f.write(repr(now))
        return violations
    return stamped
cli.validate = _stamped(cli.validate)
sys.exit(main(sys.argv[1:]))
"""

TRACED_CHILD = """\
import sys
import tracer
with tracer.span("cli.import"):
    from stochlab.cli import main
sys.exit(tracer.traced_main(sys.argv[1:]))
"""

WARMUP_CHILD = "import stochlab.cli\n"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "cli.interpreter_start_s": "s",
    "cli.import_s": "s",
    "cli.validate_s": "s",
    "cli.main_self_s": "s",
    "cli.run_self_s": "s",
    "cli.bytes_written": "B",
    "cli.rows_written": "count",
    "paths.metropolis_sample_s": "s",
    "paths.site_updates": "count",
    "paths.ns_per_site_update": "ns",
    "paths.acceptance_rate": "1",
    "paths.measured_proposals": "count",
    "paths.tau_int": "sweeps",
    "paths.stride": "sweeps",
    "paths.kept_fraction": "1",
    "paths.kept_samples": "count",
    "paths.measured_sweeps": "count",
    "paths.hausdorff_scan_s": "s",
    "paths.kept_bytes": "B",
    "resonance.integrate_s": "s",
    "resonance.em_steps": "count",
    "resonance.ns_per_em_step": "ns",
    "resonance.snr_at_drive_s": "s",
    "sandpile.drive_s": "s",
    "sandpile.drops": "count",
    "sandpile.relax_rounds": "count",
    "sandpile.topplings": "count",
    "sandpile.us_per_round": "us",
    "sandpile.quiet_drop_fraction": "1",
    "sandpile.abelian_check_s": "s",
    "sandpile.drop_and_relax_s": "s",
    "memory.simulated_annealing_s": "s",
    "memory.anneal_proposals": "count",
    "memory.ns_per_proposal": "ns",
    "memory.anneal_acceptance": "1",
    "memory.ground_state_bruteforce_s": "s",
    "memory.zero_t_dynamics_s": "s",
    "networks.metrics_s": "s",
    "networks.watts_strogatz_s": "s",
    "networks.barabasi_albert_s": "s",
    "networks.skipped_rewires": "count",
    "diffusion.simulate_walk_s": "s",
    "diffusion.walker_steps": "count",
    "search.strategy_tournament_s": "s",
    "search.random_walk_search_s": "s",
    "search.sweep_search_s": "s",
    "core.periodogram_s": "s",
    "core.fit_power_law_s": "s",
    "core.rng_streams": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}

# Per-layer metrics that are one span's total self time.
SPAN_SELF = ("cli.import", "cli.validate",
             "paths.metropolis_sample", "paths.hausdorff_scan",
             "resonance.integrate", "resonance.snr_at_drive",
             "sandpile.drive", "sandpile.abelian_check",
             "sandpile.drop_and_relax",
             "memory.simulated_annealing", "memory.ground_state_bruteforce",
             "memory.zero_t_dynamics", "networks.metrics",
             "networks.watts_strogatz", "networks.barabasi_albert",
             "diffusion.simulate_walk", "search.strategy_tournament",
             "search.random_walk_search", "search.sweep_search",
             "core.periodogram", "core.fit_power_law")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run or its own invariants broke."""


@dataclass
class RunResult:
    label: str
    exit_code: int
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    spawn: float
    exit: float
    out_dir: Path
    side: str       # prefix of the run's .log, .stamp and .trace.json
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    band_misses: list = field(default_factory=list)


@dataclass
class PassResult:
    runs: list
    wall_s: float
    traced: bool

    @property
    def setup_s(self) -> float:
        return sum(run.setup_s for run in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(run.peak_rss_mb for run in self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for run in self.runs if run.problems)


# --------------------------------------------------------------------------
# environment


def child_env(traced: bool) -> dict:
    """Child environment: ``src`` on the path, BLAS threads capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        requested = int(value) if value.isdigit() and int(value) > 0 else nproc
        env[var] = str(min(requested, nproc))
    path = [str(SRC)] + ([str(BENCH)] if traced else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return handle.read().strip()


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment_stamp() -> dict:
    env = child_env(traced=False)
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "loadavg_start": _loadavg(),
    }


# --------------------------------------------------------------------------
# running one pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(code: str, argv: list, env: dict, log: Path) -> tuple:
    """Run one child to completion; return (exit code, rusage, spawn, exit)."""
    with log.open("wb") as handle:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                                cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=handle, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, start, end


def launch(run, seed: int, pass_dir: Path, index: int, traced: bool,
           env: dict) -> RunResult:
    out_dir = pass_dir / f"{index:02d}-{run.experiment}"
    side = pass_dir / f"{index:02d}"
    env = dict(env, PERFBENCH_STAMP=f"{side}.stamp",
               PERFBENCH_TRACE=f"{side}.trace.json")
    argv = [run.experiment, *run.overrides, "--seed", str(seed),
            "--out", str(out_dir)]
    code = TRACED_CHILD if traced else UNTRACED_CHILD
    exit_code, usage, start, end = spawn(code, argv, env,
                                         Path(f"{side}.log"))
    # A run that never returned from validation waited its whole length.
    stamp = Path(f"{side}.stamp")
    setup = (float(stamp.read_text()) - start if stamp.exists()
             else end - start)
    return RunResult(label=run.label, exit_code=exit_code, wall_s=end - start,
                     setup_s=setup, peak_rss_mb=usage.ru_maxrss / 1024.0,
                     spawn=start, exit=end, out_dir=out_dir, side=str(side))


def run_pass(runs, seed: int, pass_dir: Path, traced: bool) -> PassResult:
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    env = child_env(traced)
    results = [launch(run, seed, pass_dir, index, traced, env)
               for index, run in enumerate(runs)]
    return PassResult(runs=results,
                      wall_s=results[-1].exit - results[0].spawn,
                      traced=traced)


# --------------------------------------------------------------------------
# correctness gate


def load_reference(seed: int) -> dict:
    if not REFERENCE.exists():
        return {}
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(str(seed), {})


def check_run(result: RunResult, run, reference: dict,
              first_digests: dict) -> None:
    """Fill ``result.digests`` and ``result.problems``."""
    problems = result.problems
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}")
    manifest_path = result.out_dir / "manifest.json"
    if not manifest_path.exists():
        problems.append("no manifest.json")
        return
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["outputs"]:
        path = result.out_dir / entry["path"]
        if not path.is_file():
            problems.append(f"{entry['path']}: listed in manifest, missing")
            continue
        digest = _sha256(path)
        result.digests[entry["path"]] = digest
        if digest != entry["sha256"]:
            problems.append(f"{entry['path']}: digest differs from manifest")
    expected = reference.get(run.label)
    if expected is not None and expected != result.digests:
        problems.append("digests differ from the reference")
    previous = first_digests.setdefault(run.label, result.digests)
    if previous != result.digests:
        problems.append("digests differ between repeats")
    summary_path = result.out_dir / f"{run.experiment}_summary.json"
    if run.bands and not summary_path.exists():
        problems.append(f"no {summary_path.name}")
    elif run.bands:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        failures, misses = run.check(summary)
        problems.extend(failures)
        result.band_misses.extend(misses)


def check_pass(pass_result: PassResult, runs, reference: dict,
               first_digests: dict) -> None:
    for result, run in zip(pass_result.runs, runs):
        check_run(result, run, reference, first_digests)


# --------------------------------------------------------------------------
# traced pass -> per-layer metrics


def _self_times(result: RunResult, trace: dict) -> list:
    """(name, self time) per span; raises if spans do not nest."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    last_child_end = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if not result.spawn <= start <= end <= result.exit:
            raise BenchmarkError(f"{result.label}: span {name} lies outside "
                                 f"its run")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not (p_start <= start and end <= p_end):
                raise BenchmarkError(f"{result.label}: span {name} is not "
                                     f"inside its parent")
            covered[parent] += end - start
        if start < last_child_end.get(parent, float("-inf")):
            raise BenchmarkError(f"{result.label}: span {name} overlaps its "
                                 f"previous sibling")
        last_child_end[parent] = end
    return [(name, end - start - covered[index])
            for index, (name, start, end, _) in enumerate(spans)]


def _csv_rows(result: RunResult) -> int:
    rows = 0
    for name in result.digests:
        if name.endswith(".csv"):
            with (result.out_dir / name).open(newline="",
                                              encoding="utf-8") as handle:
                rows += sum(1 for _ in csv.reader(handle)) - 1
    return rows


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer_metrics(traced: PassResult, untraced_wall: float) -> dict:
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    counters = defaultdict(float)
    spans = []      # [run id, name, start, end, parent] over the pass
    startup = 0.0
    rows = 0
    for run_id, result in enumerate(traced.runs):
        trace_path = Path(f"{result.side}.trace.json")
        if not trace_path.exists():   # killed by a signal; already failed
            continue
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        spans.extend([run_id, *span] for span in trace["spans"])
        for error in trace["hook_errors"]:
            print(f"warning: counter hook failed: {error}")
        for name, value in trace["counters"].items():
            counters[name] += value
        for name, self_time in _self_times(result, trace):
            by_name[name] += self_time
            by_layer[name.split(".", 1)[0]] += self_time
        imports = [s for s in trace["spans"] if s[0] == "cli.import"]
        if imports:
            startup += imports[0][1] - result.spawn
        rows += _csv_rows(result)
    Path(traced.runs[0].side).with_name("spans.json").write_text(
        json.dumps(spans), encoding="utf-8")
    total_self = sum(by_layer.values())
    if total_self > traced.wall_s:
        raise BenchmarkError(f"self times sum to {total_self} s, more than "
                             f"the traced wall time {traced.wall_s} s")

    metrics = {f"{name}_s": by_name[name] for name in SPAN_SELF}
    metrics["cli.main_self_s"] = by_name["cli.main"]
    metrics["cli.run_self_s"] = by_name["cli.run"]
    metrics.update({f"{layer}.self_s": by_layer[layer] for layer in LAYERS})
    c = counters
    chains = c["paths.chains"]
    metrics.update({
        "cli.interpreter_start_s": startup,
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.rows_written": rows,
        "paths.site_updates": c["paths.site_updates"],
        "paths.ns_per_site_update": _ratio(by_name["paths.metropolis_sample"],
                                           c["paths.site_updates"], 1e9),
        "paths.acceptance_rate": _ratio(c["paths.accepted"],
                                        c["paths.measured_proposals"]),
        "paths.measured_proposals": c["paths.measured_proposals"],
        "paths.tau_int": _ratio(c["paths.tau_int_sum"], chains),
        "paths.stride": _ratio(c["paths.stride_sum"], chains),
        "paths.kept_fraction": _ratio(c["paths.kept_samples"],
                                      c["paths.measured_sweeps"]),
        "paths.kept_samples": c["paths.kept_samples"],
        "paths.measured_sweeps": c["paths.measured_sweeps"],
        "paths.kept_bytes": c["paths.kept_bytes"],
        "resonance.em_steps": c["resonance.em_steps"],
        "resonance.ns_per_em_step": _ratio(by_name["resonance.integrate"],
                                           c["resonance.em_steps"], 1e9),
        "sandpile.drops": c["sandpile.drops"],
        "sandpile.relax_rounds": c["sandpile.relax_rounds"],
        "sandpile.topplings": c["sandpile.topplings"],
        "sandpile.us_per_round": _ratio(by_name["sandpile.drive"],
                                        c["sandpile.relax_rounds"], 1e6),
        "sandpile.quiet_drop_fraction": _ratio(c["sandpile.quiet_drops"],
                                               c["sandpile.drops"]),
        "memory.anneal_proposals": c["memory.anneal_proposals"],
        "memory.ns_per_proposal": _ratio(
            by_name["memory.simulated_annealing"],
            c["memory.anneal_proposals"], 1e9),
        "memory.anneal_acceptance": _ratio(c["memory.anneal_accepted"],
                                           c["memory.anneal_proposals"]),
        "networks.skipped_rewires": c["networks.skipped_rewires"],
        "diffusion.walker_steps": c["diffusion.walker_steps"],
        "core.rng_streams": c["core.rng_streams"],
        "trace.spans": len(spans),
        "traced_wall_s": traced.wall_s,
        "trace_overhead_s": traced.wall_s - untraced_wall,
    })
    missing = set(PER_LAYER_UNITS) ^ set(metrics)
    if missing:
        raise BenchmarkError(f"per-layer metric table mismatch: {missing}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# --------------------------------------------------------------------------
# measurement loop and report


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def warm_up() -> None:
    """Fill the bytecode and page caches once; users pay this only once."""
    code, _, _, _ = spawn(WARMUP_CHILD, [], child_env(traced=False),
                          WORK / "warmup.log")
    if code != 0:
        raise BenchmarkError(f"cannot import stochlab.cli (exit {code}); "
                             f"see {WORK / 'warmup.log'}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runs = WORKLOADS[workload]
    reference = load_reference(seed)
    first_digests: dict = {}
    pass_root = WORK / workload
    warm_up()
    passes = []
    start = time.monotonic()
    while True:
        result = run_pass(runs, seed, pass_root / f"pass{len(passes)}", False)
        check_pass(result, runs, reference, first_digests)
        passes.append(result)
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + result.wall_s > seconds:
            break
    traced = None
    if trace:
        traced = run_pass(runs, seed, pass_root / "traced", True)
        check_pass(traced, runs, reference, first_digests)
    return {"passes": passes, "traced": traced,
            "digests": first_digests}


def summarize(passes: list, traced) -> dict:
    timed = {
        "wall_s": [p.wall_s for p in passes],
        "setup_s": [p.setup_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    medians = {name: statistics.median(values)
               for name, values in timed.items()}
    layers = None
    if traced is not None:
        layers = per_layer_metrics(traced, medians["wall_s"])
    return {"timed": timed, "medians": medians, "per_layer": layers}


def report(args, env: dict, measured: dict, summary: dict) -> dict:
    passes, traced = measured["passes"], measured["traced"]
    all_passes = passes + ([traced] if traced is not None else [])
    attempted = sum(len(p.runs) for p in all_passes)
    failed = sum(p.failed for p in all_passes)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for number, p in enumerate(all_passes):
        kind, setup = ((f"pass {number}", f"{p.setup_s:.3f} s")
                       if not p.traced else ("traced", "n/a"))
        print(f"{kind}: wall {p.wall_s:.3f} s, setup {setup}, "
              f"peak {p.peak_rss_mb:.1f} MB, failed {p.failed}/{len(p.runs)}")
        for run in p.runs:
            for problem in run.problems:
                print(f"  FAILED {run.label}: {problem}")
            for miss in run.band_misses:
                print(f"  band miss (reported, not failed) {run.label}: "
                      f"{miss}")
    print(f"digests at seed {args.seed}:")
    for label, digests in measured["digests"].items():
        for name, digest in sorted(digests.items()):
            print(f"  {label}: {name} {digest}")
    print(f"end-to-end over {len(passes)} untraced passes "
          f"(median [q1, q3]):")
    for name, values in summary["timed"].items():
        q1, q3 = quartiles(values)
        print(f"  {name:<12} {summary['medians'][name]:12.4f} "
              f"{END_TO_END_UNITS[name]:<3} [{q1:.4f}, {q3:.4f}]")
    print(f"  {'failed_ratio':<12} {failed / attempted:12.4f} 1   "
          f"({failed} of {attempted} runs)")
    if summary["per_layer"] is not None:
        print("per-layer, from one traced pass:")
        for name, value in summary["per_layer"].items():
            print(f"  {name:<34} {value:16.6f} {PER_LAYER_UNITS[name]}")

    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in summary["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in summary["medians"].items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def save(args, env: dict, measured: dict, summary: dict, result: dict) -> None:
    def runs_of(p):
        return [{"label": r.label, "exit_code": r.exit_code,
                 "wall_s": r.wall_s, "setup_s": r.setup_s,
                 "peak_rss_mb": r.peak_rss_mb, "problems": r.problems,
                 "band_misses": r.band_misses}
                for r in p.runs]

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "passes": [runs_of(p) for p in measured["passes"]],
        "traced_pass": (runs_of(measured["traced"])
                        if measured["traced"] is not None else None),
        "timed": summary["timed"], "medians": summary["medians"],
        "per_layer": summary["per_layer"],
        "digests": measured["digests"],
        "result": result,
    }
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochlab" / "cli.py").is_file():
        print(f"perfbench: no stochlab sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = environment_stamp()
    try:
        measured = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        summary = summarize(measured["passes"], measured["traced"])
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = _loadavg()
    result = report(args, env, measured, summary)
    save(args, env, measured, summary, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
