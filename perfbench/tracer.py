"""In-process tracer for one traced ``stochlab`` CLI run.

A traced child interpreter runs::

    import tracer
    with tracer.span("cli.import"):
        from stochlab.cli import main
    sys.exit(tracer.traced_main(sys.argv[1:]))

``install`` (called by ``traced_main``) wraps every public function of the
ten ``stochlab`` modules, and every public method of their public classes,
in a span recorder.  The wrapper replaces the original object under every
name any ``stochlab`` module binds it to, so ``cli``'s imported names and
intra-module calls such as ``resonance_scan -> integrate`` are both caught.
Spans are kept in memory as ``(name, start, end, parent)`` on the
``time.monotonic`` clock (system-wide on Linux, so ``run.py`` can compare
them with its own spawn and exit times) and written as JSON when the run
ends.  Counters are read off the objects the wrapped calls return.

The program is single-threaded; spans from several threads would break
the parent stack, which the nesting check in ``run.py`` then reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("core", "quantum", "paths", "diffusion", "sandpile", "resonance",
           "memory", "networks", "search", "cli")

_spans: list = []       # (name, start, end, parent index or -1)
_stack: list = []
_counters: defaultdict = defaultdict(float)
_hook_errors: list = []


@contextlib.contextmanager
def span(name: str):
    parent = _stack[-1] if _stack else -1
    index = len(_spans)
    _spans.append(None)
    _stack.append(index)
    start = time.monotonic()
    try:
        yield
    finally:
        end = time.monotonic()
        _stack.pop()
        _spans[index] = (name, start, end, parent)


# --------------------------------------------------------------------------
# counters read off returned objects


def _root_nbytes(arrays) -> int:
    """Bytes of the distinct buffers a set of arrays keeps alive."""
    roots = {}
    for array in arrays:
        while getattr(array, "base", None) is not None:
            array = array.base
        roots[id(array)] = array.nbytes
    return sum(roots.values())


def _count_metropolis(args, ensemble, c) -> None:
    interior = ensemble.lattice.n_t - 2
    measured = args["sweeps"] - args["thermalization"]
    c["paths.chains"] += 1
    c["paths.site_updates"] += args["sweeps"] * interior
    c["paths.measured_sweeps"] += measured
    c["paths.measured_proposals"] += measured * interior
    c["paths.accepted"] += ensemble.acceptance_rate * measured * interior
    c["paths.kept_samples"] += ensemble.paths.shape[0]
    c["paths.tau_int_sum"] += ensemble.tau_int
    c["paths.stride_sum"] += ensemble.stride
    c["paths.kept_bytes"] += _root_nbytes(
        (ensemble.paths, ensemble.sample_actions, ensemble.action_trace))


def _count_integrate(args, trajectory, c) -> None:
    c["resonance.em_steps"] += ((trajectory.positions.size - 1)
                                * args["sample_stride"])


def _count_drive(args, record, c) -> None:
    c["sandpile.drops"] += record.n_drops
    c["sandpile.relax_rounds"] += int(record.durations.sum())
    c["sandpile.topplings"] += int(record.sizes.sum())
    c["sandpile.quiet_drops"] += int((record.sizes == 0).sum())


def _count_anneal(args, result, c) -> None:
    per_level = args["schedule"].sweeps_per_level * args["couplings"].n
    c["memory.anneal_proposals"] += per_level * result.acceptance_trace.size
    c["memory.anneal_accepted"] += per_level * float(
        result.acceptance_trace.sum())


def _count_graph(args, graph, c) -> None:
    c["networks.skipped_rewires"] += graph.skipped_rewires


def _count_walk(args, field, c) -> None:
    spec = args["spec"]
    c["diffusion.walker_steps"] += spec.n_walkers * spec.n_steps


def _count_cli_run(args, manifest, c) -> None:
    c["cli.bytes_written"] += (sum(out["bytes"] for out in manifest.outputs)
                               + os.path.getsize(manifest.path))


HOOKS = {
    "paths.metropolis_sample": _count_metropolis,
    "resonance.integrate": _count_integrate,
    "sandpile.drive": _count_drive,
    "memory.simulated_annealing": _count_anneal,
    "networks.watts_strogatz": _count_graph,
    "networks.barabasi_albert": _count_graph,
    "diffusion.simulate_walk": _count_walk,
    "cli.run": _count_cli_run,
}


# --------------------------------------------------------------------------
# wrapping


def _wrap(name: str, fn):
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, _counters)
            except (AttributeError, KeyError, TypeError) as exc:
                _hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return result

    return wrapper


def _count_streams(post_init):
    @functools.wraps(post_init)
    def wrapper(self):
        _counters["core.rng_streams"] += 1
        post_init(self)
    return wrapper


def _wrap_class(layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(_wrap(name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, _wrap(name, value))


def install() -> None:
    """Wrap the public surface of every ``stochlab`` module in place."""
    modules = {layer: importlib.import_module(f"stochlab.{layer}")
               for layer in MODULES}
    replacements = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__",
                                               None) != module.__name__:
                continue
            if inspect.isfunction(value):
                replacements[value] = _wrap(f"{layer}.{attr}", value)
            elif inspect.isclass(value):
                _wrap_class(layer, value)
    for module in (importlib.import_module("stochlab"), *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])
    stream = modules["core"].RngStream
    stream.__post_init__ = _count_streams(stream.__post_init__)


def traced_main(argv) -> int:
    """Install the wrappers, run ``cli.main`` and write the trace file."""
    install()
    cli = sys.modules["stochlab.cli"]
    try:
        return cli.main(argv)
    finally:
        with open(os.environ["PERFBENCH_TRACE"], "w", encoding="utf-8") as f:
            json.dump({"spans": _spans, "counters": dict(_counters),
                       "hook_errors": _hook_errors}, f)
