"""Batch front end: one subcommand per experiment family.

Grammar::

    stochlab <experiment> [--config FILE] [--seed U64] [--out DIR]
             [--replicas K] [--jobs N] [key=value ...]

Every run resolves its configuration (defaults < config-file section <
command-line overrides), validates it, dispatches to the owning module,
and writes three kinds of artifact into the output directory: a CSV table
of result rows, a JSON scalar summary with stable key order, and a
``manifest.json`` echoing the full resolved configuration together with
SHA-256 digests of every emitted data file.  Reruns from a manifest's
echoed configuration reproduce the data files byte for byte — timestamps
live only in the manifest itself.

Exit codes: 0 success, 2 invalid configuration or usage, 3 runtime
failure (e.g. integrator blow-up), with a diagnostic on stderr.

``--replicas K`` fans the experiment out over K independent substreams of
the seed; rows gain a leading ``replica`` column and are merged in replica
order, and the JSON summary becomes a per-replica list.

``--jobs N`` runs the heavy units of ``resonance`` (its (level, replica)
cells), ``paths`` (one contiguous block of chains per worker) and
``memory task=anneal`` (its anneals) on up to N worker processes through
:func:`core.fan_out`; the default is every CPU available to the process.
Each unit draws from its own substream and results merge in unit order, so
the data files are bit-identical for any N.  The count is not a parameter:
the manifest records it beside ``environment``, and :func:`rerun` ignores it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .core import (RngStream, available_cpus, clt_scaling, fan_out,
                   low_high_power_ratio, mc_integrate)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "EXPERIMENTS",
    "validate",
    "run",
    "rerun",
    "main",
]


class ConfigError(ValueError):
    """Raised by :func:`run` when the configuration fails validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully-specified run request.

    ``parameters`` may hold raw strings (from the command line or a config
    file) or typed values (from the API or a manifest echo); resolution
    applies the per-experiment schema either way.  ``seed``, ``replicas``
    and ``jobs`` may be raw strings too: :func:`validate` names a bad one
    and :func:`run` converts them.  ``jobs`` caps the worker processes;
    None means every CPU available to the process.
    """

    experiment: str
    parameters: dict
    seed: int = 0
    output_dir: str = "."
    replicas: int = 1
    jobs: int | None = None


@dataclass(frozen=True)
class RunManifest:
    experiment: str
    parameters: dict
    seed: int
    replicas: int
    output_dir: str
    artifact_version: str
    started: str
    finished: str
    outputs: tuple
    environment: dict
    jobs: int
    path: str


@dataclass(frozen=True)
class _RunOutput:
    header: tuple
    rows: list
    summary: dict
    extra_files: dict


# --------------------------------------------------------------------------
# parameter schema machinery


@dataclass(frozen=True)
class _Param:
    convert: Callable
    default: object
    check: Callable
    constraint: str


def _to_int(value) -> int:
    if isinstance(value, bool):
        raise ValueError("expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError("expected an integer")
    return int(str(value).strip())


def _to_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError("expected a number")
    return float(value)


def _to_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _to_floats(value) -> tuple:
    if isinstance(value, str):
        parts = [part for part in value.split(",") if part.strip()]
        return tuple(float(part) for part in parts)
    return tuple(float(v) for v in value)


def _to_ints(value) -> tuple:
    if isinstance(value, str):
        parts = [part for part in value.split(",") if part.strip()]
        return tuple(_to_int(part) for part in parts)
    return tuple(_to_int(v) for v in value)


def _positive(v) -> bool:
    return math.isfinite(v) and v > 0


def _f(default, check=math.isfinite, constraint="must be a finite number"):
    return _Param(_to_float, default, check, constraint)


def _i(default, check, constraint):
    return _Param(_to_int, default, check, constraint)


def _amplitude(default):
    # Four squared components, summed in superpose, stay finite below this.
    return _f(default, lambda v: abs(v) <= 1e150,
              "must be a number of magnitude at most 1e150")


def _at_least(low, default):
    return _Param(_to_int, default, lambda v: v >= low,
                  f"must be at least {low}")


def _one_of(*names):
    """A name from ``names``; the first is the default."""
    return _Param(str, names[0], lambda v: v in names,
                  f"must be one of: {', '.join(names)}")


@dataclass(frozen=True)
class _Experiment:
    """One registry entry: the runner, its parameter schema, and a check
    over the resolved parameters for combinations the schema cannot see."""

    run: Callable
    schema: dict
    cross_check: Callable = lambda p: []


def _rule(key: str, check: Callable, *args) -> list:
    """``["<key>: <message>"]`` if the library rule ``check(*args)`` raises:
    each rule's text lives once, in the module that enforces it."""
    try:
        check(*args)
    except ValueError as exc:
        return [f"{key}: {exc}"]
    return []


def _cross_decay(p) -> list:
    from .quantum import DecayModel, _check_edges

    return (_rule("rate_lambda", DecayModel, p["rate_lambda"], p["n_atoms"])
            + _rule("t_max", _check_edges, p["t_max"], p["bins"]))


def _cross_grid(p) -> list:
    from .quantum import Grid1D

    return _rule("x_max", Grid1D, p["x_min"], p["x_max"], p["n_points"])


def _cross_uncertainty(p) -> list:
    from .quantum import _check_width

    return _cross_grid(p) + _rule("sigma0", _check_width, p["sigma0"])


def _cross_spectrum(p) -> list:
    from .quantum import _check_levels

    return _cross_grid(p) + _rule("n_levels", _check_levels,
                                  p["n_levels"], p["n_points"])


def _cross_paths(p) -> list:
    from .paths import _check_sweeps

    return _rule("sweeps", _check_sweeps, p["sweeps"], p["thermalization"])


def _cross_diffuse(p) -> list:
    from .diffusion import WalkSpec, _check_cell, _check_pinning, _level_specs

    def specs():
        return _level_specs(WalkSpec(p["dim"], p["a_s"], p["a_t"],
                                     p["n_walkers"], p["n_steps"]),
                            p["refinements"])

    return (_rule("a_t", _check_pinning, p["dim"], p["a_s"], p["a_t"])
            or _rule("a_s", _check_cell, p["dim"], p["a_s"])
            or _rule("refinements", specs))


def _cross_resonance(p) -> list:
    from .resonance import (DoubleWellSpec, _check_kick, _segment_length,
                            _sorted_levels)

    def record():
        spec = DoubleWellSpec(amplitude=p["amplitude"], omega=p["omega"],
                              noise_d=min(p["noise_levels"]), dt=p["dt"],
                              t_total=p["t_total"])
        _segment_length(spec.n_steps + 1, spec.dt, spec.omega)

    return ((_rule("noise_levels", _sorted_levels, p["noise_levels"])
             or _rule("noise_levels", _check_kick, max(p["noise_levels"]),
                      p["dt"]))
            + _rule("t_total", record))


def _cross_memory(p) -> list:
    from .memory import _ENUM_LIMIT, _check_flips

    out = _rule("corrupt_flips", _check_flips, p["corrupt_flips"], p["n"])
    if p["task"] == "anneal" and p["n"] > _ENUM_LIMIT:
        out.append(f"n: anneal task needs n <= {_ENUM_LIMIT} "
                   "(exhaustive oracle bound)")
    return out


def _cross_network(p) -> list:
    from .networks import _check_growth, _check_ring, _sorted_p_values

    return (_rule("k", _check_ring, p["n"], p["k"])
            + _rule("p_values", _sorted_p_values, p["p_values"])
            + _rule("ba_m", _check_growth, p["ba_n"], p["ba_m"]))


# Gamma(dim / 2 + 1) in the ball's exact volume overflows a double beyond this.
_BALL_MAX_DIM = 341


def _cross_mcint(p) -> list:
    if p["integrand"] == "ball" and p["dim"] > _BALL_MAX_DIM:
        return [f"dim: the ball's exact volume needs dim <= {_BALL_MAX_DIM}"]
    return []


def _cross_search(p) -> list:
    from .search import _check_cells, _check_radius

    return (_rule("target_counts", _check_cells, p["sides"],
                  p["target_counts"])
            + _rule("radii", lambda: [_check_radius(r) for r in p["radii"]]))


def _resolve(config: ExperimentConfig) -> tuple:
    """Apply the schema: defaults, conversions, checks.

    Returns (resolved parameter dict, violation list); never raises.
    """
    violations = []
    if config.experiment not in EXPERIMENTS:
        supported = ", ".join(sorted(EXPERIMENTS))
        return {}, [f"experiment: unknown name {config.experiment!r}; "
                    f"supported: {supported}"]
    try:
        seed = _to_int(config.seed)
        if not 0 <= seed < 2**64:
            raise ValueError
    except (ValueError, TypeError):
        violations.append("seed: must be an integer in [0, 2^64)")
    try:
        if _to_int(config.replicas) < 1:
            raise ValueError
    except (ValueError, TypeError):
        violations.append("replicas: must be a positive integer")
    if config.jobs is not None:
        cpus = available_cpus()
        try:
            if not 1 <= _to_int(config.jobs) <= cpus:
                raise ValueError
        except (ValueError, TypeError):
            violations.append(f"jobs: must be an integer in [1, {cpus}] "
                              "(the CPUs available)")

    experiment = EXPERIMENTS[config.experiment]
    schema = experiment.schema
    for key in config.parameters:
        if key not in schema:
            violations.append(
                f"{key}: unknown parameter for {config.experiment!r} "
                f"(known: {', '.join(sorted(schema))})")
    resolved = {}
    for name, param in schema.items():
        if name in config.parameters:
            try:
                value = param.convert(config.parameters[name])
            except (ValueError, TypeError):
                violations.append(f"{name}: could not parse "
                                  f"{config.parameters[name]!r}")
                continue
        else:
            value = param.default
        try:
            ok = bool(param.check(value))
        except Exception:
            ok = False
        if not ok:
            violations.append(f"{name}: {param.constraint}")
            continue
        resolved[name] = value

    if not violations:
        violations.extend(experiment.cross_check(resolved))
    return resolved, violations


def validate(config: ExperimentConfig) -> list:
    """List of violations; empty iff :func:`run` would accept the config."""
    _, violations = _resolve(config)
    return violations


# --------------------------------------------------------------------------
# experiment runners
#
# Each runner (and each cross-check that needs one) imports its experiment
# module itself, so a run loads only the module it uses.


def _run_interfere(p, rng, jobs) -> _RunOutput:
    from .quantum import ComplexAmplitude, superpose

    result = superpose(ComplexAmplitude(re=p["a_re"], im=p["a_im"]),
                       ComplexAmplitude(re=p["b_re"], im=p["b_im"]))
    row = (p["a_re"], p["a_im"], p["b_re"], p["b_im"],
           result.p_quantum, result.p_classical, result.interference)
    summary = {
        "p_quantum": result.p_quantum,
        "p_classical": result.p_classical,
        "interference": result.interference,
        "destructive": result.p_quantum == 0.0,
    }
    return _RunOutput(
        ("a_re", "a_im", "b_re", "b_im",
         "p_quantum", "p_classical", "interference"),
        [row], summary, {})


def _run_decay(p, rng, jobs) -> _RunOutput:
    from .quantum import DecayModel, decay_sample

    model = DecayModel(rate_lambda=p["rate_lambda"], n_atoms=p["n_atoms"])
    result = decay_sample(model, rng, p["t_max"], p["bins"])
    rows = list(zip(result.times.tolist(), result.survival.tolist()))
    summary = {
        "fitted_rate": result.fitted_rate,
        "mean_lifetime": result.mean_lifetime,
        "relative_rate_error":
            abs(result.fitted_rate - p["rate_lambda"]) / p["rate_lambda"],
    }
    return _RunOutput(("time", "survival"), rows, summary, {})


def _run_uncertainty(p, rng, jobs) -> _RunOutput:
    from .quantum import Grid1D, WaveState, uncertainty_product

    grid = Grid1D(p["x_min"], p["x_max"], p["n_points"])
    gen = rng.gen
    rows = []
    products = []
    for index in range(p["n_states"]):
        raw = (gen.standard_normal(p["n_points"])
               + 1j * gen.standard_normal(p["n_points"]))
        result = uncertainty_product(WaveState.from_samples(grid, raw))
        rows.append((index, result.dx, result.dp, result.product))
        products.append(result.product)
    reference = uncertainty_product(
        WaveState.gaussian_packet(grid, sigma0=p["sigma0"]))
    products = np.array(products)
    summary = {
        "min_product": float(products.min()),
        "bound_violations": int((products < 0.5 - 1e-3).sum()),
        "gaussian_product": reference.product,
    }
    return _RunOutput(("state", "dx", "dp", "product"), rows, summary, {})


_POTENTIALS = {
    "harmonic": lambda x: 0.5 * x**2,
    "quartic": lambda x: 0.25 * x**4,
    "box": np.zeros_like,
    "free": None,
}


def _run_spectrum(p, rng, jobs) -> _RunOutput:
    from .quantum import Grid1D, spectrum_gaps

    grid = Grid1D(p["x_min"], p["x_max"], p["n_points"])
    result = spectrum_gaps(_POTENTIALS[p["potential"]], grid, p["n_levels"],
                           commuting_mode=p["commuting"])
    gaps = list(result.gaps) + [float("nan")]
    rows = [(i, e, g) for i, (e, g) in enumerate(zip(result.energies, gaps))]
    summary = {
        "ground_energy": float(result.energies[0]),
        "first_gap": float(result.gaps[0]),
        "gap_mean": float(result.gaps.mean()),
        "gap_std": float(result.gaps.std()),
    }
    return _RunOutput(("level", "energy", "gap_above"), rows, summary, {})


def _paths_block(unit) -> list:
    """Kept paths of each chain in one block: ``unit`` is (p, streams)."""
    from .paths import EuclideanAction, Lattice, metropolis_batch

    p, streams = unit
    dynamics = EuclideanAction(potential=_POTENTIALS[p["potential"]],
                               a_t=p["a_t"])
    lattice = Lattice(n_t=p["n_t"])
    return [chain.paths for chain in metropolis_batch(
        dynamics, lattice, streams, sweeps=p["sweeps"],
        thermalization=p["thermalization"])]


def _run_paths(p, rng, jobs) -> _RunOutput:
    from .paths import hausdorff_scan

    streams = [rng.substream(chain) for chain in range(p["chains"])]
    # One contiguous block per worker; chain c is the same in any batch.
    blocks = min(jobs, len(streams))
    units = [(p, streams[b * len(streams) // blocks:
                         (b + 1) * len(streams) // blocks])
             for b in range(blocks)]
    ensemble = np.vstack([paths for block in fan_out(_paths_block, units, jobs)
                          for paths in block])
    scan = hausdorff_scan(ensemble)
    rows = list(zip(scan.block_sizes.tolist(), scan.resolutions.tolist(),
                    scan.mean_lengths.tolist()))
    summary = {
        "d_h": scan.d_h,
        "length_exponent": scan.alpha,
        "pooled_paths": int(ensemble.shape[0]),
    }
    return _RunOutput(("block_size", "resolution", "mean_length"),
                      rows, summary, {})


def _run_diffuse(p, rng, jobs) -> _RunOutput:
    from .diffusion import WalkSpec, _kernel_peak, convergence_scan

    base = WalkSpec(dim=p["dim"], a_s=p["a_s"], a_t=p["a_t"],
                    n_walkers=p["n_walkers"], n_steps=p["n_steps"])
    levels = convergence_scan(base, p["refinements"], rng)
    rows = [(lv.a_s, lv.a_t, lv.n_steps, lv.sup_error, lv.sampling_limited)
            for lv in levels]
    errors = [lv.sup_error for lv in levels]
    peak = _kernel_peak(base.dim, 1.0, base.duration)
    summary = {
        "final_sup_error": errors[-1],
        "final_error_over_peak": errors[-1] / peak,
        "monotone_decreasing": bool(np.all(np.diff(errors) < 0)),
        "any_sampling_limited": bool(any(lv.sampling_limited
                                         for lv in levels)),
    }
    return _RunOutput(("a_s", "a_t", "n_steps", "sup_error",
                       "sampling_limited"), rows, summary, {})


def _run_sandpile(p, rng, jobs) -> _RunOutput:
    from .sandpile import SandGrid, abelian_check, ccdf_fit, drive

    grid = SandGrid.zeros(p["width"], p["height"])
    if p["warmup"]:
        drive(grid, rng.substream(0), p["warmup"], p["site_policy"])
    record = drive(grid, rng.substream(1), p["n_drops"], p["site_policy"])
    rows = list(zip(range(record.n_drops), record.sizes.tolist(),
                    record.areas.tolist(), record.durations.tolist(),
                    record.dissipated.tolist()))
    fit = ccdf_fit(record.sizes)
    sites = [(int(a), int(b)) for a, b in
             rng.substream(2).gen.integers(0, [p["height"], p["width"]],
                                           size=(10, 2))]
    summary = {
        "mean_height": grid.mean_height,
        "ccdf_slope": fit.exponent,
        "ccdf_stderr": fit.stderr,
        "round_activity_low_high_ratio":
            low_high_power_ratio(record.round_activity),
        "abelian_ok": bool(abelian_check(grid, sites, rng.substream(3),
                                         permutations=3)),
    }
    return _RunOutput(("drop", "size", "area", "duration", "dissipated"),
                      rows, summary, {})


def _run_resonance(p, rng, jobs) -> _RunOutput:
    from .resonance import DoubleWellSpec, resonance_scan

    levels = sorted(p["noise_levels"])
    base = DoubleWellSpec(amplitude=p["amplitude"], omega=p["omega"],
                          noise_d=levels[0], dt=p["dt"],
                          t_total=p["t_total"])
    curve = resonance_scan(base, levels, p["replicas_per_level"], rng, jobs)
    rows = list(zip(curve.noise_levels.tolist(), curve.snr_db.tolist(),
                    curve.snr_stderr.tolist()))
    summary = {
        "peak_d": curve.peak_d,
        "interior_peak": bool(curve.interior_peak),
        "peak_snr_db": float(curve.snr_db.max()),
    }
    return _RunOutput(("noise_d", "snr_db", "snr_stderr"),
                      rows, summary, {})


def _anneal_energy(unit) -> float:
    """Best annealed energy: ``unit`` is (couplings, schedule, stream)."""
    from .memory import simulated_annealing

    couplings, schedule, stream = unit
    return simulated_annealing(couplings, schedule, stream).energy


def _run_memory(p, rng, jobs) -> _RunOutput:
    from .memory import (AnnealSchedule, SpinConfig, flip_spins,
                         ground_state_bruteforce, hebbian_couplings, overlap,
                         sk_couplings, zero_t_dynamics)

    if p["task"] == "retrieve":
        rows = []
        hits = 0
        for trial in range(p["trials"]):
            sub = rng.substream(trial)
            patterns = [SpinConfig.random(p["n"], sub)
                        for _ in range(p["patterns"])]
            couplings = hebbian_couplings(patterns)
            cue = flip_spins(patterns[0], p["corrupt_flips"], sub)
            result = zero_t_dynamics(cue, couplings, sub)
            m = overlap(result.config, patterns[0])
            hits += m >= 0.95
            rows.append((trial, m, result.converged, result.sweeps_used))
        summary = {
            "success_rate": hits / p["trials"],
            "mean_overlap": float(np.mean([r[1] for r in rows])),
        }
        return _RunOutput(("trial", "overlap", "converged", "sweeps"),
                          rows, summary, {})

    schedule = AnnealSchedule(t_initial=p["t_initial"], ratio=p["ratio"],
                              levels=p["levels"],
                              sweeps_per_level=p["sweeps_per_level"])
    couplings = [sk_couplings(p["n"], rng.substream(2 * i))
                 for i in range(p["instances"])]
    grounds = [ground_state_bruteforce(c)[1] for c in couplings]
    annealed = fan_out(_anneal_energy,
                       [(c, schedule, rng.substream(2 * i + 1))
                        for i, c in enumerate(couplings)], jobs)
    rows = []
    matches = 0
    for instance, (energy, ground) in enumerate(zip(annealed, grounds)):
        matched = bool(energy <= ground + 1e-9)
        matches += matched
        rows.append((instance, energy, ground, matched))
    summary = {"match_rate": matches / p["instances"]}
    return _RunOutput(("instance", "annealed_energy", "ground_energy",
                       "matched"), rows, summary, {})


def _run_network(p, rng, jobs) -> _RunOutput:
    from .networks import (barabasi_albert, degree_ccdf_fit, edge_list_text,
                           small_world_scan, watts_strogatz)

    scan = small_world_scan(p["n"], p["k"], p["p_values"], p["seeds"],
                            rng.substream(0))
    rows = [(pt.p, pt.clustering_ratio, pt.path_length_ratio)
            for pt in scan.points]
    fit = degree_ccdf_fit(barabasi_albert(p["ba_n"], p["ba_m"],
                                          rng.substream(1)))
    sample_p = sorted(p["p_values"])[len(p["p_values"]) // 2]
    sample = watts_strogatz(p["n"], p["k"], sample_p, rng.substream(2))
    summary = {
        "has_window": bool(scan.has_window),
        "clustering_base": scan.clustering_base,
        "path_length_base": scan.path_length_base,
        "ba_ccdf_slope": fit.exponent,
        "ba_ccdf_stderr": fit.stderr,
    }
    extras = {"network_sample.edges": edge_list_text(sample)}
    return _RunOutput(("p", "clustering_ratio", "path_length_ratio"),
                      rows, summary, extras)


def _run_search(p, rng, jobs) -> _RunOutput:
    from .search import strategy_tournament

    budget = p["step_budget"] if p["step_budget"] > 0 else None
    table = strategy_tournament(p["sides"], p["target_counts"], p["radii"],
                                p["replicas_per_cell"], rng,
                                step_budget=budget)
    rows = [tuple(row) for row in table]
    wins: dict = {}
    for row in table:
        if row.rank == 1:
            wins[row.strategy] = wins.get(row.strategy, 0) + 1
    summary = {
        "cells": len(table) // 2,
        "wins": wins,
    }
    return _RunOutput(
        ("side", "n_targets", "capture_radius", "strategy", "success_rate",
         "mean_steps", "median_steps", "rank"), rows, summary, {})


def _run_mcint(p, rng, jobs) -> _RunOutput:
    dim = p["dim"]
    if p["integrand"] == "ball":
        f = lambda x: ((x**2).sum(axis=1) <= 1.0).astype(float)  # noqa: E731
        exact = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) / 2**dim
    else:
        f = lambda x: (4.0 * x * (1.0 - x)).prod(axis=1)  # noqa: E731
        exact = (2.0 / 3.0) ** dim
    stats = mc_integrate(rng, f, dim, p["samples"])
    error = stats.mean - exact
    rows = [(stats.n, stats.mean, stats.std_error, exact, error)]
    summary = {
        "estimate": stats.mean,
        "std_error": stats.std_error,
        "exact": exact,
        "z_score": error / stats.std_error if stats.std_error else float("inf"),
    }
    return _RunOutput(("samples", "estimate", "std_error", "exact", "error"),
                      rows, summary, {})


def _run_clt(p, rng, jobs) -> _RunOutput:
    sampler = None
    if p["sampler"] == "uniform":
        sampler = lambda s, size: ((s.gen.random(size) - 0.5)  # noqa: E731
                                   * math.sqrt(12.0))
    scaling = clt_scaling(rng, p["n_values"], p["replicas"], sampler)
    rows = [(pt.n, pt.std_error) for pt in scaling.points]
    summary = {"slope": scaling.slope}
    return _RunOutput(("n", "std_error"), rows, summary, {})


# --------------------------------------------------------------------------
# the experiment registry


EXPERIMENTS: dict[str, _Experiment] = {
    "interfere": _Experiment(_run_interfere, {
        "a_re": _amplitude(1.0), "a_im": _amplitude(0.0),
        "b_re": _amplitude(1.0), "b_im": _amplitude(0.0),
    }),
    "decay": _Experiment(_run_decay, {
        "rate_lambda": _f(1.0, _positive, "must be positive"),
        "n_atoms": _at_least(1, 10_000),
        "t_max": _f(5.0, _positive, "must be positive"),
        "bins": _at_least(2, 50),
    }, cross_check=_cross_decay),
    "uncertainty": _Experiment(_run_uncertainty, {
        "n_states": _at_least(1, 1000),
        "n_points": _at_least(2, 64),
        "x_min": _f(-8.0), "x_max": _f(8.0),
        "sigma0": _f(1.0, _positive, "must be positive (Gaussian width)"),
    }, cross_check=_cross_uncertainty),
    "spectrum": _Experiment(_run_spectrum, {
        "potential": _one_of("harmonic", "quartic", "box"),
        "n_levels": _at_least(2, 6),
        "n_points": _at_least(2, 400),
        "x_min": _f(-8.0), "x_max": _f(8.0),
        "commuting": _Param(_to_bool, False, lambda v: True, ""),
    }, cross_check=_cross_spectrum),
    "paths": _Experiment(_run_paths, {
        "potential": _one_of("free", "harmonic"),
        # hausdorff_scan gets its 3 distinct resolution points only once
        # n_t // 8 >= 9.
        "n_t": _at_least(72, 256),
        "a_t": _f(0.05, _positive, "must be positive"),
        "sweeps": _at_least(2, 10_000),
        "thermalization": _i(1000, lambda v: v >= 0, "must be nonnegative"),
        "chains": _at_least(1, 16),
    }, cross_check=_cross_paths),
    "diffuse": _Experiment(_run_diffuse, {
        "dim": _i(1, lambda v: 1 <= v <= 3, "must be 1, 2, or 3"),
        "a_s": _f(0.5, _positive, "must be positive"),
        "a_t": _f(0.125, _positive, "must be positive"),
        "n_walkers": _at_least(1, 1_000_000),
        "n_steps": _at_least(1, 8),
        "refinements": _at_least(2, 2),
    }, cross_check=_cross_diffuse),
    "sandpile": _Experiment(_run_sandpile, {
        "width": _at_least(1, 16),
        "height": _at_least(1, 16),
        "warmup": _i(4000, lambda v: v >= 0, "must be nonnegative"),
        "n_drops": _at_least(1, 20_000),
        "site_policy": _one_of("uniform-random", "center"),
    }),
    "resonance": _Experiment(_run_resonance, {
        "amplitude": _f(0.3),
        "omega": _f(0.1, _positive, "must be positive"),
        "dt": _f(0.01, _positive, "must be positive"),
        "t_total": _f(100.0 * 2.0 * math.pi / 0.1, _positive,
                      "must be positive"),
        "noise_levels": _Param(
            _to_floats, (0.02, 0.05, 0.1, 0.2, 0.4, 0.8),
            lambda v: len(v) >= 5 and all(x > 0 for x in v),
            "needs at least 5 positive comma-separated values"),
        "replicas_per_level": _at_least(4, 4),
    }, cross_check=_cross_resonance),
    "memory": _Experiment(_run_memory, {
        "task": _one_of("retrieve", "anneal"),
        "n": _at_least(2, 50),
        "patterns": _at_least(1, 2),
        "corrupt_flips": _i(5, lambda v: v >= 0, "must be nonnegative"),
        "trials": _at_least(1, 200),
        "instances": _at_least(1, 20),
        "t_initial": _f(2.0, _positive, "must be positive"),
        "ratio": _f(0.95, lambda v: 0.0 < v < 1.0,
                    "must lie strictly between 0 and 1"),
        "levels": _at_least(1, 120),
        "sweeps_per_level": _at_least(1, 50),
    }, cross_check=_cross_memory),
    "network": _Experiment(_run_network, {
        "n": _at_least(3, 300),
        "k": _i(8, lambda v: v >= 2 and v % 2 == 0,
                "must be an even count >= 2"),
        "p_values": _Param(
            _to_floats, (0.0, 0.02, 0.1, 0.5),
            lambda v: len(v) >= 1 and all(0.0 <= x <= 1.0 for x in v),
            "entries must lie in [0, 1]"),
        "seeds": _at_least(10, 10),
        "ba_n": _at_least(2, 10_000),
        "ba_m": _at_least(1, 2),
    }, cross_check=_cross_network),
    "search": _Experiment(_run_search, {
        "sides": _Param(_to_ints, (8, 16),
                        lambda v: len(v) >= 1 and all(s >= 1 for s in v),
                        "needs at least one side >= 1"),
        "target_counts": _Param(_to_ints, (1, 4),
                                lambda v: len(v) >= 1
                                and all(c >= 1 for c in v),
                                "needs at least one count >= 1"),
        "radii": _Param(_to_floats, (0.0, 1.0),
                        lambda v: len(v) >= 1 and all(r >= 0 for r in v),
                        "entries must be nonnegative"),
        "replicas_per_cell": _at_least(100, 100),
        "step_budget": _i(0, lambda v: v >= 0,
                          "must be nonnegative (0 = 10 * side^2)"),
    }, cross_check=_cross_search),
    "mcint": _Experiment(_run_mcint, {
        "integrand": _one_of("ball", "polyprod"),
        "dim": _at_least(1, 2),
        "samples": _at_least(2, 100_000),
    }, cross_check=_cross_mcint),
    "clt": _Experiment(_run_clt, {
        "n_values": _Param(_to_ints, (4, 8, 16, 32, 64, 128, 256, 512, 1024),
                           lambda v: len(set(v)) >= 2
                           and all(n >= 2 for n in v),
                           "needs at least two distinct entries, each >= 2"),
        "replicas": _at_least(2, 300),
        "sampler": _one_of("normal", "uniform"),
    }),
}


# --------------------------------------------------------------------------
# emission


def _cell(value) -> str:
    value = _jsonable(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2)
                    + "\n", encoding="utf-8")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: ExperimentConfig) -> RunManifest:
    """Validate, execute, and persist one experiment run."""
    params, violations = _resolve(config)
    if violations:
        raise ConfigError("; ".join(violations))
    started = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    runner = EXPERIMENTS[config.experiment].run
    seed = _to_int(config.seed)
    replicas = _to_int(config.replicas)
    jobs = available_cpus() if config.jobs is None else _to_int(config.jobs)
    base = RngStream(seed, 0)
    header: tuple = ()
    merged_rows: list = []
    summaries: list = []
    extras: dict = {}
    for replica in range(replicas):
        result = runner(params, base.substream(replica), jobs)
        header = result.header
        merged_rows.extend((replica, *row) for row in result.rows)
        summaries.append(result.summary)
        for name, text in result.extra_files.items():
            key = name if replicas == 1 else f"replica{replica}_{name}"
            extras[key] = text

    csv_path = out_dir / f"{config.experiment}.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("replica", *header))
        for row in merged_rows:
            writer.writerow([_cell(v) for v in row])

    summary_payload = (summaries[0] if replicas == 1
                       else {"replicas": replicas, "per_replica": summaries})
    summary_path = out_dir / f"{config.experiment}_summary.json"
    _write_json(summary_path, summary_payload)

    extra_paths = []
    for name, text in extras.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        extra_paths.append(path)

    outputs = tuple(
        {"path": path.name, "sha256": _digest(path),
         "bytes": path.stat().st_size}
        for path in [csv_path, summary_path, *extra_paths]
    )
    finished = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    # numpy does not promise the same Generator streams across versions, so
    # a digest mismatch between runs is diagnosed from this stamp.  Only the
    # top-level scipy package is imported for it; no submodule is loaded.
    environment = {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    manifest_path = out_dir / "manifest.json"
    manifest = RunManifest(
        experiment=config.experiment,
        parameters=_jsonable(params),
        seed=seed,
        replicas=replicas,
        output_dir=str(out_dir),
        artifact_version=__version__,
        started=started,
        finished=finished,
        outputs=outputs,
        environment=environment,
        jobs=jobs,
        path=str(manifest_path),
    )
    payload = asdict(manifest)
    del payload["path"]
    _write_json(manifest_path, payload)
    return manifest


def rerun(manifest_path, output_dir=None) -> RunManifest:
    """Re-execute a run from its manifest's echoed configuration.

    Data files (CSV, JSON summary, extras) come out byte-identical; only
    the new manifest's timestamps differ.  The echoed ``jobs`` is ignored:
    the rerun uses the default worker count.
    """
    payload = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    config = ExperimentConfig(
        experiment=payload["experiment"],
        parameters=payload["parameters"],
        seed=payload["seed"],
        output_dir=str(output_dir) if output_dir is not None
        else payload["output_dir"],
        replicas=payload["replicas"],
    )
    return run(config)


# --------------------------------------------------------------------------
# command line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochlab",
        description="Seeded stochastic-dynamics experiments with "
                    "manifest-backed reproducibility.",
    )
    parser.add_argument("experiment", help="experiment name (see docs)")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="parameter overrides")
    parser.add_argument("--config", help="INI file with a section per "
                                         "experiment")
    parser.add_argument("--seed", default=0,
                        help="64-bit master seed (default 0)")
    parser.add_argument("--out", default=None,
                        help="output directory (default "
                             "stochlab_runs/<experiment>)")
    parser.add_argument("--replicas", default=1,
                        help="independent replicas fanned over substreams")
    parser.add_argument("--jobs", default=None,
                        help="worker processes for the heavy units (default: "
                             "every available CPU); outputs are identical "
                             "for any value")
    args, extra = parser.parse_known_args(argv)
    overrides = list(args.overrides) + list(extra)

    raw: dict = {}
    if args.config:
        import configparser

        ini = configparser.ConfigParser()
        read = ini.read(args.config)
        if not read:
            print(f"invalid config: could not read {args.config!r}",
                  file=sys.stderr)
            return 2
        if ini.has_section(args.experiment):
            raw.update(dict(ini.items(args.experiment)))
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or not key or key.startswith("-"):
            print(f"invalid config: override {item!r} is not key=value",
                  file=sys.stderr)
            return 2
        raw[key] = value

    out_dir = args.out or str(Path("stochlab_runs") / args.experiment)
    config = ExperimentConfig(experiment=args.experiment, parameters=raw,
                              seed=args.seed, output_dir=out_dir,
                              replicas=args.replicas, jobs=args.jobs)
    violations = validate(config)
    if violations:
        for violation in violations:
            print(f"invalid config: {violation}", file=sys.stderr)
        return 2
    try:
        manifest = run(config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric/runtime failures map to exit 3
        print(f"runtime failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    print(manifest.path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
