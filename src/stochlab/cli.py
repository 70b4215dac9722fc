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

Every data file's text is built in memory before the output directory is
made, so a run that fails, in its computation or while encoding its
outputs, creates no directory and leaves an earlier run's files untouched.
Each file is then written once as UTF-8 bytes, with no newline
translation, and its manifest entry is digested from those same bytes.

Exit codes: 0 success, 2 invalid configuration or usage, 3 runtime
failure (e.g. integrator blow-up), with a diagnostic on stderr.  Each
replica's runner runs under ``np.errstate(all="raise", under="ignore")``,
so a numpy overflow, invalid operation or division by zero is a runtime
failure, named with the experiment, and underflow to zero is not.

``--replicas K`` fans the experiment out over K independent substreams of
the seed; rows gain a leading ``replica`` column and are merged in replica
order, and the JSON summary becomes a per-replica list.

``--jobs N`` runs the heavy units of ``resonance`` (its (level, replica)
cells), ``paths`` (one contiguous block of chains per worker) and
``memory task=anneal`` (its anneals) on up to N worker processes through
:func:`core.fan_out`; the default is every CPU available to the process.
The workers are forked and inherit the run's state, error state included,
so each runner hands ``fan_out`` a closure over inputs it builds before
the call; they take units from a pipe as they free up and send back only
pickled results or exceptions.  Where ``os.fork`` does not exist the units
run in this process.  Each unit draws from its own substream and results
merge in unit order, so the data files are bit-identical for any N.  The
count is not a parameter: the manifest records it beside ``environment``,
and :func:`rerun` ignores it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .core import (CltPoint, RngStream, available_cpus, clt_scaling, fan_out,
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
    applies the per-experiment schema either way, defaults included, so a
    list key resolves to a list whatever its source.  ``seed``, ``replicas``
    and ``jobs`` may be raw strings too: resolution converts them once and
    :func:`validate` names a bad one.  ``jobs`` caps the worker processes;
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

    @property
    def path(self) -> str:
        """Where ``manifest.json`` is written: inside ``output_dir``."""
        return str(Path(self.output_dir) / "manifest.json")


@dataclass(frozen=True)
class _RunOutput:
    """One replica's results.  ``columns`` maps each CSV column name to its
    values in row order; :func:`run` writes the names as the header.
    ``extra_files`` maps a file name to its text."""

    columns: dict
    summary: dict
    extra_files: dict = field(default_factory=dict)


def _named_columns(rows, row_type) -> dict:
    """Columns named by the fields of ``row_type``, a NamedTuple of ``rows``."""
    return {name: [getattr(row, name) for row in rows]
            for name in row_type._fields}


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
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError("expected an integer")
    number = value if isinstance(value, int) else int(str(value).strip())
    # The cross-checks compute in doubles: past their range, OverflowError.
    float(number)
    return number


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


def _list_of(convert) -> Callable:
    """A converter of comma-separated text or a sequence into a list, each
    element through the scalar key's ``convert``."""
    def to_list(value) -> list:
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        return [convert(v) for v in value]
    return to_list


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
    from .paths import EuclideanAction, _check_sweeps

    return (_rule("a_t", EuclideanAction, None, p["a_t"])
            + _rule("sweeps", _check_sweeps, p["sweeps"], p["thermalization"]))


def _cross_diffuse(p) -> list:
    from .diffusion import _check_cell, _level_specs, _time_step

    return (_rule("a_s", _time_step, p["dim"], p["a_s"])
            or _rule("a_s", _check_cell, p["dim"], p["a_s"])
            or _rule("refinements", _level_specs, p["dim"], p["a_s"],
                     p["n_walkers"], p["n_steps"], p["refinements"]))


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

    if p["task"] == "retrieve":
        return _rule("corrupt_flips", _check_flips, p["corrupt_flips"], p["n"])
    if p["n"] > _ENUM_LIMIT:
        return [f"n: anneal task needs n <= {_ENUM_LIMIT} "
                "(exhaustive oracle bound)"]
    return []


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

    Returns (resolved parameter dict, dict of the resolved ``seed``,
    ``replicas`` and ``jobs``, violation list); never raises.
    """
    violations = []
    if config.experiment not in EXPERIMENTS:
        supported = ", ".join(sorted(EXPERIMENTS))
        return {}, {}, [f"experiment: unknown name {config.experiment!r}; "
                        f"supported: {supported}"]
    cpus = available_cpus()
    settings = {}
    for name, value, low, high, constraint in (
            ("seed", config.seed, 0, 2**64 - 1,
             "must be an integer in [0, 2^64)"),
            ("replicas", config.replicas, 1, math.inf,
             "must be a positive integer"),
            ("jobs", cpus if config.jobs is None else config.jobs, 1, cpus,
             f"must be an integer in [1, {cpus}] (the CPUs available)")):
        try:
            settings[name] = _to_int(value)
            ok = low <= settings[name] <= high
        except (ValueError, TypeError, OverflowError):
            ok = False
        if not ok:
            violations.append(f"{name}: {constraint}")

    experiment = EXPERIMENTS[config.experiment]
    schema = experiment.schema
    for key in config.parameters:
        if key not in schema:
            violations.append(
                f"{key}: unknown parameter for {config.experiment!r} "
                f"(known: {', '.join(sorted(schema))})")
    resolved = {}
    for name, param in schema.items():
        raw = config.parameters.get(name, param.default)
        try:
            value = param.convert(raw)
        except (ValueError, TypeError, OverflowError):
            violations.append(f"{name}: could not parse {raw!r}")
            continue
        if not param.check(value):
            violations.append(f"{name}: {param.constraint}")
            continue
        resolved[name] = value

    if not violations:
        violations.extend(experiment.cross_check(resolved))
    return resolved, settings, violations


def validate(config: ExperimentConfig) -> list:
    """List of violations; empty iff :func:`run` would accept the config."""
    return _resolve(config)[2]


# --------------------------------------------------------------------------
# experiment runners
#
# Each runner (and each cross-check that needs one) imports its experiment
# module itself, so a run loads only the module it uses.


def _run_interfere(p, rng, jobs) -> _RunOutput:
    from .quantum import ComplexAmplitude, superpose

    result = superpose(ComplexAmplitude(re=p["a_re"], im=p["a_im"]),
                       ComplexAmplitude(re=p["b_re"], im=p["b_im"]))
    columns = {"a_re": [p["a_re"]], "a_im": [p["a_im"]],
               "b_re": [p["b_re"]], "b_im": [p["b_im"]],
               "p_quantum": [result.p_quantum],
               "p_classical": [result.p_classical],
               "interference": [result.interference]}
    summary = {
        "p_quantum": result.p_quantum,
        "p_classical": result.p_classical,
        "interference": result.interference,
        "destructive": result.p_quantum == 0.0,
    }
    return _RunOutput(columns, summary)


def _run_decay(p, rng, jobs) -> _RunOutput:
    from .quantum import DecayModel, decay_sample

    model = DecayModel(rate_lambda=p["rate_lambda"], n_atoms=p["n_atoms"])
    result = decay_sample(model, rng, p["t_max"], p["bins"])
    columns = {"time": result.times.tolist(),
               "survival": result.survival.tolist()}
    summary = {
        "fitted_rate": result.fitted_rate,
        "mean_lifetime": result.mean_lifetime,
        "relative_rate_error":
            abs(result.fitted_rate - p["rate_lambda"]) / p["rate_lambda"],
    }
    return _RunOutput(columns, summary)


def _run_uncertainty(p, rng, jobs) -> _RunOutput:
    from .quantum import Grid1D, WaveState, uncertainty_product

    grid = Grid1D(p["x_min"], p["x_max"], p["n_points"])
    gen = rng.gen
    results = []
    for _ in range(p["n_states"]):
        raw = (gen.standard_normal(p["n_points"])
               + 1j * gen.standard_normal(p["n_points"]))
        results.append(uncertainty_product(WaveState.from_samples(grid, raw)))
    columns = {"state": list(range(p["n_states"])),
               "dx": [r.dx for r in results], "dp": [r.dp for r in results],
               "product": [r.product for r in results]}
    reference = uncertainty_product(
        WaveState.gaussian_packet(grid, sigma0=p["sigma0"]))
    products = np.array(columns["product"])
    summary = {
        "min_product": float(products.min()),
        "bound_violations": int((products < 0.5 - 1e-3).sum()),
        "gaussian_product": reference.product,
    }
    return _RunOutput(columns, summary)


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
    columns = {"level": list(range(len(result.energies))),
               "energy": list(result.energies),
               "gap_above": list(result.gaps) + [float("nan")]}
    summary = {
        "ground_energy": float(result.energies[0]),
        "first_gap": float(result.gaps[0]),
        "gap_mean": float(result.gaps.mean()),
        "gap_std": float(result.gaps.std()),
    }
    return _RunOutput(columns, summary)


def _run_paths(p, rng, jobs) -> _RunOutput:
    from .paths import (EuclideanAction, Lattice, hausdorff_scan,
                        metropolis_batch)

    dynamics = EuclideanAction(_POTENTIALS[p["potential"]], p["a_t"])
    lattice = Lattice(p["n_t"])
    streams = [rng.substream(chain) for chain in range(p["chains"])]
    # One contiguous block per worker; chain c is the same in any batch.
    blocks = min(jobs, len(streams))
    units = [streams[b * len(streams) // blocks:
                     (b + 1) * len(streams) // blocks] for b in range(blocks)]

    def kept_paths(block):
        return [chain.paths for chain in metropolis_batch(
            dynamics, lattice, block, p["sweeps"], p["thermalization"])]

    ensemble = np.vstack([paths for block in fan_out(kept_paths, units, jobs)
                          for paths in block])
    scan = hausdorff_scan(ensemble)
    columns = {"block_size": scan.block_sizes.tolist(),
               "resolution": scan.resolutions.tolist(),
               "mean_length": scan.mean_lengths.tolist()}
    summary = {
        "d_h": scan.d_h,
        "length_exponent": scan.alpha,
        "pooled_paths": int(ensemble.shape[0]),
    }
    return _RunOutput(columns, summary)


def _run_diffuse(p, rng, jobs) -> _RunOutput:
    from .diffusion import ConvergenceLevel, _kernel_peak, convergence_scan

    levels = convergence_scan(p["dim"], p["a_s"], p["n_walkers"],
                              p["n_steps"], p["refinements"], rng)
    columns = _named_columns(levels, ConvergenceLevel)
    errors = columns["sup_error"]
    peak = _kernel_peak(p["dim"], 1.0, levels[0].n_steps * levels[0].a_t)
    summary = {
        "final_sup_error": errors[-1],
        "final_error_over_peak": errors[-1] / peak,
        "monotone_decreasing": bool(np.all(np.diff(errors) < 0)),
        "any_sampling_limited": bool(any(columns["sampling_limited"])),
    }
    return _RunOutput(columns, summary)


def _run_sandpile(p, rng, jobs) -> _RunOutput:
    from .sandpile import SandGrid, abelian_check, ccdf_fit, drive

    grid = SandGrid.zeros(p["width"], p["height"])
    if p["warmup"]:
        drive(grid, rng.substream(0), p["warmup"], p["site_policy"])
    record = drive(grid, rng.substream(1), p["n_drops"], p["site_policy"])
    columns = {"drop": list(range(record.n_drops)),
               "size": record.sizes.tolist(), "area": record.areas.tolist(),
               "duration": record.durations.tolist(),
               "dissipated": record.dissipated.tolist()}
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
    return _RunOutput(columns, summary)


def _run_resonance(p, rng, jobs) -> _RunOutput:
    from .resonance import DoubleWellSpec, resonance_scan

    base = DoubleWellSpec(amplitude=p["amplitude"], omega=p["omega"],
                          noise_d=min(p["noise_levels"]), dt=p["dt"],
                          t_total=p["t_total"])
    curve = resonance_scan(base, p["noise_levels"], p["replicas_per_level"],
                           rng, jobs)
    columns = {"noise_d": curve.noise_levels.tolist(),
               "snr_db": curve.snr_db.tolist(),
               "snr_stderr": curve.snr_stderr.tolist()}
    summary = {
        "peak_d": curve.peak_d,
        "interior_peak": bool(curve.interior_peak),
        "peak_snr_db": float(curve.snr_db.max()),
    }
    return _RunOutput(columns, summary)


def _run_memory(p, rng, jobs) -> _RunOutput:
    from .memory import (AnnealSchedule, SpinConfig, flip_spins,
                         ground_state_bruteforce, hebbian_couplings, overlap,
                         simulated_annealing, sk_couplings, zero_t_dynamics)

    if p["task"] == "retrieve":
        columns = {"trial": [], "overlap": [], "converged": [], "sweeps": []}
        for trial in range(p["trials"]):
            sub = rng.substream(trial)
            patterns = [SpinConfig.random(p["n"], sub)
                        for _ in range(p["patterns"])]
            couplings = hebbian_couplings(patterns)
            cue = flip_spins(patterns[0], p["corrupt_flips"], sub)
            result = zero_t_dynamics(cue, couplings, sub)
            columns["trial"].append(trial)
            columns["overlap"].append(overlap(result.config, patterns[0]))
            columns["converged"].append(result.converged)
            columns["sweeps"].append(result.sweeps_used)
        overlaps = columns["overlap"]
        summary = {
            "success_rate": sum(m >= 0.95 for m in overlaps) / p["trials"],
            "mean_overlap": float(np.mean(overlaps)),
        }
        return _RunOutput(columns, summary)

    schedule = AnnealSchedule(t_initial=p["t_initial"], ratio=p["ratio"],
                              levels=p["levels"],
                              sweeps_per_level=p["sweeps_per_level"])
    couplings = [sk_couplings(p["n"], rng.substream(2 * i))
                 for i in range(p["instances"])]
    grounds = [ground_state_bruteforce(c)[1] for c in couplings]
    streams = [rng.substream(2 * i + 1) for i in range(p["instances"])]
    annealed = fan_out(lambda i: simulated_annealing(
        couplings[i], schedule, streams[i]).energy, range(p["instances"]), jobs)
    matched = [bool(energy <= ground + 1e-9)
               for energy, ground in zip(annealed, grounds, strict=True)]
    columns = {"instance": list(range(p["instances"])),
               "annealed_energy": annealed, "ground_energy": grounds,
               "matched": matched}
    summary = {"match_rate": sum(matched) / p["instances"]}
    return _RunOutput(columns, summary)


def _run_network(p, rng, jobs) -> _RunOutput:
    from .networks import (SmallWorldPoint, barabasi_albert, degree_ccdf_fit,
                           edge_list_text, small_world_scan, watts_strogatz)

    scan = small_world_scan(p["n"], p["k"], p["p_values"], p["seeds"],
                            rng.substream(0))
    columns = _named_columns(scan.points, SmallWorldPoint)
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
    return _RunOutput(columns, summary, extras)


def _run_search(p, rng, jobs) -> _RunOutput:
    from .search import TournamentRow, strategy_tournament

    budget = p["step_budget"] if p["step_budget"] > 0 else None
    table = strategy_tournament(p["sides"], p["target_counts"], p["radii"],
                                p["replicas_per_cell"], rng,
                                step_budget=budget)
    wins: dict = {}
    for row in table:
        if row.rank == 1:
            wins[row.strategy] = wins.get(row.strategy, 0) + 1
    summary = {
        "cells": len(table) // 2,
        "wins": wins,
    }
    return _RunOutput(_named_columns(table, TournamentRow), summary)


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
    columns = {"samples": [stats.n], "estimate": [stats.mean],
               "std_error": [stats.std_error], "exact": [exact],
               "error": [error]}
    summary = {
        "estimate": stats.mean,
        "std_error": stats.std_error,
        "exact": exact,
        "z_score": error / stats.std_error if stats.std_error else float("inf"),
    }
    return _RunOutput(columns, summary)


def _run_clt(p, rng, jobs) -> _RunOutput:
    sampler = None
    if p["sampler"] == "uniform":
        sampler = lambda s, size: ((s.gen.random(size) - 0.5)  # noqa: E731
                                   * math.sqrt(12.0))
    scaling = clt_scaling(rng, p["n_values"], p["replicas"], sampler)
    summary = {"slope": scaling.slope}
    return _RunOutput(_named_columns(scaling.points, CltPoint), summary)


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
        # paths.SCAN_MIN_N_T, the shortest path hausdorff_scan accepts;
        # paths is not imported at start-up, so a test keeps the two equal.
        "n_t": _at_least(72, 256),
        "a_t": _f(0.05, _positive, "must be positive"),
        "sweeps": _at_least(2, 10_000),
        "thermalization": _i(1000, lambda v: v >= 0, "must be nonnegative"),
        "chains": _at_least(1, 16),
    }, cross_check=_cross_paths),
    "diffuse": _Experiment(_run_diffuse, {
        "dim": _i(1, lambda v: 1 <= v <= 3, "must be 1, 2, or 3"),
        "a_s": _f(0.5, _positive, "must be positive"),
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
            _list_of(_to_float), (0.02, 0.05, 0.1, 0.2, 0.4, 0.8),
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
            _list_of(_to_float), (0.0, 0.02, 0.1, 0.5),
            lambda v: len(v) >= 1 and all(0.0 <= x <= 1.0 for x in v),
            "entries must lie in [0, 1]"),
        "seeds": _at_least(10, 10),
        "ba_n": _at_least(2, 10_000),
        "ba_m": _at_least(1, 2),
    }, cross_check=_cross_network),
    "search": _Experiment(_run_search, {
        "sides": _Param(_list_of(_to_int), (8, 16),
                        lambda v: len(v) >= 1 and all(s >= 1 for s in v),
                        "needs at least one side >= 1"),
        "target_counts": _Param(_list_of(_to_int), (1, 4),
                                lambda v: len(v) >= 1
                                and all(c >= 1 for c in v),
                                "needs at least one count >= 1"),
        "radii": _Param(_list_of(_to_float), (0.0, 1.0),
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
        "n_values": _Param(_list_of(_to_int),
                           (4, 8, 16, 32, 64, 128, 256, 512, 1024),
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
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _column(values):
    """A column's CSV cells.  ``csv`` writes an exact ``int`` as ``str`` and
    an exact ``float`` as ``repr``, the text :func:`_cell` gives, so a
    column of those alone goes through as it is; any other column (bools,
    numpy scalars, ``None``) is mapped through :func:`_cell`."""
    if all(type(value) in (int, float) for value in values):
        return values
    return list(map(_cell, values))


def _numpy_scalar(value):
    """``json``'s ``default`` hook: a numpy scalar becomes its Python value;
    the encoder itself handles every other value a payload holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=_numpy_scalar) + "\n"


def _write(path: Path, text: str) -> dict:
    """Write ``text`` to ``path`` as UTF-8, with no newline translation, and
    return its manifest entry, digested from the bytes written."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"path": path.name, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def run(config: ExperimentConfig) -> RunManifest:
    """Validate, execute, and persist one experiment run."""
    params, settings, violations = _resolve(config)
    if violations:
        raise ConfigError("; ".join(violations))
    started = datetime.now(timezone.utc).isoformat(timespec="microseconds")

    runner = EXPERIMENTS[config.experiment].run
    replicas, jobs = settings["replicas"], settings["jobs"]
    base = RngStream(settings["seed"], 0)
    table = io.StringIO()
    writer = csv.writer(table)
    summaries: list = []
    extras: dict = {}
    for replica in range(replicas):
        # One floating-point policy for every run: a numpy overflow, invalid
        # operation or division by zero raises, here or in a forked worker,
        # which inherits the error state; underflow to zero is ignored.
        with np.errstate(all="raise", under="ignore"):
            result = runner(params, base.substream(replica), jobs)
        if replica == 0:
            writer.writerow(("replica", *result.columns))
        writer.writerows((replica, *row) for row in
                         zip(*map(_column, result.columns.values()),
                             strict=True))
        summaries.append(result.summary)
        for name, text in result.extra_files.items():
            key = name if replicas == 1 else f"replica{replica}_{name}"
            extras[key] = text
    summary = (summaries[0] if replicas == 1
               else {"replicas": replicas, "per_replica": summaries})
    texts = {f"{config.experiment}.csv": table.getvalue(),
             f"{config.experiment}_summary.json": _json(summary), **extras}

    # Only a run whose every replica returned whole columns and whose every
    # output encoded touches the output directory, so a failed run leaves no
    # directory, nor a mix of old and new files in an existing one.
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = tuple(_write(out_dir / name, text)
                    for name, text in texts.items())
    finished = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    # numpy does not promise the same Generator streams across versions, so
    # a digest mismatch between runs is diagnosed from this stamp.  A data
    # file's bits can depend only on a library the process loaded, so scipy
    # is stamped only when the run imported it (default ``spectrum``).
    environment = {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }
    if "scipy" in sys.modules:
        environment["scipy"] = sys.modules["scipy"].__version__
    manifest = RunManifest(
        experiment=config.experiment,
        parameters=params,
        seed=settings["seed"],
        replicas=replicas,
        output_dir=str(out_dir),
        artifact_version=__version__,
        started=started,
        finished=finished,
        outputs=outputs,
        environment=environment,
        jobs=jobs,
    )
    _write(Path(manifest.path), _json(asdict(manifest)))
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

        ini = configparser.ConfigParser(interpolation=None)
        try:
            read = ini.read(args.config, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            print(f"invalid config: {args.config}: {exc}", file=sys.stderr)
            return 2
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
    except Exception as exc:  # numeric/runtime failures map to exit 3
        cause = type(exc).__name__
        if isinstance(exc, FloatingPointError):  # numpy's text names no run
            cause += f" in {config.experiment}"
        print(f"runtime failure: {cause}: {exc}", file=sys.stderr)
        return 3
    print(manifest.path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
