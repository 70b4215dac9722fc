"""Noisy driven double-well dynamics and its resonance signature.

The particle moves in V(x) = x**4/4 - x**2/2 (minima at +-1, barrier height
1/4) under overdamped dynamics with a weak periodic force and additive white
noise:

    dx = (x - x**3 + A*sin(omega*t)) dt + sqrt(2*D*dt) * N(0, 1)

integrated by the Euler-Maruyama scheme.  At small noise the particle rarely
hops between wells; at large noise it hops incoherently.  In between, the
hopping rate matches the drive and the spectral line at the drive frequency
rises well above the noise background -- the signal-to-noise ratio peaks at
an interior noise level, which :func:`resonance_scan` measures.

The SNR estimator trims each trajectory to a whole number of drive periods
per periodogram segment so the line falls on a frequency bin instead of
leaking into its neighbours; a noiseless sinusoid then scores far above any
background convention (the tests pin > 40 dB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SEGMENTS, RngStream, fan_out, periodogram

__all__ = [
    "DoubleWellSpec",
    "Trajectory",
    "SnrCurve",
    "IntegrationError",
    "integrate",
    "snr_at_drive",
    "resonance_scan",
    "mean_residence_time",
]


class IntegrationError(RuntimeError):
    """The trajectory left the trust region; the step size is too coarse."""


_DIVERGENCE_BOUND = 1e3
_BACKGROUND_HALF_WIDTH = 20
_MIN_PERIODS = 100  # drive periods required before a spectral estimate
_KICK_BLOCK = 1 << 13  # kicks converted to Python floats at a time
# Longest record one cell may integrate: 159x the default 628,319 steps.
# Each step holds 8 bytes of record, so the cap keeps one cell under
# 0.9 GB; past it numpy would fail with a raw MemoryError or ValueError at
# allocation instead of naming the cause.
_MAX_STEPS = 10**8


@dataclass(frozen=True)
class DoubleWellSpec:
    """Drive, noise, and integration parameters for one double-well run.

    The integrated record ``n_steps * dt`` must cover at least 100 drive
    periods before :func:`snr_at_drive` accepts the run (the CLI checks it
    at validation) -- shorter records cannot resolve the line.  A record
    longer than ``_MAX_STEPS`` steps is rejected on construction.
    """

    amplitude: float
    omega: float
    noise_d: float
    dt: float
    t_total: float
    x0: float = 1.0

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_total <= 0:
            raise ValueError("t_total must be positive")
        if self.noise_d < 0:
            raise ValueError("noise_d must be non-negative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if not math.isfinite(self.t_total / self.dt):
            raise ValueError("t_total / dt overflows; raise dt")
        if self.n_steps < 1:
            raise ValueError("t_total shorter than one step")
        if self.n_steps > _MAX_STEPS:
            raise ValueError(f"the record takes {self.t_total / self.dt:.4g} "
                             f"steps, past the cap of {_MAX_STEPS:,}; raise "
                             "dt or reduce t_total")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_total / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled scalar path: ``positions[k]`` at ``times[k]``."""

    positions: np.ndarray
    sample_step: float

    def __post_init__(self) -> None:
        if self.positions.ndim != 1 or self.positions.size == 0:
            raise ValueError("positions must be a non-empty 1-d array")
        if self.sample_step <= 0:
            raise ValueError("sample_step must be positive")
        self.positions.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return self.sample_step * np.arange(self.positions.size)


@dataclass(frozen=True)
class SnrCurve:
    """SNR (dB) against noise intensity, replica-averaged.

    ``interior_peak`` is True when the best level is strictly inside the
    scanned range and clears both endpoint levels by at least 3 dB; a scan
    without such a peak is a negative result carried by the curve itself,
    not an exception.
    """

    noise_levels: np.ndarray
    snr_db: np.ndarray
    snr_stderr: np.ndarray
    peak_d: float
    interior_peak: bool

    def __post_init__(self) -> None:
        n = self.noise_levels.size
        if n < 3 or self.snr_db.size != n or self.snr_stderr.size != n:
            raise ValueError("curve needs >= 3 aligned (D, snr, stderr) rows")
        for arr in (self.noise_levels, self.snr_db, self.snr_stderr):
            arr.setflags(write=False)


def integrate(spec: DoubleWellSpec,
              rng: RngStream,
              sample_stride: int = 1) -> Trajectory:
    """Euler-Maruyama trajectory of the forced double well.

    Records every ``sample_stride``-th step (plus the initial condition).
    Raises :class:`IntegrationError` with advice to reduce ``dt`` if the
    position leaves ``|x| <= 1e3`` -- the quartic force makes the explicit
    scheme blow up fast once a step overshoots.

    The recurrence streams: a generator builds the kicks ``_KICK_BLOCK``
    at a time, reads each block as Python floats, and ``np.fromiter``
    stores each iterate straight into the float64 record.  The trust region
    is then tested on one block of the record at a time, so besides the
    record (8 bytes a step) only one block of kicks or of test results is
    alive.
    """
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    n = spec.n_steps
    dt = spec.dt
    scale = math.sqrt(2.0 * spec.noise_d * dt)

    def recurrence(x):
        yield x
        for lo in range(0, n, _KICK_BLOCK):
            # In place, the same IEEE operations as
            # ``amplitude * sin(omega * (dt * arange(n))) * dt + scale *
            # normals``: each product has the same two operands, only their
            # order differs.  ``standard_normal`` draws one variate after
            # another, so one block's draws continue the last block's.
            kicks = np.arange(lo, min(lo + _KICK_BLOCK, n), dtype=float)
            kicks *= dt
            kicks *= spec.omega
            np.sin(kicks, out=kicks)
            kicks *= spec.amplitude
            kicks *= dt
            if spec.noise_d > 0:
                kicks += scale * rng.gen.standard_normal(kicks.size)
            for kick in kicks.tolist():
                x += (x - x * x * x) * dt + kick
                yield x

    # The bare recurrence first, the trust region afterwards, one block of
    # the record at a time: past the bound the iterate runs off to inf and
    # NaN, which fail the test as well, so the first failing index is the
    # step that left the region.
    path = np.fromiter(recurrence(spec.x0), float, n + 1)
    for lo in range(1, n + 1, _KICK_BLOCK):
        inside = np.abs(path[lo:lo + _KICK_BLOCK]) < _DIVERGENCE_BOUND
        if not inside.all():
            step = lo + int(np.argmin(inside))
            raise IntegrationError(
                f"|x| exceeded {_DIVERGENCE_BOUND:g} at t = {step * dt:g}; "
                "reduce dt"
            )
    # A thinned record is copied out, so the full path is not kept alive.
    positions = np.ascontiguousarray(path[::sample_stride])
    return Trajectory(positions, dt * sample_stride)


def _segment_length(n_samples: int, step: float, omega: float) -> int:
    """Samples per periodogram segment, or ValueError naming a broken rule."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    period = 2.0 * math.pi / omega
    duration = step * (n_samples - 1)
    if duration < _MIN_PERIODS * period * (1.0 - 1e-9):
        raise ValueError(f"record covers {duration / period:.10g} drive "
                         f"periods; need >= {_MIN_PERIODS} for the "
                         "spectral estimate")
    samples_per_period = period / step
    period_samples = int(round(samples_per_period))
    if period_samples < 4:
        raise ValueError("drive period spans fewer than 4 samples; "
                         "sample more finely")
    periods_per_segment = n_samples // (SEGMENTS * period_samples)
    # Whole-period mismatch accumulated over a segment must stay well below
    # one bin, or the line drifts off its bin and the estimate is meaningless.
    bin_offset = periods_per_segment * abs(samples_per_period - period_samples) \
        / samples_per_period
    if bin_offset > 0.25:
        raise ValueError("drive frequency is not resolvable on the sampling "
                         "grid; adjust dt or omega")
    return periods_per_segment * period_samples


def snr_at_drive(trajectory: Trajectory, omega: float) -> float:
    """Line-to-background power ratio at the drive frequency, in dB.

    Record rules (a ValueError names the broken one): >= 100 drive periods,
    >= 4 samples per period, a whole period in each of 8 equal segments,
    and the line within a quarter bin of its bin across a segment.  Each
    segment is trimmed to a whole number of periods; the averaged
    periodogram power in the line bin is divided by the median power over
    the surrounding +-20 bins (the line bin and its neighbours excluded).
    """
    step = trajectory.sample_step
    segment_len = _segment_length(trajectory.positions.size, step, omega)
    used = trajectory.positions[:SEGMENTS * segment_len]
    spectrum = periodogram(used, step)
    f_drive = omega / (2.0 * math.pi)
    line = int(np.argmin(np.abs(spectrum.frequencies - f_drive)))

    lo = max(1, line - _BACKGROUND_HALF_WIDTH)
    hi = min(spectrum.power.size - 1, line + _BACKGROUND_HALF_WIDTH)
    neighborhood = [k for k in range(lo, hi + 1) if abs(k - line) > 1]
    background = float(np.median(spectrum.power[neighborhood]))
    line_power = float(spectrum.power[line])
    if background == 0.0:
        return math.inf if line_power > 0 else 0.0
    return 10.0 * math.log10(line_power / background)


def _cell_snr(unit) -> float:
    """SNR of one (level, replica) cell: ``unit`` is (spec, stream)."""
    spec, stream = unit
    return snr_at_drive(integrate(spec, stream), spec.omega)


def _sorted_levels(noise_levels) -> np.ndarray:
    levels = np.sort(np.asarray(noise_levels, dtype=float))
    if levels.size < 5:
        raise ValueError("need at least 5 noise levels")
    if np.any(levels <= 0):
        raise ValueError("noise levels must be positive")
    # Python floats: their quotient is numpy's, but an overflow gives inf
    # (a span of more than a decade) without a RuntimeWarning.
    if float(levels[-1]) / float(levels[0]) < 10.0 * (1.0 - 1e-12):
        raise ValueError("noise levels must span at least one decade")
    return levels


def _check_kick(noise_d: float, dt: float) -> None:
    """Reject a noise level whose kick scale sqrt(2 D dt) reaches the trust
    bound: each step then leaves ``|x| < 1e3`` with a probability of at
    least 0.3, so a record of hundreds of steps fails all but certainly."""
    kick = math.sqrt(2.0 * float(noise_d) * dt)
    if kick >= _DIVERGENCE_BOUND:
        raise ValueError(f"the kick scale sqrt(2 * D * dt) = {kick:.4g} at "
                         f"D = {float(noise_d):g} reaches the trust bound "
                         f"{_DIVERGENCE_BOUND:g}; lower the largest level "
                         "or dt")


def resonance_scan(base: DoubleWellSpec,
                   noise_levels,
                   replicas: int,
                   rng: RngStream,
                   jobs: int = 1) -> SnrCurve:
    """Replica-averaged SNR across noise intensities.

    Levels are scanned in ascending order; the (level i, replica j) cell
    integrates on ``rng.substream(i * replicas + j)`` alone, so the cells
    run on up to ``jobs`` worker processes (:func:`core.fan_out`) and the
    curve is bit-identical for any ``jobs``.  Requires >= 5 levels spanning
    at least a decade, a largest level whose kick scale sqrt(2 D dt) stays
    below the trust bound, and >= 4 replicas.
    """
    levels = _sorted_levels(noise_levels)
    _check_kick(levels[-1], base.dt)
    if replicas < 4:
        raise ValueError("need at least 4 replicas")

    cells = [(replace(base, noise_d=float(level)),
              rng.substream(i * replicas + j))
             for i, level in enumerate(levels) for j in range(replicas)]
    snr = np.array(fan_out(_cell_snr, cells, jobs)).reshape(levels.size,
                                                            replicas)
    mean_db = snr.mean(axis=1)
    stderr = snr.std(axis=1, ddof=1) / math.sqrt(replicas)

    k = int(np.argmax(mean_db))
    interior = bool(
        0 < k < levels.size - 1
        and mean_db[k] > mean_db[0] + 3.0
        and mean_db[k] > mean_db[-1] + 3.0
    )
    return SnrCurve(noise_levels=levels, snr_db=mean_db, snr_stderr=stderr,
                    peak_d=float(levels[k]), interior_peak=interior)


def mean_residence_time(trajectory: Trajectory,
                        threshold: float = 0.5) -> float:
    """Mean time between well switches, with hysteresis.

    The well label flips only when the position crosses ``threshold`` on
    the *other* side of the barrier, so chatter around x = 0 does not count
    as hopping.  Only complete intervals between consecutive switches enter
    the mean; raises if the trajectory shows fewer than two switches.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    x = trajectory.positions
    state = np.zeros(x.size, dtype=np.int8)
    state[x > threshold] = 1
    state[x < -threshold] = -1
    committed_idx = np.flatnonzero(state)
    if committed_idx.size == 0:
        raise ValueError("trajectory never commits to a well")
    # Forward-fill the last committed label over the undecided stretches.
    fill = np.zeros(x.size, dtype=np.int64)
    fill[committed_idx] = committed_idx
    np.maximum.accumulate(fill, out=fill)
    label = state[fill][committed_idx[0]:]
    times = trajectory.times[committed_idx[0]:]
    switches = np.flatnonzero(np.diff(label) != 0) + 1
    if switches.size < 2:
        raise ValueError("fewer than two well switches; extend t_total "
                         "or raise the noise")
    return float(np.diff(times[switches]).mean())
