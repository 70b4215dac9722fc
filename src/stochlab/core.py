"""Seeded random streams and the statistics utilities shared by all experiments.

The RngStream type wraps numpy's counter-based Philox generator, keyed by two
64-bit words (seed, stream_id).  The same key always reproduces the same draw
sequence bit for bit, and substreams derived with :meth:`RngStream.substream`
are statistically independent, so replicas can run in parallel and still merge
deterministically.

:func:`fan_out` runs such substream-indexed units on worker processes that
it forks itself, feeding them unit indices through one pipe.  Each worker
appends its pickled results or exceptions to an unlinked file of its own,
so it never blocks on its output, and the parent reads the files once the
workers have ended and returns the results in unit order, so a reduction
over them sees the same operands whatever the worker count.  Where
``os.fork`` does not exist the units run inline.

The rest of the module is plain numerics: sample statistics, the 1/sqrt(N)
scaling of the error of the mean, a segment-averaged periodogram, log-log
power-law fitting, and plain Monte Carlo integration on the unit hypercube.
"""

from __future__ import annotations

import math
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, the SplitMix64 increment
SEGMENTS = 8  # equal segments that every periodogram averages over


def _splitmix64(x: int) -> int:
    """One SplitMix64 mixing round; bijective on 64-bit ints."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _id_word(stream_id: int) -> int:
    """The Philox key word of a stream id.

    Streams were first keyed from the list ``[seed, stream_id]``, which
    numpy casts through float64 when the id is 2**63 or more and the seed
    is not.  Such an id keeps the word that cast gave it, so no stream of a
    seed below 2**53 moves, while the seed word is now always exact.
    """
    if stream_id < 1 << 63:
        return stream_id
    with np.errstate(invalid="ignore"):  # a double of 2**64 has no uint64
        return int(np.float64(stream_id).astype(np.uint64))


@dataclass
class RngStream:
    """A reproducible random stream identified by (seed, stream_id).

    Both words form the 128-bit Philox key, so distinct stream ids give
    independent sequences of the same seed.  A stream is single-owner:
    hand substreams (not the stream itself) to concurrent work.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= int(value) <= _MASK64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        key = np.array([self.seed, _id_word(self.stream_id)], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))

    @property
    def gen(self) -> Generator:
        """The underlying numpy Generator (advances as you draw)."""
        return self._gen

    def substream(self, index: int) -> "RngStream":
        """Derive the index-th child stream, deterministically.

        Child ids are SplitMix64 mixes of (stream_id, index), which scatters
        them over the full 64-bit space; collisions between children and the
        small hand-assigned top-level ids are negligible by construction.
        """
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        child = _splitmix64((self.stream_id * _GOLDEN + index + 1) & _MASK64)
        return RngStream(self.seed, child)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerError(RuntimeError):
    """A :func:`fan_out` unit whose outcome could not come back from its
    worker: the worker ended without reporting it, or its result or
    exception could not be pickled."""


# A worker's report of one unit: its index, whether it returned (else it
# raised), and the size of the pickled result or exception that follows.
_REPORT = struct.Struct("<I?Q")


def fan_out(fn: Callable, units: Iterable, jobs: int) -> list:
    """``[fn(unit) for unit in units]``, on up to ``jobs`` worker processes.

    ``jobs`` below 1 is a ValueError.  With ``jobs == 1``, fewer than two
    units, or no ``os.fork`` on the platform, everything runs inline, in
    this process.  Otherwise this process forks ``min(jobs, len(units))``
    workers, which inherit ``fn``, the units and numpy's error state, and
    writes each unit's index as a 4-byte record into one task pipe.  Each
    worker reads one index at a time, so units go to whichever worker is
    free, and appends its outcomes to an unlinked file of its own, made
    before the first fork: only results and exceptions are pickled, so
    ``fn`` may be any callable, closures included.  A worker never waits
    on its output, so this process can feed the task pipe with blocking
    writes, then reap the workers and read their files.  Callers build
    each unit's inputs before the call, since what a worker allocates
    counts toward its own resident peak.  A worker is forked with every
    signal blocked and ends in ``os._exit`` whatever happens, so it never
    returns into the caller's code.  Results come back in unit order.

    If a unit raises, its worker drains the task pipe, so no further unit
    starts, and the lowest failing unit's exception is raised unchanged,
    the one the inline loop would raise.  A worker that ends without
    reporting a unit (killed by a signal, say), or an outcome that cannot
    be pickled, raises :class:`WorkerError`.  If the caller is interrupted,
    every worker is killed and reaped.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    units = list(units)
    if jobs == 1 or len(units) < 2 or not hasattr(os, "fork"):
        return [fn(unit) for unit in units]
    # Imported here, so that a run that never fans out does not load it.
    import signal

    read_end, write_end = os.pipe()
    tasks, feed = open(read_end, "rb", 0), open(write_end, "wb", 0)
    reports = []  # one unlinked file per worker, in fork order
    workers = []  # pids of the workers not yet reaped
    ended = []  # wait statuses of the workers reaped
    try:
        for _ in range(min(jobs, len(units))):
            reports.append(tempfile.TemporaryFile())
        for report in reports:
            # No signal is handled between the fork and the worker's
            # ``try``, so none can unwind a worker into the caller's code.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                          signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, units, tasks, feed, report, mask)
                workers.append(pid)
            finally:  # a signal handled here finds the worker in workers
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # Closed here, so that once every worker has ended a write fails
        # with BrokenPipeError rather than waiting for room in the pipe.
        tasks.close()
        records = np.arange(len(units), dtype="<u4").tobytes()
        try:  # POSIX makes a write of up to 512 bytes to a pipe atomic,
            # so no worker reads part of a record
            for start in range(0, len(records), 512):
                feed.write(records[start:start + 512])
        except BrokenPipeError:  # the units not taken are never reported
            pass
        feed.close()
        while workers:  # forgotten only once reaped, so an interrupted
            # wait leaves the worker to the clean-up below
            ended.append(os.waitpid(workers[0], 0)[1])
            del workers[0]
        outcomes = {}
        for report in reports:
            report.seek(0)
            outcomes.update(_outcomes(report.read()))
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for file in (tasks, feed, *reports):
            file.close()

    for index in range(len(units)):
        if index not in outcomes:
            codes = [os.waitstatus_to_exitcode(status) for status in ended]
            raise WorkerError(f"unit {index} was never reported; the workers "
                              f"exited with {codes} (-N: killed by signal N)")
        returned, value = outcomes[index]
        if not returned:
            raise value
    return [outcomes[index][1] for index in range(len(units))]


def _work(fn: Callable, units: list, tasks, feed, report, mask):
    """A forked worker's whole life: restore the caller's signal ``mask``
    (every signal was blocked over the fork), so a signal that arrived
    meanwhile ends the worker here; close its copy of the ``feed``, the
    task pipe's write end, so the pipe ends when the parent closes it; run
    each unit whose index it reads from ``tasks`` and append its report to
    its own ``report`` file, which never blocks on a reader, until the
    task pipe ends or a unit raises; then ``os._exit``, never returning."""
    import signal

    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        feed.close()
        while record := tasks.read(4):
            index = int.from_bytes(record, "little")
            try:
                returned, value = True, fn(units[index])
            except Exception as exc:
                returned, value = False, exc
            try:
                payload = pickle.dumps(value)
            except Exception as exc:
                verb = "returned" if returned else "raised"
                returned, payload = False, pickle.dumps(WorkerError(
                    f"unit {index} {verb} a {type(value).__name__} that "
                    f"cannot be pickled: {exc}"))
            report.write(_REPORT.pack(index, returned, len(payload)))
            report.write(payload)
            report.flush()
            if not returned:  # no further unit starts
                while tasks.read(4096):  # whole 4-byte records
                    pass
        status = 0
    finally:
        os._exit(status)


def _outcomes(report: bytes):
    """``(index, (returned, value))`` for each whole report in a worker's
    bytes; a report cut short by the worker's end is left out."""
    start = 0
    while start + _REPORT.size <= len(report):
        index, returned, size = _REPORT.unpack_from(report, start)
        start += _REPORT.size + size
        if start > len(report):
            return
        try:
            value = pickle.loads(memoryview(report)[start - size:start])
        except Exception as exc:
            returned, value = False, WorkerError(
                f"unit {index}'s {'result' if returned else 'exception'} "
                f"cannot be unpickled: {exc!r}")
        yield index, (returned, value)


@dataclass(frozen=True)
class SampleStats:
    """Count, mean, sample variance, and standard error of the mean."""

    n: int
    mean: float
    variance: float
    std_error: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one sample")
        if self.variance < 0 or self.std_error < 0:
            raise ValueError("variance and std_error must be nonnegative")

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray) -> "SampleStats":
        arr = np.asarray(samples, dtype=float).ravel()
        n = arr.size
        if n < 1:
            raise ValueError("need at least one sample")
        variance = float(arr.var(ddof=1)) if n > 1 else 0.0
        return cls(n=n, mean=float(arr.mean()), variance=variance,
                   std_error=math.sqrt(variance / n))


@dataclass(frozen=True)
class PowerSpectrum:
    """Segment-averaged power spectrum.

    frequencies are in cycles per unit of ``sample_step`` and strictly
    increasing; power[k] >= 0.  The zero-frequency bin carries the squared
    segment mean, so the power summed over the remaining bins equals the
    mean square of the per-segment de-meaned signal (discrete Parseval).
    """

    frequencies: np.ndarray
    power: np.ndarray


class PowerLawFit(NamedTuple):
    exponent: float
    stderr: float


class CltPoint(NamedTuple):
    n: int
    std_error: float


@dataclass(frozen=True)
class CltScaling:
    """Empirical error-of-the-mean curve with its fitted log-log slope."""

    points: tuple[CltPoint, ...]
    slope: float


def clt_scaling(
    rng: RngStream,
    n_values: Sequence[int],
    replicas: int,
    sampler: Callable[[RngStream, int], np.ndarray] | None = None,
) -> CltScaling:
    """Measure how the standard error of a mean falls with sample size.

    For each n, draws ``replicas`` independent means of n samples and records
    the empirical standard deviation of those means.  The default sampler is
    standard normal; pass ``sampler(rng, size)`` to use another unit-variance
    law.  The returned slope is the least-squares fit of log std_error against
    log n (nan when fewer than two distinct n or a nonpositive error leave
    nothing to fit, e.g. for a constant sampler).
    """
    if len(n_values) == 0:
        raise ValueError("n_values must be nonempty")
    if any(n < 2 for n in n_values):
        raise ValueError("every n must be at least 2")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    if sampler is None:
        sampler = lambda s, size: s.gen.standard_normal(size)

    points = []
    for n in n_values:
        draws = np.asarray(sampler(rng, replicas * int(n)), dtype=float)
        means = draws.reshape(replicas, int(n)).mean(axis=1)
        points.append(CltPoint(int(n), float(means.std(ddof=1))))

    ns = np.array([p.n for p in points], dtype=float)
    errs = np.array([p.std_error for p in points], dtype=float)
    if len(set(n_values)) >= 2 and np.all(errs > 0):
        slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    else:
        slope = float("nan")
    return CltScaling(points=tuple(points), slope=slope)


def periodogram(signal: Sequence[float] | np.ndarray,
                sample_step: float) -> PowerSpectrum:
    """Average the squared DFT magnitude over ``SEGMENTS`` equal
    non-overlapping segments.

    Rectangular windows, no de-meaning: a constant signal puts all its power
    in the zero-frequency bin.  Power is normalized so that the sum over the
    positive-frequency bins reproduces the mean square of the de-meaned
    signal (checked to 1e-9 in the tests).
    """
    x = np.asarray(signal, dtype=float).ravel()
    if x.size < 2 * SEGMENTS:
        raise ValueError(
            f"signal of length {x.size} is too short for {SEGMENTS} segments "
            "(need at least 2 points per segment)")
    if sample_step <= 0:
        raise ValueError("sample_step must be positive")

    seg_len = x.size // SEGMENTS
    chunks = x[: SEGMENTS * seg_len].reshape(SEGMENTS, seg_len)
    # The complex spectrum is freed before the squares are taken in place.
    power = np.abs(np.fft.rfft(chunks, axis=1))
    power *= power
    # One-sided weights: interior bins represent a conjugate pair each.
    weights = np.full(power.shape[1], 2.0)
    weights[0] = 1.0
    if seg_len % 2 == 0:
        weights[-1] = 1.0
    power = power.mean(axis=0) * weights / seg_len**2
    freqs = np.fft.rfftfreq(seg_len, d=sample_step)
    return PowerSpectrum(frequencies=freqs, power=power)


def low_high_power_ratio(signal: Sequence[float] | np.ndarray) -> float:
    """Low- over high-frequency power of a unit-step signal's periodogram.

    The mean power over the lowest decile of positive-frequency bins of the
    8-segment periodogram, divided by the mean over the highest decile.  A
    signal with fewer than four points per segment gives nan, and a silent
    top decile gives inf.
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 4 * SEGMENTS:
        return float("nan")
    spectrum = periodogram(x, 1.0)
    power = spectrum.power[spectrum.frequencies > 0]
    k = max(1, power.size // 10)
    high = float(power[-k:].mean())
    return float(power[:k].mean() / high) if high > 0 else float("inf")


def fit_power_law(x: Sequence[float] | np.ndarray,
                  y: Sequence[float] | np.ndarray) -> PowerLawFit:
    """Least-squares slope of log y against log x, with its standard error.

    This is the usual log-log regression estimate of a power-law exponent.
    It is simple and reproducible but statistically biased relative to a
    maximum-likelihood fit; treat the exponent as descriptive.
    """
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.size != ya.size:
        raise ValueError("x and y must have equal length")
    if xa.size < 3:
        raise ValueError("need at least 3 points to fit")
    if np.any(xa <= 0) or np.any(ya <= 0):
        raise ValueError("power-law fit requires strictly positive data")

    lx, ly = np.log(xa), np.log(ya)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = xa.size - 2
    centred = lx - lx.mean()
    var_slope = (resid @ resid / dof) / (centred @ centred)
    return PowerLawFit(exponent=float(slope), stderr=float(math.sqrt(var_slope)))


def mc_integrate(rng: RngStream, f: Callable[[np.ndarray], np.ndarray],
                 dim: int, samples: int) -> SampleStats:
    """Plain Monte Carlo estimate of the integral of f over [0,1]^dim.

    ``f`` receives a (samples, dim) array and must return the integrand value
    per row.  The mean of the returned SampleStats is the integral estimate;
    its std_error is the usual 1/sqrt(samples) Monte Carlo error bar.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    points = rng.gen.random((samples, dim))
    values = np.asarray(f(points), dtype=float)
    if values.shape != (samples,):
        raise ValueError("f must map a (samples, dim) array to (samples,) values")
    return SampleStats.from_samples(values)
