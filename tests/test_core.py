"""Tests for the shared random-stream and statistics utilities."""

import ast
import contextlib
import errno
import gc
import hashlib
import math
import os
import re
import signal
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox
from hypothesis import given, strategies as st
from scipy import stats as sps

from util import no_fork

from stochlab.core import (
    SEGMENTS,
    CltPoint,
    RngStream,
    SampleStats,
    WorkerError,
    clt_scaling,
    fan_out,
    fit_power_law,
    low_high_power_ratio,
    mc_integrate,
    periodogram,
)


def _pid(unit):
    return os.getpid()


def _sleep_reversed(unit):
    """Later units sleep less, so workers finish them first."""
    index, count = unit
    time.sleep(0.05 * (count - index))
    return index, os.getpid()


def _fail_or_mark(unit):
    index, failing, marks = unit
    if index in failing:
        raise ValueError(f"unit {index}")
    time.sleep(0.2)
    (marks / str(index)).touch()
    return index


def _square(unit):
    return unit * unit


def _raise_on_1(unit):
    if unit == 1:
        raise ValueError("unit 1")
    return unit


def _kill_own_worker(unit):
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_own_worker_on_1(unit):
    if unit == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return unit


def _raise_unpicklable_on_1(unit):
    if unit == 1:
        exc = ValueError("unit 1")
        exc.hook = lambda: None  # pickled with the exception's __dict__
        raise exc
    return unit


def _return_unpicklable_on_1(unit):
    return (lambda: unit) if unit == 1 else unit


class _TwoArgumentError(Exception):
    def __init__(self, unit, detail):
        super().__init__(f"unit {unit}: {detail}")


def _raise_unrebuildable_on_1(unit):
    if unit == 1:  # pickles, but unpickling calls __init__ with one argument
        raise _TwoArgumentError(unit, "needs two arguments")
    return unit


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block outlasts
    ``seconds``; a forked worker does not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFanOut:
    def test_results_keep_unit_order_when_workers_finish_out_of_order(self):
        results = fan_out(_sleep_reversed, [(i, 6) for i in range(6)], 2)
        assert [index for index, _ in results] == list(range(6))
        assert os.getpid() not in {pid for _, pid in results}

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_is_rejected_before_any_fork(
            self, jobs, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        for units in (range(3), [0], []):
            with pytest.raises(ValueError,
                               match=f"^jobs must be at least 1, not {jobs}$"):
                fan_out(abs, units, jobs)

    def test_one_job_or_one_unit_runs_inline_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        assert fan_out(_pid, range(3), 1) == [os.getpid()] * 3
        assert fan_out(_pid, [0], 2) == [os.getpid()]
        assert fan_out(_pid, [], 2) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lowest_failing_unit_raises_and_pending_units_never_run(
            self, jobs, tmp_path):
        units = [(i, {1, 3}, tmp_path) for i in range(16)]
        with pytest.raises(ValueError, match="^unit 1$"):
            fan_out(_fail_or_mark, units, jobs)
        ran = {int(path.name) for path in tmp_path.iterdir()}
        if jobs == 1:
            assert ran == {0}
        else:
            # Units a worker has already taken run; the worker that took
            # unit 1 drains the task pipe, so of the fourteen that pass
            # only unit 0 ran in five trials on a 2-core host.
            assert 0 in ran and len(ran) < 10

    def test_a_worker_killed_by_a_signal_raises_a_worker_error(self):
        with _deadline(60), pytest.raises(
                WorkerError, match=r"^unit 1 was never reported; the "
                                   r"workers exited with \[(-9, 0|0, -9)\]"):
            fan_out(_kill_own_worker_on_1, range(4), 2)

    def test_more_units_than_the_task_pipe_holds_keep_unit_order(self):
        # 40,000 4-byte records are more than a 64 KiB pipe holds.
        with _deadline(60):
            assert fan_out(_square, range(40_000), 2) == [
                unit * unit for unit in range(40_000)]

    def test_workers_killed_while_the_units_are_fed_raise_a_worker_error(
            self):
        with _deadline(60), pytest.raises(
                WorkerError, match=r"^unit 0 was never reported; the "
                                   r"workers exited with \[-9, -9\]"):
            fan_out(_kill_own_worker, range(40_000), 2)

    def test_a_report_file_that_cannot_be_made_forks_no_worker(
            self, monkeypatch):
        make, calls = tempfile.TemporaryFile, []

        def second_call_fails():
            calls.append(len(calls))
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "no space for a report file")
            return make()

        monkeypatch.setattr(tempfile, "TemporaryFile", second_call_fails)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError, match="no space for a report file"):
                fan_out(_square, range(4), 2)
            gc.collect()  # an unclosed file warns when it is collected
        assert calls == [0, 1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not [w for w in caught if w.category is ResourceWarning]

    @pytest.mark.parametrize("fn, message", [
        (_raise_unpicklable_on_1,
         "^unit 1 raised a ValueError that cannot be pickled: "),
        (_return_unpicklable_on_1,
         "^unit 1 returned a function that cannot be pickled: "),
        (_raise_unrebuildable_on_1,
         "^unit 1's exception cannot be unpickled: TypeError"),
    ], ids=["exception", "result", "exception-not-rebuilt"])
    def test_an_outcome_that_cannot_cross_the_pipe_names_its_unit(
            self, fn, message):
        with _deadline(60), pytest.raises(WorkerError, match=message):
            fan_out(fn, range(4), 2)

    @pytest.mark.parametrize("fn, error", [
        (_square, None), (_raise_on_1, ValueError),
        (_kill_own_worker_on_1, WorkerError)],
        ids=["returns", "raises", "worker-killed"])
    def test_no_worker_outlives_the_call_or_runs_the_callers_code(
            self, fn, error, tmp_path):
        log = tmp_path / "finally"
        expected = (pytest.raises(error) if error
                    else contextlib.nullcontext())
        with _deadline(60), expected:
            try:
                fan_out(fn, range(8), 2)
            finally:
                with log.open("a") as lines:
                    lines.write(f"{os.getpid()}\n")
        assert log.read_text().split() == [str(os.getpid())]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_signal_at_fork_ends_the_worker_not_the_callers_code(
            self, tmp_path, monkeypatch):
        # Each worker is interrupted at once, still inside os.fork's caller.
        # A worker that escapes into the finally below logs its pid and
        # ends there, so it never runs the rest of the suite.
        parent, log, fork = os.getpid(), tmp_path / "finally", os.fork

        def interrupted_fork():
            pid = fork()
            if pid == 0:
                signal.raise_signal(signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
        # SIGINT raises KeyboardInterrupt even where the suite was started
        # with it ignored.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with _deadline(60), pytest.raises(WorkerError):
                try:
                    fan_out(_square, range(8), 2)
                finally:
                    with log.open("a") as lines:
                        lines.write(f"{os.getpid()}\n")
                    if os.getpid() != parent:
                        os._exit(0)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert log.read_text().split() == [str(parent)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# Stream canaries: for each Generator method src/ calls, a few draws with
# the argument shapes src/ uses.  NEP 19 does not promise these streams
# across numpy versions; when a golden digest moves after an upgrade, the
# canary whose digest moved names the method.  Recorded at numpy 2.4.6.
STREAM_CANARIES = {
    "binomial": ("1998c37d755ad510", lambda g: [
        g.binomial(8, 0.5, size=6), g.binomial(128, 0.5, size=6)]),
    "choice": ("e60a17b744f24ec6", lambda g: [
        g.choice(np.array([-1, 1], dtype=np.int8), size=8),
        g.choice(np.array([-1.0, 1.0]), size=8),
        g.choice(36, size=3, replace=False)]),
    "exponential": ("9b4ea01364dd3525", lambda g: [
        g.exponential(0.5, size=6)]),
    "integers": ("76606c0ea6d91855", lambda g: [
        g.integers(0, 4, size=8), g.integers(6),
        g.integers(0, [16, 8], size=(3, 2))]),
    "multinomial": ("2ba78bfc63dcceb3", lambda g: [
        g.multinomial(8, [1 / 4] * 4, size=3),
        g.multinomial(32, [1 / 6] * 6, size=3)]),
    "normal": ("4fc9d247db7e12cd", lambda g: [
        g.normal(0.0, 0.25, size=6), g.normal(1.0, 2.0),
        g.normal(0.0, 0.5, size=(3, 3))]),
    "permutation": ("6d801e9ea5e8883c", lambda g: [g.permutation(10)]),
    "permuted": ("fd517e51a073291c", lambda g: [
        g.permuted(np.tile(np.arange(6), (3, 1)), axis=1)]),
    "random": ("42b51578847f603b", lambda g: [
        g.random(), g.random(6), g.random((3, 2)),
        g.random(out=np.empty((2, 3)))]),
    "standard_normal": ("8dbc5fa3127abb28", lambda g: [
        g.standard_normal(6)]),
    "uniform": ("e0d2c9bb843e79ea", lambda g: [
        g.uniform(-0.5, 0.5, size=6)]),
}


@pytest.mark.parametrize("method", sorted(STREAM_CANARIES))
def test_generator_stream_canary(method):
    digest, draw = STREAM_CANARIES[method]
    values = draw(RngStream(2004, 19).gen)
    data = b"".join(np.asarray(v).tobytes() for v in values)
    assert hashlib.sha256(data).hexdigest()[:16] == digest, (
        f"numpy {np.__version__} changed the Generator.{method} stream")


SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_generator_method_src_calls_has_a_canary():
    called = {m for path in SRC.rglob("*.py")
              for m in re.findall(r"\bgen\.([a-z_]+)\(", path.read_text())}
    assert called and called <= set(STREAM_CANARIES)


def test_src_never_negates_into_an_output_array():
    # numpy 2.4.6's ``np.negative(v, out=v)`` writes wrong values into a
    # view with a 64-byte stride: it turns ``np.arange(64.)[::8]`` into
    # -0, -1, ..., -7, not -0, -8, ..., -56.  ``v *= -1.0`` is correct.
    calls = [f"{path.name}:{node.lineno}"
             for path in SRC.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "negative"
             and (len(node.args) > 1
                  or any(k.arg == "out" for k in node.keywords))]
    assert calls == []


class TestRngStream:
    def test_same_key_reproduces_bit_identical_sequences(self):
        a = RngStream(1234, 7).gen.random(1000)
        b = RngStream(1234, 7).gen.random(1000)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(1234, 0).gen.random(100)
        b = RngStream(1234, 1).gen.random(100)
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic_and_distinct(self):
        root = RngStream(42)
        ids = {root.substream(k).stream_id for k in range(100)}
        assert len(ids) == 100
        again = RngStream(42)
        assert [root.substream(k).stream_id for k in range(10)] == [
            again.substream(k).stream_id for k in range(10)
        ]

    def test_substreams_pass_joint_uniformity_chi_square(self):
        # Pairs (u, v) from two substreams, binned on a 10x10 grid, should be
        # consistent with the uniform joint law at p > 0.01.
        n = 100_000
        u = RngStream(9, 0).substream(0).gen.random(n)
        v = RngStream(9, 0).substream(1).gen.random(n)
        counts, _, _ = np.histogram2d(u, v, bins=10, range=[[0, 1], [0, 1]])
        chi2 = ((counts - n / 100) ** 2 / (n / 100)).sum()
        p_value = sps.chi2.sf(chi2, df=99)
        assert p_value > 0.01

    @pytest.mark.parametrize("seed, stream_id", [
        (0, 0), (2004, 19), (2**53 - 1, 2**63 - 1), (7, 2**63),
        (0, 0x910A2DEC89025CC1), (2**40 + 3, 2**64 - 2**11 - 1),
        (1, 2**64 - 1)])
    def test_key_of_a_seed_below_two_to_the_53_is_the_list_key(self, seed,
                                                               stream_id):
        # Streams were keyed from the list [seed, stream_id], which numpy
        # casts through float64 when the id is 2**63 or more; a seed below
        # 2**53 keeps every stream (an id that rounds to 2**64 warned).
        with np.errstate(invalid="ignore"):
            listed = Philox(key=[seed, stream_id]).state
        keyed = RngStream(seed, stream_id).gen.bit_generator.state
        assert np.array_equal(keyed["state"]["key"], listed["state"]["key"])

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 1 << 64)
        with pytest.raises(ValueError):
            RngStream(0).substream(-1)


class TestGaussian:
    def test_moments_at_one_million_draws(self):
        rng = RngStream(2024, 1)
        draws = rng.gen.normal(0.0, 1.0, size=10**6)
        assert abs(draws.mean()) < 0.004  # 4 / sqrt(1e6)
        assert abs(draws.var(ddof=1) - 1.0) < 0.01


class TestCltScaling:
    def test_slope_is_minus_half(self):
        result = clt_scaling(RngStream(7), [10, 100, 1000], replicas=10_000)
        assert result.slope == pytest.approx(-0.5, abs=0.05)

    def test_constant_sampler_gives_zero_error(self):
        result = clt_scaling(
            RngStream(7), [4], replicas=100,
            sampler=lambda s, size: np.full(size, 2.5),
        )
        assert result.points == (CltPoint(4, 0.0),)
        assert math.isnan(result.slope)

    def test_repeated_n_gives_nan_slope_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = clt_scaling(RngStream(0), (4, 4), 10)
        assert math.isnan(result.slope)

    def test_uniform_mean_of_two_matches_analytic_error(self):
        # Var(mean of 2 uniforms) = (1/12)/2, so std_error ~ 0.2041.
        result = clt_scaling(
            RngStream(11), [2], replicas=100_000,
            sampler=lambda s, size: s.gen.random(size),
        )
        assert result.points[0].std_error == pytest.approx(
            math.sqrt(1 / 12 / 2), abs=0.005)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            clt_scaling(RngStream(0), [], replicas=10)
        with pytest.raises(ValueError):
            clt_scaling(RngStream(0), [1], replicas=10)
        with pytest.raises(ValueError):
            clt_scaling(RngStream(0), [4], replicas=1)


class TestPeriodogram:
    def test_pure_sinusoid_concentrates_in_one_bin(self):
        t = np.arange(4096) * 0.01
        f0 = 25.0  # exactly on a bin for 512-point segments at dt = 0.01
        sig = np.sin(2 * np.pi * f0 * t)
        spec = periodogram(sig, sample_step=0.01)
        peak = np.argmax(spec.power)
        assert spec.frequencies[peak] == pytest.approx(f0)
        neighbors = np.delete(spec.power, [0, peak])
        assert spec.power[peak] / neighbors.max() > 100

    def test_white_noise_spectrum_is_flat(self):
        noise = RngStream(3, 3).gen.standard_normal(SEGMENTS * 512)
        spec = periodogram(noise, sample_step=1.0)
        body = spec.power[1:]
        assert body.max() / np.median(body) < 10

    def test_constant_signal_power_sits_at_zero_frequency(self):
        spec = periodogram(np.full(64, 3.0), sample_step=1.0)
        assert spec.power[0] == pytest.approx(9.0)
        assert np.all(spec.power[1:] < 1e-24)

    def test_parseval_over_positive_bins(self):
        x = RngStream(8, 1).gen.standard_normal(2048)
        spec = periodogram(x, sample_step=0.5)
        chunks = x.reshape(SEGMENTS, -1)
        de_meaned = chunks - chunks.mean(axis=1, keepdims=True)
        expected = (de_meaned**2).mean()
        assert spec.power[1:].sum() == pytest.approx(expected, rel=1e-9)

    def test_frequencies_strictly_increasing_and_power_nonnegative(self):
        spec = periodogram(np.sin(np.arange(300)), sample_step=2.0)
        assert np.all(np.diff(spec.frequencies) > 0)
        assert np.all(spec.power >= 0)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            periodogram(np.ones(2 * SEGMENTS - 1), sample_step=1.0)

    def test_nonpositive_sample_step_rejected(self):
        with pytest.raises(ValueError, match="sample_step"):
            periodogram(np.ones(4 * SEGMENTS), sample_step=0.0)


class TestLowHighPowerRatio:
    def test_ratio_of_lowest_to_highest_decile_means(self):
        walk = np.cumsum(RngStream(9, 1).gen.standard_normal(4000))
        spec = periodogram(walk, sample_step=1.0)
        power = spec.power[1:]
        k = power.size // 10
        expected = float(power[:k].mean() / power[-k:].mean())
        assert low_high_power_ratio(walk) == expected
        assert expected > 100  # a random walk is red

    def test_white_noise_is_near_one(self):
        noise = RngStream(9, 2).gen.standard_normal(8000)
        assert 0.5 < low_high_power_ratio(noise) < 2.0

    def test_short_and_silent_signals(self):
        assert math.isnan(low_high_power_ratio(np.ones(31)))
        assert low_high_power_ratio(np.zeros(64)) == math.inf


class TestFitPowerLaw:
    def test_exact_square_law(self):
        x = np.linspace(1, 10, 20)
        fit = fit_power_law(x, x**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr < 1e-12

    def test_inverse_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_power_law(x, 5.0 / x)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_exponent_recovered(self):
        rng = RngStream(21)
        x = np.geomspace(1, 100, 30)
        y = x**1.5 * np.exp(0.01 * rng.gen.standard_normal(30))
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.5, abs=0.05)
        assert fit.stderr > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, -3], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1, 0, 3])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1, 2])


class TestMcIntegrate:
    def test_constant_integrand(self):
        result = mc_integrate(RngStream(1), lambda p: np.ones(len(p)), dim=3,
                              samples=100)
        assert result.mean == 1.0
        assert result.variance == 0.0

    def test_product_integrand_in_ten_dimensions(self):
        result = mc_integrate(RngStream(17), lambda p: p.prod(axis=1), dim=10,
                              samples=10**6)
        exact = 0.5**10
        assert abs(result.mean - exact) < 3 * result.std_error

    def test_linear_integrand(self):
        result = mc_integrate(RngStream(2), lambda p: p[:, 0], dim=1,
                              samples=200_000)
        assert abs(result.mean - 0.5) < 3 * result.std_error

    def test_rerun_is_bit_identical(self):
        f = lambda p: np.cos(p).sum(axis=1)
        a = mc_integrate(RngStream(99, 5), f, dim=2, samples=5000)
        b = mc_integrate(RngStream(99, 5), f, dim=2, samples=5000)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc_integrate(RngStream(0), lambda p: p[:, 0], dim=0, samples=10)
        with pytest.raises(ValueError):
            mc_integrate(RngStream(0), lambda p: p[:, 0], dim=1, samples=1)
        with pytest.raises(ValueError):
            mc_integrate(RngStream(0), lambda p: p, dim=2, samples=10)


class TestSampleStats:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_invariants_hold_for_any_sample(self, values):
        stats = SampleStats.from_samples(values)
        assert stats.n == len(values)
        assert stats.variance >= 0
        assert stats.std_error == pytest.approx(
            math.sqrt(stats.variance / stats.n))

    def test_single_sample_has_zero_variance(self):
        stats = SampleStats.from_samples([4.2])
        assert stats == SampleStats(n=1, mean=4.2, variance=0.0, std_error=0.0)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            SampleStats(n=0, mean=0.0, variance=1.0, std_error=1.0)
        with pytest.raises(ValueError):
            SampleStats(n=2, mean=0.0, variance=-1.0, std_error=1.0)
        with pytest.raises(ValueError):
            SampleStats.from_samples([])
