"""Double-well Langevin dynamics: integrator, SNR estimator, noise scan."""

import math
import sys

import numpy as np
import pytest

from stochlab.core import RngStream
from stochlab.resonance import (
    _KICK_BLOCK,
    _MAX_STEPS,
    DoubleWellSpec,
    IntegrationError,
    SnrCurve,
    Trajectory,
    integrate,
    mean_residence_time,
    resonance_scan,
    snr_at_drive,
)
from util import reference_integrate, traced_peak

TWO_PI = 2.0 * math.pi


def make_trajectory(values, step=0.01):
    return Trajectory(np.asarray(values, dtype=float), step)


# ---------------------------------------------------------------------------
# Integrator


def test_right_well_is_a_fixed_point():
    spec = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.0,
                          dt=0.01, t_total=50.0, x0=1.0)
    traj = integrate(spec, RngStream(1))
    assert abs(traj.positions[-1] - 1.0) < 1e-6


def test_unstable_origin_is_preserved_exactly_without_noise():
    spec = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.0,
                          dt=0.01, t_total=50.0, x0=0.0)
    traj = integrate(spec, RngStream(1))
    assert np.all(traj.positions == 0.0)


def test_noiseless_dynamics_conserves_the_well_sign():
    for x0 in (0.25, 2.0, -0.25, -2.0):
        spec = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.0,
                              dt=0.01, t_total=20.0, x0=x0)
        traj = integrate(spec, RngStream(2))
        assert np.all(np.sign(traj.positions) == np.sign(x0))


def test_divergence_raises_with_guidance():
    spec = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.0,
                          dt=0.5, t_total=10.0, x0=3.0)
    with pytest.raises(IntegrationError, match="reduce dt"):
        integrate(spec, RngStream(3))


def test_step_halving_changes_endpoint_little():
    # Deterministic convergence check for the documented dt = 0.01 default.
    coarse = DoubleWellSpec(amplitude=0.3, omega=1.0, noise_d=0.0,
                            dt=0.01, t_total=50.0)
    fine = DoubleWellSpec(amplitude=0.3, omega=1.0, noise_d=0.0,
                          dt=0.005, t_total=50.0)
    x_coarse = integrate(coarse, RngStream(4)).positions[-1]
    x_fine = integrate(fine, RngStream(4)).positions[-1]
    assert abs(x_coarse - x_fine) < 1e-3


def test_same_seed_same_trajectory():
    spec = DoubleWellSpec(amplitude=0.3, omega=1.0, noise_d=0.2,
                          dt=0.01, t_total=30.0)
    a = integrate(spec, RngStream(5, 9))
    b = integrate(spec, RngStream(5, 9))
    np.testing.assert_array_equal(a.positions, b.positions)
    c = integrate(spec, RngStream(5, 10))
    assert not np.array_equal(a.positions, c.positions)


def test_sample_stride_thins_the_record():
    spec = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.1,
                          dt=0.01, t_total=10.0)
    traj = integrate(spec, RngStream(6), sample_stride=5)
    assert traj.sample_step == pytest.approx(0.05)
    assert traj.positions.size == spec.n_steps // 5 + 1
    assert traj.times[1] - traj.times[0] == pytest.approx(0.05)


@pytest.mark.parametrize("stride", [1, 3, 7])
def test_integrate_matches_the_checked_loop_byte_for_byte(stride):
    # 2001 steps: not a multiple of 3 or 7, so the tail is thinned too.
    spec = DoubleWellSpec(amplitude=0.3, omega=0.5, noise_d=0.25,
                          dt=0.01, t_total=20.01, x0=-0.3)
    got = integrate(spec, RngStream(7, stride), sample_stride=stride)
    want = reference_integrate(spec, RngStream(7, stride), sample_stride=stride)
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.times.tobytes() == want.times.tobytes()
    assert got.sample_step == want.sample_step


# 140,001 steps: whole kick blocks and a part of one more.
BLOCK_SPANNING = DoubleWellSpec(amplitude=0.3, omega=0.5, noise_d=0.25,
                                dt=0.01, t_total=1400.01, x0=-0.3)


def test_integrate_matches_the_checked_loop_across_kick_blocks():
    n = BLOCK_SPANNING.n_steps
    assert n > 2 * _KICK_BLOCK and n % _KICK_BLOCK != 0
    got = integrate(BLOCK_SPANNING, RngStream(7, 11))
    want = reference_integrate(BLOCK_SPANNING, RngStream(7, 11))
    assert got.positions.tobytes() == want.positions.tobytes()


def test_integrate_holds_the_kicks_the_record_and_one_block():
    _, peak = traced_peak(integrate, BLOCK_SPANNING, RngStream(7, 11))
    # What the loop holds at once: the float64 record (8 bytes a step) and
    # one block of kicks, as a float64 array and as a list of Python floats
    # (an object and a list slot each).  This bound also admits a float64
    # array of every kick (8 bytes a step more); the default-record test
    # below does not.  Holding every kick as a Python float at once would
    # take 32 bytes a step more.
    block = _KICK_BLOCK * (sys.getsizeof(1.0) + 8)
    assert peak <= 16 * BLOCK_SPANNING.n_steps + 2 * block


# The default resonance record: 100 drive periods at omega = 0.1, dt = 0.01.
DEFAULT_RECORD = DoubleWellSpec(amplitude=0.3, omega=0.1, noise_d=0.2,
                                dt=0.01, t_total=100.0 * TWO_PI / 0.1)


def test_integrate_holds_the_record_and_three_blocks_at_the_default_length():
    assert DEFAULT_RECORD.n_steps == 628_319
    _, peak = traced_peak(integrate, DEFAULT_RECORD, RngStream(7, 12))
    # The float64 record is the one step-sized buffer (8 bytes a step).
    # While the loop runs, one block of kicks is alive as float64 values
    # and as Python floats, about 1.25 blocks; after it, the trust-region
    # test holds three bool arrays of a byte a step, under one block at
    # this length.  Three blocks cover either.  A float64 array of every
    # kick beside the record would take 8 bytes a step, 2.4 blocks here.
    block = _KICK_BLOCK * (sys.getsizeof(1.0) + 8)
    assert peak <= 8 * DEFAULT_RECORD.n_steps + 3 * block


def test_block_draws_of_standard_normal_continue_one_call():
    n = BLOCK_SPANNING.n_steps
    whole, blocks = RngStream(7, 11), RngStream(7, 11)
    want = whole.gen.standard_normal(n)
    got = np.concatenate([blocks.gen.standard_normal(min(_KICK_BLOCK, n - lo))
                          for lo in range(0, n, _KICK_BLOCK)])
    assert got.tobytes() == want.tobytes()
    # The next draws mark where each left the stream.
    assert blocks.gen.random(4).tobytes() == whole.gen.random(4).tobytes()


@pytest.mark.parametrize("x0, dt, noise_d, t_total", [
    (3.0, 0.5, 0.0, 10.0),     # overshoots on the first steps
    (0.9, 0.25, 1.0, 2000.0),  # a noise kick escapes after 909 steps
    (0.9, 0.25, 0.5, 1e4),     # ... after 30,824 steps, past 3 kick blocks
])
def test_divergence_is_reported_at_the_same_step_as_the_checked_loop(
        x0, dt, noise_d, t_total):
    spec = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=noise_d,
                          dt=dt, t_total=t_total, x0=x0)
    with pytest.raises(IntegrationError) as want:
        reference_integrate(spec, RngStream(8))
    with pytest.raises(IntegrationError) as got:
        integrate(spec, RngStream(8))
    assert str(got.value) == str(want.value)


def test_spec_validation():
    with pytest.raises(ValueError):
        DoubleWellSpec(0.3, 1.0, 0.1, dt=0.0, t_total=10.0)
    with pytest.raises(ValueError):
        DoubleWellSpec(0.3, 1.0, 0.1, dt=0.01, t_total=-1.0)
    with pytest.raises(ValueError):
        DoubleWellSpec(0.3, 1.0, -0.1, dt=0.01, t_total=10.0)
    with pytest.raises(ValueError):
        DoubleWellSpec(0.3, 0.0, 0.1, dt=0.01, t_total=10.0)
    with pytest.raises(ValueError, match="overflows"):
        DoubleWellSpec(0.3, 1.0, 0.1, dt=1e-320, t_total=10.0)
    with pytest.raises(ValueError):
        integrate(DoubleWellSpec(0.0, 1.0, 0.0, 0.01, 1.0), RngStream(1),
                  sample_stride=0)


def test_spec_caps_the_record_length():
    default = DoubleWellSpec(0.3, 0.1, 0.02, dt=0.01, t_total=100 * TWO_PI / 0.1)
    assert _MAX_STEPS >= 100 * default.n_steps
    at_cap = DoubleWellSpec(0.3, 1.0, 0.1, dt=1.0, t_total=float(_MAX_STEPS))
    assert at_cap.n_steps == _MAX_STEPS
    with pytest.raises(ValueError, match="past the cap"):
        DoubleWellSpec(0.3, 1.0, 0.1, dt=1.0, t_total=_MAX_STEPS + 1.0)


def test_spec_derived_quantities():
    spec = DoubleWellSpec(amplitude=0.3, omega=0.1, noise_d=0.1,
                          dt=0.01, t_total=100 * TWO_PI / 0.1)
    assert spec.n_steps == round(spec.t_total / 0.01)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError):
        Trajectory(np.zeros(0), 0.1)
    with pytest.raises(ValueError):
        Trajectory(np.zeros(3), 0.0)


# ---------------------------------------------------------------------------
# SNR estimator


@pytest.fixture(scope="module")
def probe_spec():
    # 110 drive periods at omega = 1: enough record for the estimator.
    return DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.0,
                          dt=0.01, t_total=110 * TWO_PI)


def test_pure_sinusoid_scores_far_above_background(probe_spec):
    n = probe_spec.n_steps + 1
    t = 0.01 * np.arange(n)
    traj = make_trajectory(np.sin(t))
    assert snr_at_drive(traj, 1.0) > 40.0


def test_white_noise_scores_near_zero_db(probe_spec):
    n = probe_spec.n_steps + 1
    values = [
        snr_at_drive(
            make_trajectory(RngStream(71, k).gen.standard_normal(n)), 1.0)
        for k in range(4)
    ]
    assert abs(np.mean(values)) < 3.0


def test_short_record_is_rejected():
    short = make_trajectory(np.sin(0.01 * np.arange(1000)))
    with pytest.raises(ValueError, match="periods"):
        snr_at_drive(short, 1.0)
    # 6283.0 time units at omega = 0.1 is 99.997 periods, not "100.0".
    nearly = make_trajectory(np.zeros(12567), step=0.5)
    with pytest.raises(ValueError, match=r"covers 99\.99\d* drive periods"):
        snr_at_drive(nearly, 0.1)


def test_coarsely_sampled_drive_is_rejected():
    # Three samples per period cannot hold the line.
    step = TWO_PI / 3.0
    n = 400
    traj = make_trajectory(np.zeros(n), step=step)
    with pytest.raises(ValueError, match="resolvable|samples"):
        snr_at_drive(traj, 1.0)


def test_half_integer_period_sampling_is_rejected():
    # 6.5 samples per period: the line drifts off its bin within a segment.
    step = TWO_PI / 6.5
    n = 800
    traj = make_trajectory(np.zeros(n), step=step)
    with pytest.raises(ValueError, match="resolvable"):
        snr_at_drive(traj, 1.0)


def test_nonpositive_probe_frequency_rejected():
    traj = make_trajectory(np.zeros(100))
    with pytest.raises(ValueError):
        snr_at_drive(traj, 0.0)


def test_snr_grows_with_drive_amplitude():
    # Linear-response trend at fixed noise, replica-averaged.
    means = []
    for ai, amplitude in enumerate((0.1, 0.2, 0.4)):
        spec = DoubleWellSpec(amplitude=amplitude, omega=1.0, noise_d=0.3,
                              dt=0.01, t_total=100 * TWO_PI)
        reps = [snr_at_drive(integrate(spec, RngStream(76, 10 * ai + k)), 1.0)
                for k in range(3)]
        means.append(np.mean(reps))
    assert means[0] < means[1] < means[2]


# ---------------------------------------------------------------------------
# Residence times


def test_hysteresis_residence_on_a_designed_path():
    # Commits + at t=0; chatter inside |x| <= 0.5 never flips the label.
    positions = [0.8, 0.3, -0.3, 0.6, -0.8, -0.2, 0.9, -0.9, 0.7, -0.7]
    traj = make_trajectory(positions, step=1.0)
    # Switches at t = 4, 6, 7, 8, 9 -> intervals 2, 1, 1, 1.
    assert mean_residence_time(traj) == pytest.approx(1.25)


def test_residence_time_grows_as_noise_shrinks():
    res = {}
    for d in (0.05, 0.1):
        spec = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=d,
                              dt=0.01, t_total=20_000.0)
        traj = integrate(spec, RngStream(77, int(d * 100)), sample_stride=5)
        res[d] = mean_residence_time(traj)
    assert res[0.05] / res[0.1] > 2.0


def test_residence_time_validation():
    with pytest.raises(ValueError, match="commit"):
        mean_residence_time(make_trajectory(np.zeros(100)))
    quiet = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.0,
                           dt=0.01, t_total=50.0)
    with pytest.raises(ValueError, match="switches"):
        mean_residence_time(integrate(quiet, RngStream(8)))
    with pytest.raises(ValueError):
        mean_residence_time(make_trajectory([1.0, -1.0, 1.0]), threshold=0.0)


# ---------------------------------------------------------------------------
# Noise scan


@pytest.fixture(scope="module")
def hopping_scan():
    base = DoubleWellSpec(amplitude=0.3, omega=1.0, noise_d=0.1,
                          dt=0.01, t_total=100 * TWO_PI)
    return resonance_scan(base, [0.4, 0.05, 0.8, 0.1, 0.2],
                          replicas=4, rng=RngStream(80, 0))


def test_scan_reports_sorted_levels_and_aligned_arrays(hopping_scan):
    curve = hopping_scan
    np.testing.assert_array_equal(curve.noise_levels,
                                  [0.05, 0.1, 0.2, 0.4, 0.8])
    assert curve.snr_db.shape == curve.noise_levels.shape
    assert curve.snr_stderr.shape == curve.noise_levels.shape
    assert np.all(curve.snr_stderr > 0)


def test_scan_peak_is_the_argmax_level(hopping_scan):
    curve = hopping_scan
    best = curve.noise_levels[np.argmax(curve.snr_db)]
    assert curve.peak_d == best


def test_quadrupling_replicas_halves_the_error_bar():
    base = DoubleWellSpec(amplitude=0.3, omega=1.0, noise_d=0.1,
                          dt=0.01, t_total=100 * TWO_PI)
    levels = [0.05, 0.1, 0.2, 0.4, 0.8]
    c4 = resonance_scan(base, levels, replicas=4, rng=RngStream(81, 0))
    c16 = resonance_scan(base, levels, replicas=16, rng=RngStream(81, 1))
    ratio = c16.snr_stderr.mean() / c4.snr_stderr.mean()
    assert 0.35 < ratio < 0.65


def test_scan_without_signal_is_flat_and_peakless():
    base = DoubleWellSpec(amplitude=0.0, omega=1.0, noise_d=0.1,
                          dt=0.01, t_total=100 * TWO_PI)
    curve = resonance_scan(base, [0.05, 0.1, 0.2, 0.4, 0.8],
                           replicas=4, rng=RngStream(75, 0))
    assert np.ptp(curve.snr_db) < 3.0
    assert not curve.interior_peak


def test_scan_validation():
    base = DoubleWellSpec(amplitude=0.3, omega=1.0, noise_d=0.1,
                          dt=0.01, t_total=100 * TWO_PI)
    rng = RngStream(1)
    with pytest.raises(ValueError):
        resonance_scan(base, [0.1, 0.2, 0.4, 1.1], replicas=4, rng=rng)
    with pytest.raises(ValueError):
        resonance_scan(base, [0.1, 0.2, 0.3, 0.4, 0.5], replicas=4, rng=rng)
    with pytest.raises(ValueError):
        resonance_scan(base, [0.1, 0.2, 0.4, 0.8, 1.1], replicas=3, rng=rng)
    with pytest.raises(ValueError):
        resonance_scan(base, [-0.1, 0.2, 0.4, 0.8, 1.1], replicas=4, rng=rng)
    # sqrt(2 * D * dt) = 1000 at D = 5e7 and dt = 0.01: the trust bound.
    with pytest.raises(ValueError, match="kick scale"):
        resonance_scan(base, [0.1, 0.2, 0.4, 0.8, 5e7], replicas=4, rng=rng)


def test_curve_validation():
    with pytest.raises(ValueError):
        SnrCurve(noise_levels=np.array([0.1, 0.2]),
                 snr_db=np.array([1.0, 2.0]),
                 snr_stderr=np.array([0.1, 0.1]),
                 peak_d=0.2, interior_peak=False)
