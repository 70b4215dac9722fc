"""Tests for the lattice random walk and its heat-kernel limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochlab import diffusion
from stochlab.core import RngStream
from stochlab.diffusion import (
    ConvergenceLevel,
    DiffusionField,
    WalkSpec,
    analytic_kernel,
    convergence_scan,
    simulate_walk,
)
from stochlab.quantum import wick_rotate_check
from util import traced_peak


# ---------------------------------------------------------------------------
# Spec and field types


def test_spec_validates_dimension_and_spacings():
    with pytest.raises(ValueError):
        WalkSpec(dim=0, a_s=0.1, a_t=0.01, n_walkers=10, n_steps=5)
    with pytest.raises(ValueError):
        WalkSpec(dim=4, a_s=0.1, a_t=0.01, n_walkers=10, n_steps=5)
    with pytest.raises(ValueError):
        WalkSpec(dim=1, a_s=0.0, a_t=0.01, n_walkers=10, n_steps=5)
    with pytest.raises(ValueError):
        WalkSpec(dim=1, a_s=0.1, a_t=0.01, n_walkers=0, n_steps=5)
    # 3-d site keys fit int64 up to 8 * 4**8 steps, not at 8 * 4**9.
    WalkSpec(dim=3, a_s=0.1, a_t=0.01, n_walkers=1, n_steps=8 * 4**8)
    with pytest.raises(ValueError, match="packed site keys"):
        WalkSpec(dim=3, a_s=0.1, a_t=0.01, n_walkers=1, n_steps=8 * 4**9)
    # The cell volume 2 * a_s**3 underflows to 0.
    with pytest.raises(ValueError, match="cell volume"):
        WalkSpec(dim=3, a_s=1e-110, a_t=1e-221, n_walkers=1, n_steps=1)
    # At a_s = 1e-104 it is subnormal, and one walker's density overflows.
    with pytest.raises(ValueError, match="its reciprocal"):
        WalkSpec(dim=3, a_s=1e-104, a_t=1e-209, n_walkers=1, n_steps=1)


def test_spec_records_scaling_ratio_and_d():
    spec = WalkSpec(dim=2, a_s=0.2, a_t=0.01, n_walkers=1, n_steps=1)
    assert spec.scaling_ratio == pytest.approx(4.0)
    assert spec.d_coeff == pytest.approx(1.0)


def test_field_rejects_bad_normalization():
    with pytest.raises(ValueError):
        DiffusionField(points=np.zeros((1, 1)), masses=np.array([0.5]),
                       time=1.0, d_coeff=1.0, normalization=0.5,
                       cell_volume=0.2)


# ---------------------------------------------------------------------------
# simulate_walk


def test_zero_steps_is_a_delta_at_the_origin():
    spec = WalkSpec(dim=2, a_s=0.1, a_t=0.01, n_walkers=500, n_steps=0)
    field = simulate_walk(spec, RngStream(50, 0))
    assert field.masses.shape == (1,)
    assert field.masses[0] == 1.0
    assert field.points[0].tolist() == [0.0, 0.0]


def test_variance_matches_heat_kernel_moment():
    # r = a_s^2 / a_t = 2 so D = 1; after t = 1 the kernel variance is 2.
    spec = WalkSpec(dim=1, a_s=0.1, a_t=0.005, n_walkers=10**6, n_steps=200)
    field = simulate_walk(spec, RngStream(50, 1))
    mean = field.moment(1)[0]
    variance = field.moment(2)[0] - mean**2
    assert variance == pytest.approx(2.0, abs=0.01)
    assert field.d_coeff == pytest.approx(1.0)
    assert field.time == pytest.approx(1.0)


def test_mean_displacement_vanishes_by_symmetry():
    spec = WalkSpec(dim=1, a_s=0.1, a_t=0.005, n_walkers=10**6, n_steps=200)
    field = simulate_walk(spec, RngStream(50, 2))
    mean = field.moment(1)[0]
    variance = field.moment(2)[0] - mean**2
    std_error = math.sqrt(variance / spec.n_walkers)
    assert abs(mean) < 3.0 * std_error


def test_probability_mass_is_conserved_exactly():
    spec = WalkSpec(dim=2, a_s=0.5, a_t=0.125, n_walkers=20_000, n_steps=64)
    field = simulate_walk(spec, RngStream(50, 3))
    assert abs(field.normalization - 1.0) <= 1e-12
    counts = field.masses * spec.n_walkers
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
    assert int(np.round(counts).sum()) == spec.n_walkers


def test_per_axis_variance_is_combinatorially_exact():
    # Each step moves a uniformly chosen axis, so per-axis variance after n
    # steps is n * a_s^2 / dim; the error bar comes from the sample moments.
    spec = WalkSpec(dim=3, a_s=0.2, a_t=0.01, n_walkers=200_000, n_steps=90)
    field = simulate_walk(spec, RngStream(50, 4))
    expected = spec.n_steps * spec.a_s**2 / spec.dim
    m2 = field.moment(2)
    m4 = field.moment(4)
    for axis in range(3):
        variance = m2[axis]
        se = math.sqrt((m4[axis] - variance**2) / spec.n_walkers)
        assert abs(variance - expected) < 3.0 * se


def test_walkers_occupy_the_parity_sublattice():
    spec = WalkSpec(dim=2, a_s=0.5, a_t=0.125, n_walkers=5000, n_steps=11)
    field = simulate_walk(spec, RngStream(50, 5))
    coords = np.round(field.points / spec.a_s).astype(int)
    assert np.all((coords.sum(axis=1) - spec.n_steps) % 2 == 0)
    assert field.cell_volume == pytest.approx(2 * 0.5**2)


def test_same_stream_reproduces_the_field():
    spec = WalkSpec(dim=2, a_s=0.5, a_t=0.125, n_walkers=3000, n_steps=30)
    a = simulate_walk(spec, RngStream(51, 7))
    b = simulate_walk(spec, RngStream(51, 7))
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.masses, b.masses)
    c = simulate_walk(spec, RngStream(51, 8))
    assert not (a.masses.shape == c.masses.shape
                and np.array_equal(a.masses, c.masses))


def _walk_and_stream_end(spec, chunk, monkeypatch):
    monkeypatch.setattr(diffusion, "_CHUNK", chunk)
    rng = RngStream(55, spec.dim)
    field = simulate_walk(spec, rng)
    # The next draws mark where the walk left the stream.
    return field, rng.gen.random(4).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1000, 4096])
def test_chunk_size_changes_no_draw_and_no_site(dim, chunk, monkeypatch):
    # 10,001 walkers are a multiple of neither chunk, so the last is short.
    spec = WalkSpec(dim=dim, a_s=0.5, a_t=0.25 / (2 * dim), n_walkers=10_001,
                    n_steps=24)
    whole, whole_end = _walk_and_stream_end(spec, 1 << 30, monkeypatch)
    field, end = _walk_and_stream_end(spec, chunk, monkeypatch)
    assert field.points.tobytes() == whole.points.tobytes()
    assert field.masses.tobytes() == whole.masses.tobytes()
    assert end == whole_end
    coords = np.round(field.points / spec.a_s).astype(np.int64)
    keys = diffusion._encode(coords, spec.n_steps, dim)
    assert np.all(np.diff(keys) > 0)


def test_walk_holds_one_chunk_of_draws():
    spec = WalkSpec(dim=2, a_s=0.5, a_t=0.0625, n_walkers=10**6, n_steps=8)
    field, peak = traced_peak(simulate_walk, spec, RngStream(55, 9))
    assert field.masses.size < 100
    # int64 values per walker of one 65,536-walker chunk at dim = 2: a
    # chunk's 4 direction counts and 2 coordinate differences stay bound
    # while the next chunk's 4 counts are drawn, so 10 are alive at once;
    # _encode's running key and 2 temporaries beside the 6 make only 9.
    # The bound allows 12, and the int64 arrays over under 100 sites add
    # little.  Drawing all 10**6 walkers in one chunk would take 15 times
    # this bound.
    assert peak <= 12 * 8 * (1 << 16)


@settings(deadline=None, max_examples=25)
@given(dim=st.integers(1, 3), n_steps=st.integers(0, 16),
       n_walkers=st.integers(1, 400))
def test_any_walk_conserves_mass_and_parity(dim, n_steps, n_walkers):
    spec = WalkSpec(dim=dim, a_s=1.0, a_t=2.0 / (2 * dim) / 1.0,
                    n_walkers=n_walkers, n_steps=n_steps)
    field = simulate_walk(spec, RngStream(52, n_steps * 7 + dim))
    assert abs(field.normalization - 1.0) <= 1e-12
    assert np.all(field.masses > 0)
    coords = np.round(field.points / spec.a_s).astype(int)
    assert np.all((coords.sum(axis=1) - n_steps) % 2 == 0)


# ---------------------------------------------------------------------------
# analytic_kernel


def test_kernel_peak_value():
    peak = analytic_kernel(1, 1.0, 1.0, np.array([0.0]))
    assert peak[0] == pytest.approx((4 * math.pi) ** -0.5)
    assert peak[0] == pytest.approx(0.28209, abs=1e-5)


def test_kernel_integrates_to_one():
    xs = np.linspace(-12, 12, 20001)
    density = analytic_kernel(1, 1.0, 1.0, xs)
    assert np.trapezoid(density, xs) == pytest.approx(1.0, abs=1e-6)

    grid = np.linspace(-10, 10, 801)
    xx, yy = np.meshgrid(grid, grid)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    density2 = analytic_kernel(2, 0.5, 1.0, pts)
    h = grid[1] - grid[0]
    assert density2.sum() * h * h == pytest.approx(1.0, abs=1e-6)


def test_kernel_variance_is_2dt_per_axis():
    xs = np.linspace(-30, 30, 60001)
    for d_coeff, t in [(1.0, 1.0), (0.5, 3.0)]:
        density = analytic_kernel(1, d_coeff, t, xs)
        variance = np.trapezoid(xs**2 * density, xs)
        assert variance == pytest.approx(2 * d_coeff * t, rel=1e-6)


def test_kernel_validates_arguments():
    with pytest.raises(ValueError):
        analytic_kernel(1, 1.0, 0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        analytic_kernel(1, -1.0, 1.0, np.array([0.0]))
    with pytest.raises(ValueError):
        analytic_kernel(2, 1.0, 1.0, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="peak .* overflows"):
        analytic_kernel(3, 1.0, 1e-220, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# convergence_scan


@pytest.fixture(scope="module")
def scan_result():
    base = WalkSpec(dim=1, a_s=0.5, a_t=0.125, n_walkers=10**7, n_steps=8)
    return convergence_scan(base, refinements=2, rng=RngStream(53, 0))


def test_scan_errors_decrease_monotonically(scan_result):
    errors = [level.sup_error for level in scan_result]
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


def test_scan_coarsest_error_at_least_twice_finest(scan_result):
    assert scan_result[0].sup_error >= 2.0 * scan_result[-1].sup_error


def test_scan_holds_the_scaling_ratio_exactly(scan_result):
    for level in scan_result:
        assert level.a_s**2 / level.a_t == pytest.approx(2.0, rel=1e-12)


def test_scan_keeps_physical_time_fixed(scan_result):
    durations = [level.n_steps * level.a_t for level in scan_result]
    assert durations == pytest.approx([1.0, 1.0, 1.0])


def test_scan_is_not_sampling_limited_at_these_sizes(scan_result):
    assert not any(level.sampling_limited for level in scan_result)


def test_scan_flags_sampling_limit_when_starved_of_walkers():
    base = WalkSpec(dim=1, a_s=0.25, a_t=0.03125, n_walkers=400, n_steps=32)
    levels = convergence_scan(base, refinements=2, rng=RngStream(53, 1))
    assert levels[-1].sampling_limited


def test_scan_flag_marks_the_stalled_level_at_moderate_sizes():
    # At 2e6 walkers the finest level stops improving at the expected
    # quarter-per-refinement rate; the advisory flag should say why.
    base = WalkSpec(dim=1, a_s=0.5, a_t=0.125, n_walkers=2 * 10**6, n_steps=8)
    levels = convergence_scan(base, refinements=2, rng=RngStream(53, 2))
    assert not levels[0].sampling_limited
    assert levels[-1].sampling_limited


def test_scan_validates_arguments():
    good = WalkSpec(dim=1, a_s=0.5, a_t=0.125, n_walkers=100, n_steps=8)
    with pytest.raises(ValueError):
        convergence_scan(good, refinements=1, rng=RngStream(1))
    bad_ratio = WalkSpec(dim=1, a_s=0.5, a_t=0.1, n_walkers=100, n_steps=8)
    with pytest.raises(ValueError):
        convergence_scan(bad_ratio, refinements=2, rng=RngStream(1))


def test_packed_key_range_is_checked_before_any_level_runs(monkeypatch):
    # The ninth halving of a_s takes 8 * 4**9 steps: its keys overflow.
    def unexpected(spec, rng):
        raise AssertionError("a level was simulated")

    monkeypatch.setattr(diffusion, "simulate_walk", unexpected)
    base = WalkSpec(dim=3, a_s=0.5, a_t=0.5**2 / 6, n_walkers=10, n_steps=8)
    with pytest.raises(ValueError, match="packed site keys"):
        convergence_scan(base, refinements=9, rng=RngStream(1))


# ---------------------------------------------------------------------------
# Cross-module consistency


def test_walk_width_matches_wick_rotated_diffusion_width():
    # The quantum module's imaginary-time route and this walker route must
    # agree on the spreading width for D = hbar / 2m.
    t = 0.5
    spec = WalkSpec(dim=1, a_s=0.05, a_t=0.00125, n_walkers=10**7,
                    n_steps=400)
    field = simulate_walk(spec, RngStream(54, 0))
    mean = field.moment(1)[0]
    walk_width = math.sqrt(field.moment(2)[0] - mean**2)
    check = wick_rotate_check(sigma0=0.02, d_coeff=1.0, t=t)
    assert abs(walk_width - check.diffusion_width) < 1e-3
