"""Tests for amplitude arithmetic, wavefunction evolution, decay, and spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stochlab.core import RngStream
from stochlab.quantum import (
    ComplexAmplitude,
    ConvergenceError,
    DecayModel,
    Grid1D,
    WaveState,
    decay_sample,
    double_slit_pattern,
    evolve_free,
    spectrum_gaps,
    superpose,
    uncertainty_product,
    wick_rotate_check,
)
from util import count_local_maxima, crank_nicolson_free_evolution, random_smooth_state

amplitudes = st.builds(
    ComplexAmplitude,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


class TestSuperpose:
    def test_destructive_cancellation(self):
        out = superpose(ComplexAmplitude(0.5, 0.0), ComplexAmplitude(-0.5, 0.0))
        assert out.p_quantum == 0.0
        assert out.p_classical == 0.5
        assert out.interference == -0.5

    def test_constructive_doubling(self):
        out = superpose(ComplexAmplitude(0.5, 0.0), ComplexAmplitude(0.5, 0.0))
        assert out.p_quantum == 1.0
        assert out.p_classical == 0.5

    def test_orthogonal_phases_do_not_interfere(self):
        out = superpose(ComplexAmplitude(0.0, 0.6), ComplexAmplitude(0.8, 0.0))
        assert out.interference == 0.0
        assert out.p_quantum == out.p_classical == pytest.approx(1.0)

    @given(amplitudes, amplitudes)
    def test_addition_rule_identity_is_exact(self, a, b):
        out = superpose(a, b)
        assert out.p_quantum == out.p_classical + out.interference
        assert out.p_quantum == pytest.approx(out.amplitude.probability, abs=1e-9)

    @given(amplitudes, amplitudes)
    def test_interference_respects_cauchy_schwarz(self, a, b):
        out = superpose(a, b)
        bound = 2.0 * math.sqrt(a.probability * b.probability)
        assert abs(out.interference) <= bound + 1e-9


class TestDoubleSlit:
    WAVELENGTH = 0.05
    SEPARATION = 1.0
    DISTANCE = 100.0

    def fringe(self):
        # Screen spacing of adjacent maxima: wavelength * L / d.
        return self.WAVELENGTH * self.DISTANCE / self.SEPARATION

    def test_amplitude_center_is_global_maximum(self):
        xs = np.linspace(-3 * self.fringe(), 3 * self.fringe(), 1201)
        pattern = double_slit_pattern(self.WAVELENGTH, self.SEPARATION,
                                      self.DISTANCE, xs, mode="amplitude")
        center = pattern[len(xs) // 2]
        assert center == pytest.approx(pattern.max())
        first_minimum = double_slit_pattern(
            self.WAVELENGTH, self.SEPARATION, self.DISTANCE,
            np.array([self.fringe() / 2]), mode="amplitude")[0]
        assert center / max(first_minimum, 1e-300) > 1e4

    def test_amplitude_minima_are_dark(self):
        minima_xs = (np.arange(3) + 0.5) * self.fringe()
        pattern = double_slit_pattern(self.WAVELENGTH, self.SEPARATION,
                                      self.DISTANCE, minima_xs, mode="amplitude")
        center = double_slit_pattern(self.WAVELENGTH, self.SEPARATION,
                                     self.DISTANCE, np.array([0.0]),
                                     mode="amplitude")[0]
        assert np.all(pattern < 1e-6 * center)

    def test_amplitude_mode_shows_many_fringes(self):
        xs = np.linspace(-2.6 * self.fringe(), 2.6 * self.fringe(), 2001)
        pattern = double_slit_pattern(self.WAVELENGTH, self.SEPARATION,
                                      self.DISTANCE, xs, mode="amplitude")
        assert count_local_maxima(pattern) >= 3

    def test_classical_mode_has_single_maximum(self):
        for half_range in (2.0, 20.0, 200.0):
            xs = np.linspace(-half_range, half_range, 1001)
            pattern = double_slit_pattern(self.WAVELENGTH, self.SEPARATION,
                                          self.DISTANCE, xs, mode="classical")
            assert count_local_maxima(pattern) == 1

    def test_geometry_must_be_positive(self):
        for bad in [(-1, 1, 1), (1, 0, 1), (1, 1, -2)]:
            with pytest.raises(ValueError):
                double_slit_pattern(*bad, np.array([0.0]), mode="amplitude")
        with pytest.raises(ValueError):
            double_slit_pattern(1, 1, 1, np.array([0.0]), mode="intense")


@pytest.fixture(scope="module")
def result():
    model = DecayModel(rate_lambda=1.0, n_atoms=10**6)
    return decay_sample(model, RngStream(31, 4), t_max=6.0, bins=24)


class TestDecaySample:
    def test_mean_lifetime(self, result):
        assert result.mean_lifetime == pytest.approx(1.0, abs=0.003)

    def test_fitted_rate(self, result):
        assert result.fitted_rate == pytest.approx(1.0, abs=0.01)

    def test_survival_is_monotone_nonincreasing(self, result):
        assert np.all(np.diff(result.survival) <= 0)

    def test_memorylessness_of_survivors(self, result):
        survivors = result.lifetimes[result.lifetimes > 1.0]
        assert (survivors - 1.0).mean() == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayModel(rate_lambda=0.0, n_atoms=10)
        with pytest.raises(ValueError):
            DecayModel(rate_lambda=1.0, n_atoms=0)
        with pytest.raises(ValueError):
            decay_sample(DecayModel(1.0, 10), RngStream(0), t_max=-1.0, bins=4)
        with pytest.raises(ValueError):
            decay_sample(DecayModel(1.0, 10), RngStream(0), t_max=1.0, bins=1)

    def test_lifetimes_that_can_sum_past_a_double_are_rejected(self):
        with pytest.raises(ValueError, match="raise rate_lambda"):
            DecayModel(rate_lambda=1e-310, n_atoms=1)
        with pytest.raises(ValueError, match="raise rate_lambda"):
            DecayModel(rate_lambda=1e-305, n_atoms=10_000)
        model = DecayModel(rate_lambda=1e-305, n_atoms=10)
        result = decay_sample(model, RngStream(0), t_max=5.0, bins=50)
        assert np.isfinite(result.lifetimes).all()
        assert math.isfinite(result.mean_lifetime)


GRID = Grid1D(-20.0, 20.0, 1024)


class TestWaveState:
    def test_construction_normalizes(self):
        state = WaveState.from_samples(GRID, np.exp(-GRID.points**2))
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_values_rejected(self):
        with pytest.raises(ValueError):
            WaveState(grid=GRID, values=np.ones(GRID.n_points, dtype=complex))

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            WaveState.from_samples(GRID, np.zeros(GRID.n_points))

    def test_values_are_read_only(self):
        state = WaveState.gaussian_packet(GRID)
        with pytest.raises(ValueError):
            state.values[0] = 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 16)


class TestUncertaintyProduct:
    def test_gaussian_is_minimum_uncertainty(self):
        state = WaveState.gaussian_packet(GRID, sigma0=1.0)
        out = uncertainty_product(state)
        assert out.dx == pytest.approx(1.0, abs=1e-3)
        assert out.product == pytest.approx(0.5, abs=1e-3)

    def test_scaling_symmetry(self):
        narrow = uncertainty_product(WaveState.gaussian_packet(GRID, sigma0=1.0))
        wide = uncertainty_product(WaveState.gaussian_packet(GRID, sigma0=2.0))
        assert wide.dx == pytest.approx(2.0 * narrow.dx, rel=1e-3)
        assert wide.dp == pytest.approx(0.5 * narrow.dp, rel=1e-3)
        assert wide.product == pytest.approx(0.5, abs=1e-3)

    def test_two_humps_exceed_the_bound(self):
        x = GRID.points
        raw = np.exp(-((x - 3.0) ** 2) / 4.0) + np.exp(-((x + 3.0) ** 2) / 4.0)
        out = uncertainty_product(WaveState.from_samples(GRID, raw))
        assert out.product > 0.5

    def test_random_states_respect_the_bound(self):
        rng = RngStream(77, 2)
        for k in range(200):
            state = random_smooth_state(GRID, rng.substream(k))
            out = uncertainty_product(state)
            assert out.product >= 0.5 - 1e-3

    def test_hbar_scales_the_bound(self):
        state = WaveState.gaussian_packet(GRID, sigma0=1.0, hbar=3.0)
        out = uncertainty_product(state)
        assert out.product == pytest.approx(1.5, rel=1e-3)


class TestEvolveFree:
    def test_zero_time_is_identity(self):
        state = WaveState.gaussian_packet(GRID, sigma0=1.0)
        evolved = evolve_free(state, 0.0)
        assert np.max(np.abs(evolved.values - state.values)) < 1e-12

    def test_gaussian_spreading_matches_analytic_width(self):
        state = WaveState.gaussian_packet(GRID, sigma0=1.0)
        evolved = evolve_free(state, 2.0)
        out = uncertainty_product(evolved)
        assert out.dx == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_norm_conserved_for_random_states_and_times(self):
        rng = RngStream(123, 9)
        for k in range(1000):
            state = random_smooth_state(GRID, rng.substream(k))
            t = rng.gen.uniform(0.0, 10.0)
            assert abs(evolve_free(state, t).norm_squared() - 1.0) < 1e-9

    def test_agrees_with_finite_difference_oracle(self):
        grid = Grid1D(-16.0, 16.0, 512)
        state = WaveState.gaussian_packet(grid, sigma0=1.0)
        spectral = evolve_free(state, 1.0)
        oracle = crank_nicolson_free_evolution(state, 1.0, steps=2000)
        # Oracle has O(dx^2) dispersion error; agreement is loose but telling.
        assert np.max(np.abs(spectral.values - oracle)) < 5e-3

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve_free(WaveState.gaussian_packet(GRID), -0.1)


class TestWickRotation:
    def test_identity_residual_is_tiny(self):
        out = wick_rotate_check(sigma0=1.0, d_coeff=0.5, t=0.5)
        assert out.identity_residual < 1e-6

    def test_widths_match_analytic_forms(self):
        sigma0, d, t = 1.0, 0.5, 0.5
        out = wick_rotate_check(sigma0, d, t)
        assert out.quantum_width == pytest.approx(math.sqrt(sigma0**2 + d * t), rel=1e-3)
        assert out.diffusion_width == pytest.approx(math.sqrt(sigma0**2 + 2 * d * t), rel=1e-3)

    def test_point_like_source_spreads_to_2dt(self):
        out = wick_rotate_check(sigma0=0.02, d_coeff=0.5, t=1.0)
        assert out.diffusion_width**2 == pytest.approx(1.0, abs=1e-2)

    def test_short_time_continuity(self):
        out = wick_rotate_check(sigma0=1.0, d_coeff=0.5, t=1e-4)
        assert out.quantum_width == pytest.approx(1.0, abs=1e-3)
        assert out.diffusion_width == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            wick_rotate_check(sigma0=-1.0, d_coeff=0.5, t=1.0)
        with pytest.raises(ValueError):
            wick_rotate_check(sigma0=1.0, d_coeff=0.0, t=1.0)
        with pytest.raises(ValueError):
            wick_rotate_check(sigma0=1.0, d_coeff=0.5, t=0.0)


class TestSpectrumGaps:
    def test_harmonic_ladder(self):
        out = spectrum_gaps(lambda x: 0.5 * x**2, Grid1D(-8.0, 8.0, 1000),
                            n_levels=6)
        assert out.energies[0] == pytest.approx(0.5, abs=0.005)
        assert out.energies[1] == pytest.approx(1.5, abs=0.01)
        assert np.allclose(out.gaps, 1.0, atol=0.01)

    def test_box_levels_scale_as_n_squared(self):
        out = spectrum_gaps(lambda x: np.zeros_like(x), Grid1D(0.0, 1.0, 2000),
                            n_levels=3)
        assert out.energies[1] / out.energies[0] == pytest.approx(4.0, rel=0.02)

    def test_confining_gap_is_resolution_stable(self):
        coarse = spectrum_gaps(lambda x: 0.5 * x**2, Grid1D(-8.0, 8.0, 800),
                               n_levels=4)
        fine = spectrum_gaps(lambda x: 0.5 * x**2, Grid1D(-8.0, 8.0, 1600),
                             n_levels=4)
        assert coarse.gaps.min() > 0.9
        assert fine.gaps.min() > 0.9

    def test_commuting_mode_band_gaps_vanish_with_refinement(self):
        dx = 0.1
        max_gaps = []
        for n in (64, 128, 256):
            grid = Grid1D(0.0, n * dx, n)
            out = spectrum_gaps(lambda p: np.zeros_like(p), grid, n_levels=n,
                                commuting_mode=True)
            max_gaps.append(out.gaps.max())
        assert max_gaps[0] / max_gaps[1] == pytest.approx(2.0, rel=0.1)
        assert max_gaps[1] / max_gaps[2] == pytest.approx(2.0, rel=0.1)

    def test_commuting_mode_includes_potential_of_momentum(self):
        grid = Grid1D(0.0, 12.8, 128)
        out = spectrum_gaps(lambda p: 0.1 * p**2, grid, n_levels=5,
                            commuting_mode=True)
        # E(p) = p^2/2 + 0.1 p^2 stays a pure band of the momentum lattice.
        p = np.sort(2.0 * np.pi * np.fft.fftfreq(128, d=0.1))
        expected = np.sort(0.6 * p**2)[:5]
        assert np.allclose(out.energies, expected)

    def test_too_coarse_grid_raises(self):
        with pytest.raises(ConvergenceError):
            spectrum_gaps(lambda x: 0.5 * x**2, Grid1D(-8.0, 8.0, 24), n_levels=6)

    def test_validation(self):
        with pytest.raises(ValueError):
            spectrum_gaps(lambda x: x, Grid1D(-1.0, 1.0, 100), n_levels=1)
        with pytest.raises(ValueError):
            spectrum_gaps(lambda x: x, Grid1D(-1.0, 1.0, 8), n_levels=10)
