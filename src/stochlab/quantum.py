"""Amplitude arithmetic, 1-d wavefunctions, decay sampling, and lattice spectra.

Everything here is one-dimensional on purpose: superposition, interference
patterns, uncertainty products, exact free evolution, the imaginary-time map
onto diffusion, and discrete spectra are all quantitatively testable without
a 2-d PDE solver.  Units are hbar = mass = 1 throughout.

Wavefunctions live on a uniform periodic grid (points x_min + i*dx with
dx = (x_max - x_min)/n_points), which makes spectral evolution exactly
unitary.  The bound-state solver uses Dirichlet finite differences on the
same extent instead; its sampling convention is documented on the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from stochlab.core import RngStream


class ConvergenceError(Exception):
    """Raised when a discretized computation fails its self-consistency check."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-d spatial grid on [x_min, x_max) with n_points samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        # Kinetic terms divide by dx**2 or multiply by k**2.  Products, unlike
        # ``**``, overflow to inf instead of raising OverflowError; the
        # wavenumber is formed only once dx * dx is known to be positive.
        dx = self.dx
        if not (0.0 < dx * dx < math.inf
                and (math.pi / dx) * (math.pi / dx) < math.inf):
            raise ValueError("the squared spacing dx * dx or the squared "
                             "largest wavenumber (pi / dx)**2 leaves the "
                             "double range")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers of the discrete Fourier basis (unsorted FFT order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class ComplexAmplitude:
    """A probability amplitude; its squared magnitude is a probability."""

    re: float
    im: float = 0.0

    @property
    def probability(self) -> float:
        return self.re**2 + self.im**2

    def __add__(self, other: "ComplexAmplitude") -> "ComplexAmplitude":
        return ComplexAmplitude(self.re + other.re, self.im + other.im)


@dataclass(frozen=True)
class SuperposeResult:
    amplitude: ComplexAmplitude
    p_quantum: float
    p_classical: float
    interference: float


@dataclass(frozen=True)
class WaveState:
    """A normalized wavefunction sampled on a periodic grid.

    Immutable: evolution returns a new state.  Construction enforces
    sum(|psi|^2) * dx = 1 to 1e-9; use :meth:`from_samples` to normalize
    raw values first.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid size")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if abs(self.norm_squared() - 1.0) > 1e-9:
            raise ValueError(
                f"state is not normalized: sum |psi|^2 dx = {self.norm_squared()!r}")

    def norm_squared(self) -> float:
        return float((np.abs(self.values) ** 2).sum() * self.grid.dx)

    def position_density(self) -> np.ndarray:
        """|psi|^2 as a probability mass per grid cell (sums to 1)."""
        return (np.abs(self.values) ** 2) * self.grid.dx

    @classmethod
    def from_samples(cls, grid: Grid1D, raw_values) -> "WaveState":
        raw = np.asarray(raw_values, dtype=complex)
        norm = math.sqrt(float((np.abs(raw) ** 2).sum() * grid.dx))
        if norm == 0.0:
            raise ValueError("cannot normalize an identically zero state")
        return cls(grid=grid, values=raw / norm)

    @classmethod
    def gaussian_packet(cls, grid: Grid1D, sigma0: float = 1.0) -> "WaveState":
        """Minimum-uncertainty packet at rest at x = 0: position std sigma0,
        momentum std 1/(2 sigma0)."""
        _check_width(sigma0)
        # A complex exp: a real one rounds differently.
        raw = np.exp(-(grid.points**2) / (4.0 * sigma0**2) + 0j)
        return cls.from_samples(grid, raw)


def _check_width(sigma0: float) -> None:
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if not 0.0 < sigma0 * sigma0 < math.inf:
        raise ValueError("sigma0**2 overflows or underflows a double")


@dataclass(frozen=True)
class DecayModel:
    """Exponential decay with a fixed rate (mean lifetime 1/rate_lambda)."""

    rate_lambda: float
    n_atoms: int

    def __post_init__(self) -> None:
        if self.rate_lambda <= 0:
            raise ValueError("rate_lambda must be positive")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be at least 1")
        # The mean lifetime sums n_atoms draws of 1/rate_lambda times a
        # standard exponential, which numpy draws below 7.7 + 53 ln 2 < 45.
        if math.isinf(64.0 * self.n_atoms / self.rate_lambda):
            raise ValueError("n_atoms lifetimes of mean 1/rate_lambda can "
                             "sum past the largest double; raise rate_lambda")


@dataclass(frozen=True)
class DecayResult:
    times: np.ndarray          # right bin edges
    survival: np.ndarray       # fraction of atoms alive past each edge
    fitted_rate: float         # from least squares on log survival
    mean_lifetime: float
    lifetimes: np.ndarray      # raw samples, for conditional checks


@dataclass(frozen=True)
class UncertaintyResult:
    dx: float
    dp: float
    product: float


@dataclass(frozen=True)
class WickRotation:
    quantum_width: float       # std of |psi|^2 after imaginary-time evolution
    diffusion_width: float     # std of the heat-evolved probability density
    identity_residual: float   # relative sup-norm gap between the two routes


@dataclass(frozen=True)
class SpectrumResult:
    energies: np.ndarray       # lowest levels, ascending
    gaps: np.ndarray           # energies[i+1] - energies[i]
    states: np.ndarray | None = None  # columns: eigenvectors on the interior grid
    grid_points: np.ndarray | None = None  # interior sampling the states live on


def superpose(a: ComplexAmplitude, b: ComplexAmplitude) -> SuperposeResult:
    """Add two amplitudes and split the outcome into the two addition rules.

    p_quantum is |a+b|^2, p_classical is |a|^2 + |b|^2, and the cross term
    2 Re(conj(a) b) is returned separately.  p_quantum is computed as
    p_classical + interference, so that identity holds to the last bit.
    """
    interference = 2.0 * (a.re * b.re + a.im * b.im)
    p_classical = a.probability + b.probability
    return SuperposeResult(
        amplitude=a + b,
        p_quantum=p_classical + interference,
        p_classical=p_classical,
        interference=interference,
    )


def double_slit_pattern(wavelength: float, slit_separation: float,
                        screen_distance: float, detector_xs,
                        mode: str) -> np.ndarray:
    """Two-source screen pattern, with amplitudes or with probabilities.

    Far-field model (screen_distance >> slit_separation assumed): sources sit
    at +/- slit_separation/2 and path lengths are expanded to quadratic order,
    so the path difference at screen position x is exactly
    slit_separation * x / screen_distance.

    "amplitude" sums unit phasors and squares: zeros occur wherever the path
    difference is a half-integer number of wavelengths.  "classical" sums the
    two single-slit intensities, each with an inverse-square-law envelope
    L^2 / (L^2 + (x -+ d/2)^2); in the far field the sum has a single maximum.
    """
    if wavelength <= 0 or slit_separation <= 0 or screen_distance <= 0:
        raise ValueError("wavelength, slit_separation, and screen_distance must be positive")
    x = np.asarray(detector_xs, dtype=float)
    half = slit_separation / 2.0
    if mode == "amplitude":
        k = 2.0 * np.pi / wavelength
        phase_1 = k * (x - half) ** 2 / (2.0 * screen_distance)
        phase_2 = k * (x + half) ** 2 / (2.0 * screen_distance)
        total = np.exp(1j * phase_1) + np.exp(1j * phase_2)
        return np.abs(total) ** 2
    if mode == "classical":
        l2 = screen_distance**2
        return l2 / (l2 + (x - half) ** 2) + l2 / (l2 + (x + half) ** 2)
    raise ValueError(f"mode must be 'amplitude' or 'classical', got {mode!r}")


def _check_edges(t_max: float, bins: int) -> None:
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if bins < 2:
        raise ValueError("need at least 2 bins")
    # The rate fit scales its time column by the fitted edges' root sum of
    # squares, and the first two edges are always fitted.  A product, unlike
    # ``**``, gives inf instead of raising OverflowError.
    edge = t_max * 2 / bins
    square = edge * edge
    if square == 0.0:
        raise ValueError("the bin edges square to zero in a double; "
                         "increase t_max")
    if not math.isfinite(square):
        raise ValueError("the bin edges' squares overflow a double; "
                         "reduce t_max")


def decay_sample(model: DecayModel, rng: RngStream, t_max: float,
                 bins: int) -> DecayResult:
    """Sample exponential lifetimes and fit the decay rate from the survival curve.

    Survival is evaluated at the right edges t_i = i * t_max / bins; the rate
    comes from least squares on log survival over the bins still populated.
    """
    _check_edges(t_max, bins)
    lifetimes = rng.gen.exponential(1.0 / model.rate_lambda, size=model.n_atoms)
    times = t_max * np.arange(1, bins + 1) / bins
    ordered = np.sort(lifetimes)
    alive = model.n_atoms - np.searchsorted(ordered, times, side="right")
    survival = alive / model.n_atoms
    populated = survival > 0
    if populated.sum() < 2:
        raise ValueError("survival curve empties too quickly to fit; reduce t_max")
    if survival[-1] == 1.0:
        raise ValueError("no atom decays within t_max, so the survival curve "
                         "never falls; increase t_max")
    slope = np.polyfit(times[populated], np.log(survival[populated]), 1)[0]
    return DecayResult(
        times=times,
        survival=survival,
        fitted_rate=float(-slope),
        mean_lifetime=float(lifetimes.mean()),
        lifetimes=lifetimes,
    )


def uncertainty_product(state: WaveState) -> UncertaintyResult:
    """Position and momentum spreads of a normalized state, and their product.

    dx is the root of the variance of the position-space density |psi|^2;
    dp is computed from the second moment of the discrete momentum-space
    density |FFT(psi)|^2 at p = k.
    """
    x = state.grid.points
    rho = state.position_density()
    mean_x = float(rho @ x)
    var_x = float(rho @ (x - mean_x) ** 2)

    phi = np.fft.fft(state.values)
    weights = np.abs(phi) ** 2
    weights /= weights.sum()
    p = state.grid.wavenumbers
    mean_p = float(weights @ p)
    var_p = float(weights @ (p - mean_p) ** 2)

    dx = math.sqrt(max(var_x, 0.0))
    dp = math.sqrt(max(var_p, 0.0))
    return UncertaintyResult(dx=dx, dp=dp, product=dx * dp)


def evolve_free(state: WaveState, t: float) -> WaveState:
    """Exact free evolution by spectral phase multiplication.

    Each Fourier mode picks up exp(-i k^2 t / 2); the phases have
    unit modulus, so the norm is conserved to rounding.  The grid must be wide
    enough that negligible probability reaches the periodic boundary over the
    evolution horizon — that is the caller's (documented) responsibility.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = state.grid.wavenumbers
    phases = np.exp(-1j * k**2 * t / 2.0)
    evolved = np.fft.ifft(np.fft.fft(state.values) * phases)
    return WaveState(grid=state.grid, values=evolved)


def wick_rotate_check(sigma0: float, d_coeff: float, t: float) -> WickRotation:
    """Check the imaginary-time map between wave evolution and diffusion.

    Route A evolves a width-sigma0 Gaussian by the spectral factor
    exp(-d_coeff k^2 t) — the t -> -i t continuation of free evolution
    exp(-i k^2 t / 2), with its 1/2 set to d_coeff.  Route B convolves the same
    initial function with the analytic heat kernel at diffusion constant
    d_coeff by direct quadrature.  The two must agree pointwise; the relative
    sup-norm gap is returned as identity_residual.

    Widths reported: quantum_width is the std of the normalized |psi|^2 after
    route A (sqrt(sigma0^2 + d_coeff * t) analytically); diffusion_width is
    the std of the heat-evolved probability density |psi_0|^2
    (sqrt(sigma0^2 + 2 d_coeff * t)); both tend to sigma0 as t -> 0.
    """
    # Imported here, so that the CLI's quantum experiments load this module only.
    from stochlab.diffusion import analytic_kernel

    if sigma0 <= 0 or d_coeff <= 0 or t <= 0:
        raise ValueError("sigma0, d_coeff, and t must all be positive")

    # Grid wide enough for the spread density, fine enough for the kernel.
    spread = math.sqrt(sigma0**2 + 2.0 * d_coeff * t)
    half_width = 8.0 * spread
    finest = min(sigma0, math.sqrt(2.0 * d_coeff * t))
    n = int(2 ** math.ceil(math.log2(max(512, 16 * half_width / finest))))
    n = min(n, 1 << 15)
    grid = Grid1D(-half_width, half_width, n)
    x = grid.points
    dx = grid.dx

    psi0 = np.exp(-(x**2) / (4.0 * sigma0**2))
    psi0 /= math.sqrt(float((psi0**2).sum() * dx))

    # Route A: spectral imaginary-time evolution (1/2 -> d_coeff).
    k = grid.wavenumbers
    evolved_a = np.fft.ifft(np.fft.fft(psi0) * np.exp(-d_coeff * k**2 * t)).real

    # Route B: direct quadrature convolution with the analytic heat kernel.
    # Odd-length centered kernel keeps np.convolve(mode="same") aligned.
    offsets = dx * np.arange(-(n // 2 - 1), n // 2)
    kernel = analytic_kernel(1, d_coeff, t, offsets)
    evolved_b = np.convolve(psi0, kernel, mode="same") * dx

    residual = float(np.max(np.abs(evolved_a - evolved_b)) / np.max(np.abs(evolved_b)))

    density_a = evolved_a**2
    density_a /= density_a.sum()
    quantum_width = math.sqrt(float(density_a @ x**2) - float(density_a @ x) ** 2)

    p0 = psi0**2
    density_b = np.convolve(p0, kernel, mode="same") * dx
    density_b /= density_b.sum()
    diffusion_width = math.sqrt(float(density_b @ x**2) - float(density_b @ x) ** 2)

    return WickRotation(quantum_width=quantum_width,
                        diffusion_width=diffusion_width,
                        identity_residual=residual)


def _check_levels(n_levels: int, n_points: int) -> None:
    if not 2 <= n_levels <= n_points:
        raise ValueError("n_levels must lie in [2, n_points]")


def spectrum_gaps(potential: Callable[[np.ndarray], np.ndarray], grid: Grid1D,
                  n_levels: int, commuting_mode: bool = False,
                  return_states: bool = False) -> SpectrumResult:
    """Lowest eigenvalues and level gaps of H = p^2/2 + V.

    Default mode discretizes H with Dirichlet finite differences on the
    interior sampling x_min + j * h, h = (x_max - x_min)/(n_points + 1),
    j = 1..n_points, and verifies convergence by re-solving on a doubled
    grid: if any of the requested gaps moves by more than 1%, the grid is
    too coarse and ConvergenceError is raised.  Rule of thumb: at least
    ~20 points per local de Broglie wavelength of the highest level.

    With commuting_mode the Hamiltonian is taken diagonal in momentum,
    E(p) = p^2/2 + potential(p), evaluated over the grid's momentum
    lattice (spacing 2 pi / (n dx)).  The sorted values form a band:
    growing n at fixed dx refines the band, and the largest adjacent gap
    shrinks like 1/n — there is no resolution-independent gap to converge
    to, so no refinement check is performed.
    """
    _check_levels(n_levels, grid.n_points)
    if commuting_mode:
        p = np.sort(grid.wavenumbers)
        energies = np.sort(p**2 / 2.0 + np.asarray(potential(p), dtype=float))
        energies = energies[:n_levels]
        return SpectrumResult(energies=energies, gaps=np.diff(energies))

    # Imported here: scipy.linalg is slow to load and only `spectrum` uses it.
    from scipy.linalg import eigh_tridiagonal

    def solve(n_points: int, with_states: bool = False):
        h = (grid.x_max - grid.x_min) / (n_points + 1)
        xs = grid.x_min + h * np.arange(1, n_points + 1)
        kin = 1.0 / (2.0 * h**2)
        diag = 2.0 * kin + np.asarray(potential(xs), dtype=float)
        off = np.full(n_points - 1, -kin)
        out = eigh_tridiagonal(diag, off, select="i",
                               select_range=(0, n_levels - 1),
                               eigvals_only=not with_states)
        if with_states:
            values, vectors = out
            return values, vectors / math.sqrt(h), xs  # normalize sum |psi|^2 h = 1
        return out

    states = grid_points = None
    if return_states:
        energies, states, grid_points = solve(grid.n_points, with_states=True)
    else:
        energies = solve(grid.n_points)
    refined = solve(2 * grid.n_points)
    gaps = np.diff(energies)
    gaps_refined = np.diff(refined)
    scale = np.maximum(np.abs(gaps_refined), 1e-12)
    drift = np.max(np.abs(gaps - gaps_refined) / scale)
    if drift > 0.01:
        raise ConvergenceError(
            f"level gaps moved {drift:.1%} under grid doubling; refine the grid")
    return SpectrumResult(energies=energies, gaps=gaps, states=states,
                          grid_points=grid_points)
