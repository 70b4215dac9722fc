"""Nearest-neighbor lattice random walks and their diffusion-kernel limit.

A walker on a ``dim``-dimensional integer lattice hops one site (spacing
``a_s``) along a uniformly chosen signed axis each time step ``a_t``.  Each
step has per-axis displacement variance a_s**2 / dim, so after n steps the
per-axis variance is n * a_s**2 / dim and the binned occupation density
approaches the heat kernel with diffusion coefficient

    D = a_s**2 / (2 * dim * a_t),

which equals 1 exactly when the spacings obey a_s**2 / a_t = 2 * dim — the
scaling under which the walk converges to the diffusion equation.  General D
is obtained by rescaling lengths by sqrt(D) rather than by changing the walk.

Only the displacement statistics of a walk matter here, never the visit
order, so walkers are simulated by their sufficient statistics: the number
of steps taken in each of the 2 * dim directions (binomial counts in one
dimension, multinomial in higher ones).  This is distribution-exact and
orders of magnitude faster than stepping.

After n steps the coordinate-sum parity is locked to n, so walkers occupy a
checkerboard sublattice whose per-site cell volume is 2 * a_s**dim; densities
divide the per-site probability mass by that volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from stochlab.core import RngStream

_CHUNK = 1 << 16


def _check_cell(dim: int, a_s: float) -> None:
    """The cell volume 2 * a_s**dim and its reciprocal, the density of one
    walker, must be finite and positive.  With D = 1 pinned (a_s**2 = 2 *
    dim * a_t) and t >= a_t, the heat-kernel peak (4 pi t)**(-dim/2) stays
    below 0.8 / (2 * a_s**dim), so the rule keeps it finite as well."""
    try:
        volume = 2.0 * float(a_s) ** dim
    except OverflowError:
        volume = math.inf
    # A subnormal volume is positive, but its reciprocal overflows.
    if volume == 0.0 or math.isinf(volume) or math.isinf(1.0 / volume):
        raise ValueError("the cell volume 2 * a_s**dim or its reciprocal "
                         "leaves the double range")


def _kernel_peak(dim: int, d_coeff: float, t: float) -> float:
    """The heat kernel's peak value (4 pi D t)**(-dim/2)."""
    try:
        return (4.0 * math.pi * d_coeff * t) ** (-dim / 2.0)
    except (OverflowError, ZeroDivisionError):
        raise ValueError("the heat-kernel peak (4 pi D t)**(-dim/2) "
                         "overflows a double") from None


@dataclass(frozen=True)
class WalkSpec:
    """Lattice, population, and duration of a random-walk simulation.

    Every walker starts at the coordinate origin.
    """

    dim: int
    a_s: float
    a_t: float
    n_walkers: int
    n_steps: int

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= 3:
            raise ValueError("dim must be 1, 2, or 3")
        if self.a_s <= 0 or self.a_t <= 0:
            raise ValueError("a_s and a_t must be positive")
        _check_cell(self.dim, self.a_s)
        if self.n_walkers < 1:
            raise ValueError("need at least one walker")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if float(2 * self.n_steps + 1) ** self.dim >= 2**62:
            raise ValueError("n_steps too large for packed site keys")

    @property
    def scaling_ratio(self) -> float:
        """a_s**2 / a_t — the quantity pinned to 2 * dim in the diffusive limit."""
        return self.a_s**2 / self.a_t

    @property
    def d_coeff(self) -> float:
        return self.scaling_ratio / (2.0 * self.dim)

    @property
    def duration(self) -> float:
        return self.n_steps * self.a_t


@dataclass(frozen=True)
class DiffusionField:
    """Binned occupation density of a walker population at a fixed time.

    ``points`` holds the physical coordinates of every occupied lattice site
    (shape (n_sites, dim)) and ``masses`` the probability mass each carries.
    :func:`simulate_walk` lists the sites in ascending packed-key order.
    ``cell_volume`` is the parity-sublattice cell volume 2 * a_s**dim, so
    ``density`` is directly comparable to a continuum kernel.
    """

    points: np.ndarray
    masses: np.ndarray
    time: float
    d_coeff: float
    normalization: float
    cell_volume: float

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or points.shape != (masses.size, points.shape[1]):
            raise ValueError("points must be (n_sites, dim), masses (n_sites,)")
        if np.any(masses < 0):
            raise ValueError("bin masses must be nonnegative")
        if abs(self.normalization - 1.0) > 1e-12:
            raise ValueError("total probability mass must be 1 within 1e-12")
        for arr in (points, masses):
            arr.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "masses", masses)

    @property
    def density(self) -> np.ndarray:
        return self.masses / self.cell_volume

    def moment(self, power: int) -> np.ndarray:
        """Per-axis raw moment sum(mass * x**power)."""
        return np.einsum("i,ij->j", self.masses, self.points**power)


def _encode(coords: np.ndarray, n_steps: int, dim: int) -> np.ndarray:
    """Pack shifted integer coordinates into single int64 keys."""
    base = 2 * n_steps + 1
    keys = np.zeros(coords.shape[0], dtype=np.int64)
    for axis in range(dim):
        keys = keys * base + (coords[:, axis] + n_steps)
    return keys


def _decode(keys: np.ndarray, n_steps: int, dim: int) -> np.ndarray:
    base = 2 * n_steps + 1
    coords = np.empty((keys.size, dim), dtype=np.int64)
    rest = keys.copy()
    for axis in reversed(range(dim)):
        coords[:, axis] = rest % base - n_steps
        rest //= base
    return coords


def simulate_walk(spec: WalkSpec, rng: RngStream) -> DiffusionField:
    """Run the walk and return the binned occupation density at the end time.

    Walkers are drawn ``_CHUNK`` at a time from the exact displacement
    distribution (direction-count sufficient statistics), and each chunk's
    per-site integer counts are merged into sorted int64 arrays, so
    probability is conserved exactly.  Sites come out in ascending
    packed-key order, which is lexicographic order of their lattice
    coordinates.  ``binomial`` and ``multinomial`` draw one variate after
    another, so the field and the stream's end position do not depend on
    the chunk size.
    """
    gen = rng.gen
    site_keys = np.empty(0, dtype=np.int64)
    site_counts = np.empty(0, dtype=np.int64)
    remaining = spec.n_walkers
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        # Both draws are int64, so the coordinates need no cast.
        if spec.dim == 1:
            ups = gen.binomial(spec.n_steps, 0.5, size=m)
            coords = (2 * ups - spec.n_steps)[:, None]
        else:
            per_direction = gen.multinomial(
                spec.n_steps, [1.0 / (2 * spec.dim)] * (2 * spec.dim), size=m)
            coords = per_direction[:, : spec.dim] - per_direction[:, spec.dim:]
        keys, counts = np.unique(_encode(coords, spec.n_steps, spec.dim),
                                 return_counts=True)
        # Both key arrays are sorted: add the counts of sites already seen,
        # and insert the new sites where they belong.
        at = np.searchsorted(site_keys, keys)
        seen = at < site_keys.size
        seen[seen] = site_keys[at[seen]] == keys[seen]
        site_counts[at[seen]] += counts[seen]
        site_keys = np.insert(site_keys, at[~seen], keys[~seen])
        site_counts = np.insert(site_counts, at[~seen], counts[~seen])

    coords = _decode(site_keys, spec.n_steps, spec.dim)
    points = coords * spec.a_s
    masses = site_counts / spec.n_walkers
    return DiffusionField(
        points=points,
        masses=masses,
        time=spec.duration,
        d_coeff=spec.d_coeff,
        normalization=float(masses.sum()),
        cell_volume=2.0 * spec.a_s**spec.dim,
    )


def analytic_kernel(dim: int, d_coeff: float, t: float, points) -> np.ndarray:
    """Heat kernel (4 pi D t)^(-dim/2) * exp(-|x|^2 / (4 D t)), centred on
    the origin."""
    if not 1 <= dim <= 3:
        raise ValueError("dim must be 1, 2, or 3")
    if t <= 0:
        raise ValueError("t must be positive")
    if d_coeff <= 0:
        raise ValueError("d_coeff must be positive")
    pts = np.asarray(points, dtype=float)
    if dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (n, {dim})")
    displacement2 = (pts**2).sum(axis=1)
    return (_kernel_peak(dim, d_coeff, t)
            * np.exp(-displacement2 / (4.0 * d_coeff * t)))


class ConvergenceLevel(NamedTuple):
    a_s: float
    a_t: float
    n_steps: int
    sup_error: float
    sampling_limited: bool


def _level_specs(base: WalkSpec, refinements: int) -> list[WalkSpec]:
    """The base level and ``refinements`` halvings of a_s at D = 1."""
    return [WalkSpec(base.dim, base.a_s / 2**k,
                     (base.a_s / 2**k) ** 2 / (2.0 * base.dim),
                     base.n_walkers, base.n_steps * 4**k)
            for k in range(refinements + 1)]


def _check_pinning(dim: int, a_s: float, a_t: float) -> None:
    # A product, unlike ``**``, overflows to inf (never close) instead of
    # raising OverflowError.
    if not math.isclose(a_s * a_s / a_t, 2.0 * dim, rel_tol=1e-12):
        raise ValueError("a_s**2 / a_t must equal 2 * dim "
                         "(diffusion-constant pinning)")


def convergence_scan(base_spec: WalkSpec, refinements: int,
                     rng: RngStream) -> list[ConvergenceLevel]:
    """Walk-vs-kernel sup-norm error while halving a_s at fixed physical time.

    Runs the base level plus ``refinements`` halvings of ``a_s``, each with
    a_t rescaled to keep a_s**2 / a_t = 2 * dim (so D = 1) and n_steps
    rescaled to keep the total time fixed.  Each level draws its walkers from
    an independent substream of ``rng``.  A level is flagged
    ``sampling_limited`` when the statistical error of its peak bin exceeds
    the leading binning-bias estimate — more walkers, not a finer lattice,
    would be needed for the next level to improve.
    """
    if refinements < 2:
        raise ValueError("need at least 2 refinements")
    _check_pinning(base_spec.dim, base_spec.a_s, base_spec.a_t)
    if base_spec.n_steps < 1:
        raise ValueError("base spec must take at least one step")

    levels = []
    for k, spec in enumerate(_level_specs(base_spec, refinements)):
        a_s = spec.a_s
        field = simulate_walk(spec, rng.substream(k))
        kernel = analytic_kernel(spec.dim, 1.0, field.time, field.points)
        sup_error = float(np.abs(field.density - kernel).max())
        peak_mass = float(field.masses.max())
        peak_se = math.sqrt(peak_mass * (1.0 - peak_mass)
                            / spec.n_walkers) / field.cell_volume
        peak_kernel = _kernel_peak(spec.dim, 1.0, field.time)
        bias_estimate = ((2.0 * a_s) ** 2 / 24.0) * spec.dim * peak_kernel / (
            2.0 * field.time)
        levels.append(ConvergenceLevel(
            a_s=a_s, a_t=spec.a_t, n_steps=spec.n_steps, sup_error=sup_error,
            sampling_limited=peak_se > bias_estimate))
    return levels
