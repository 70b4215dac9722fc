"""Shared helpers for the test suite: state generators and slow reference oracles."""

import math

import numpy as np
from scipy.sparse import diags, identity
from scipy.sparse.linalg import splu

from stochlab.core import RngStream
from stochlab.paths import _integrated_autocorrelation
from stochlab.quantum import Grid1D, WaveState


def count_local_maxima(values) -> int:
    """Strict interior local maxima of a sampled curve."""
    y = np.asarray(values, dtype=float)
    return int(np.sum((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])))


def random_smooth_state(grid: Grid1D, rng: RngStream, hbar: float = 1.0,
                        mass: float = 1.0) -> WaveState:
    """A random localized, band-limited, normalized state on the grid."""
    n = grid.n_points
    span = grid.x_max - grid.x_min
    mode_index = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
    cutoff = rng.gen.uniform(6.0, n / 8.0)
    coeffs = rng.gen.standard_normal(n) + 1j * rng.gen.standard_normal(n)
    coeffs *= np.exp(-((mode_index / cutoff) ** 2))
    field = np.fft.ifft(coeffs)
    # A localizing envelope keeps probability away from the periodic seam.
    center = rng.gen.uniform(grid.x_min + 0.35 * span, grid.x_max - 0.35 * span)
    width = rng.gen.uniform(span / 40.0, span / 10.0)
    envelope = np.exp(-((grid.points - center) ** 2) / (4.0 * width**2))
    return WaveState.from_samples(grid, field * envelope, hbar=hbar, mass=mass)


def brownian_bridge_paths(n_paths: int, n_t: int, step_var: float,
                          rng: RngStream) -> np.ndarray:
    """Exact fixed-endpoint free-path ensemble (both endpoints at zero).

    Direct Gaussian construction — cumulative independent increments of
    variance ``step_var`` pinned back to zero at the last slice — giving the
    same distribution a kinetic-only Boltzmann weight assigns, without any
    Markov chain.
    """
    steps = rng.gen.normal(0.0, np.sqrt(step_var), size=(n_paths, n_t - 1))
    walk = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1)
    return walk - walk[:, -1:] * (np.arange(n_t) / (n_t - 1))


def crank_nicolson_free_evolution(state: WaveState, t: float,
                                  steps: int) -> np.ndarray:
    """Free evolution by a periodic Crank-Nicolson finite-difference scheme.

    Deliberately independent of the spectral route: second-order in time and
    space, unitary, and slow.  Used only as a cross-check oracle.
    """
    n = state.grid.n_points
    dx = state.grid.dx
    dt = t / steps
    kin = state.hbar**2 / (2.0 * state.mass * dx**2)
    laplacian = diags(
        [1.0, 1.0, -2.0, 1.0, 1.0],
        offsets=[-(n - 1), -1, 0, 1, n - 1],
        shape=(n, n),
        format="csc",
        dtype=complex,
    )
    hamiltonian = -kin * laplacian
    factor = 1j * dt / (2.0 * state.hbar)
    forward = (identity(n, format="csc", dtype=complex) + factor * hamiltonian).tocsc()
    backward = (identity(n, format="csc", dtype=complex) - factor * hamiltonian).tocsr()
    solver = splu(forward)
    psi = np.array(state.values, dtype=complex)
    for _ in range(steps):
        psi = solver.solve(backward @ psi)
    return psi


def low_high_power_ratio(signal, segments: int = 8) -> float:
    """Mean periodogram power over the lowest decile of positive-frequency
    bins divided by the mean over the highest decile."""
    from stochlab.core import periodogram

    spectrum = periodogram(np.asarray(signal, dtype=float), 1.0, segments)
    power = spectrum.power[spectrum.frequencies > 0]
    k = max(1, power.size // 10)
    return float(power[:k].mean() / power[-k:].mean())


def reference_metropolis(dynamics, lattice, rng: RngStream, sweeps: int,
                         thermalization: int, proposal_width: float = 1.0,
                         audit_proposals: int = 0) -> dict:
    """One chain of ``paths.metropolis_batch``, written as a per-site-group loop.

    A slow oracle with the batch kernel's draw order and arithmetic: bridge
    normals, then per sweep ``gen.uniform`` proposals and ``gen.random``
    acceptance draws for the odd sites, then the even sites; the width is
    retuned every 25 thermalization sweeps.  Returns the ensemble's fields.
    """
    def action_of(positions):
        kinetic = (dynamics.mass / (2.0 * dynamics.a_t)) * float(
            (np.diff(positions) ** 2).sum())
        v = np.asarray(dynamics.potential(positions), dtype=float)
        return kinetic + dynamics.a_t * float(v.sum() - 0.5 * (v[0] + v[-1]))

    n_t, gen = lattice.n_t, rng.gen
    step_std = math.sqrt(dynamics.a_t * dynamics.hbar / dynamics.mass)
    walk = np.concatenate([[0.0], np.cumsum(gen.normal(0.0, step_std,
                                                       size=n_t - 1))])
    x = (np.linspace(lattice.x_start, lattice.x_end, n_t)
         + (walk - walk[-1] * (np.arange(n_t) / (n_t - 1))))
    interior = np.arange(1, n_t - 1)
    groups = [g for g in (interior[interior % 2 == 1],
                          interior[interior % 2 == 0]) if g.size > 0]
    coef = dynamics.mass / (2.0 * dynamics.a_t)
    width = float(proposal_width)
    trace = np.empty(sweeps)
    kept = np.empty((sweeps - thermalization, n_t))
    accepted = tune_acc = tune_prop = 0
    audit = ([], [], [])
    audit_left = audit_proposals
    for sweep in range(sweeps):
        in_measurement = sweep >= thermalization
        for sites in groups:
            old = x[sites]
            new = old + gen.uniform(-width, width, size=sites.size)
            left, right = x[sites - 1], x[sites + 1]
            delta_s = coef * ((new - left) ** 2 + (right - new) ** 2
                              - (old - left) ** 2 - (right - old) ** 2)
            delta_s += dynamics.a_t * (
                np.asarray(dynamics.potential(new), dtype=float)
                - np.asarray(dynamics.potential(old), dtype=float))
            u = gen.random(sites.size)
            accept = u < np.exp(np.minimum(-delta_s / dynamics.hbar, 0.0))
            x[sites] = np.where(accept, new, old)
            if in_measurement:
                accepted += int(accept.sum())
                if audit_left > 0:
                    take = min(audit_left, sites.size)
                    for log, values in zip(audit, (delta_s, u, accept)):
                        log.append(values[:take].copy())
                    audit_left -= take
            else:
                tune_acc += int(accept.sum())
                tune_prop += sites.size
        trace[sweep] = action_of(x)
        if in_measurement:
            kept[sweep - thermalization] = x
        elif (sweep + 1) % 25 == 0:
            rate = tune_acc / tune_prop
            width = float(np.clip(width * np.clip(rate / 0.5, 0.5, 2.0),
                                  1e-9, 1e9))
            tune_acc = tune_prop = 0

    measured = trace[thermalization:]
    tau = _integrated_autocorrelation(measured)
    stride = max(1, math.ceil(2.0 * tau))
    return {
        "paths": kept[::stride], "sample_actions": measured[::stride],
        "action_trace": trace,
        "acceptance_rate": accepted / ((sweeps - thermalization) * (n_t - 2)),
        "proposal_width": width, "stride": stride, "tau_int": tau,
        "audit": (dict(zip(("delta_s", "uniforms", "accepted"),
                           map(np.concatenate, audit)))
                  if audit_proposals > 0 else None),
    }
