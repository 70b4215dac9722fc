"""Spin-glass energy landscapes used as associative memory and optimizer.

Couplings come from two origins sharing one Hamiltonian
H = -sum_{i<j} J_ij s_i s_j: the Hebbian outer-product rule stores patterns
as low-energy attractors (retrieval = descending into the nearest one), and
Gaussian couplings of variance 1/N give the frustrated glass whose ground
state is genuinely hard to find.  The two constructions behave very
differently even though the Hamiltonian is shared -- the coupling origin is
carried on the matrix so results stay attributable.

Small systems (N <= 24) admit exhaustive treatment: exact partition
functions by enumeration and a brute-force ground-state oracle against which
simulated annealing is validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream

__all__ = [
    "SpinConfig",
    "CouplingMatrix",
    "ThermoState",
    "AnnealSchedule",
    "DynamicsResult",
    "AnnealResult",
    "CapabilityError",
    "hebbian_couplings",
    "sk_couplings",
    "energy",
    "overlap",
    "flip_spins",
    "zero_t_dynamics",
    "exact_thermo",
    "ground_state_bruteforce",
    "simulated_annealing",
]

_ENUM_LIMIT = 24  # exhaustive-enumeration bound, 2**(N-1) configurations


class CapabilityError(RuntimeError):
    """The request exceeds what exhaustive enumeration can honor."""


@dataclass(frozen=True)
class SpinConfig:
    """Ising configuration: ``spins`` is a length-N array over {-1, +1}."""

    spins: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.spins)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("spins must be a non-empty 1-d array")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("every spin must be -1 or +1")
        object.__setattr__(self, "spins", arr.astype(np.int8, copy=True))
        self.spins.setflags(write=False)

    @property
    def n(self) -> int:
        return self.spins.size

    @classmethod
    def random(cls, n: int, rng: RngStream) -> "SpinConfig":
        return cls(rng.gen.choice(np.array([-1, 1], dtype=np.int8), size=n))


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric zero-diagonal coupling matrix with its construction origin."""

    j: np.ndarray
    origin: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.j, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError("j must be a square matrix of size >= 2")
        if not np.array_equal(arr, arr.T):
            raise ValueError("j must be exactly symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise ValueError("j must have a zero diagonal")
        object.__setattr__(self, "j", arr)
        self.j.setflags(write=False)

    @property
    def n(self) -> int:
        return self.j.shape[0]


@dataclass(frozen=True)
class ThermoState:
    """Exact thermodynamics at one temperature (small N only).

    ``partition_z`` may overflow to inf at extreme temperatures;
    ``free_energy`` is computed in log space and is always finite, and the
    identity F = -T ln Z holds exactly whenever ``partition_z`` is finite.
    """

    temperature: float
    partition_z: float
    free_energy: float
    mean_energy: float


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling: T_k = t_initial * ratio**k for k < levels."""

    t_initial: float
    ratio: float
    levels: int
    sweeps_per_level: int

    def __post_init__(self) -> None:
        if self.t_initial <= 0:
            raise ValueError("t_initial must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie strictly between 0 and 1")
        if self.levels < 1 or self.sweeps_per_level < 1:
            raise ValueError("levels and sweeps_per_level must be >= 1")

    @property
    def temperatures(self) -> np.ndarray:
        return self.t_initial * self.ratio ** np.arange(self.levels)


@dataclass(frozen=True)
class DynamicsResult:
    """Outcome of zero-temperature descent.

    ``overlap_trace[k]`` is the overlap with the *starting* configuration
    after k sweeps (so the trace begins at 1); ``energy_trace`` runs in
    step.  ``converged`` is False when the sweep budget ran out before a
    fixed point.
    """

    config: SpinConfig
    sweeps_used: int
    overlap_trace: np.ndarray
    energy_trace: np.ndarray
    converged: bool


@dataclass(frozen=True)
class AnnealResult:
    """Best-seen configuration and per-level bookkeeping of an anneal."""

    config: SpinConfig
    energy: float
    acceptance_trace: np.ndarray
    best_energy_trace: np.ndarray


def hebbian_couplings(patterns) -> CouplingMatrix:
    """Outer-product couplings J_ij = (1/N) sum_mu xi_i xi_j, zero diagonal."""
    configs = [p if isinstance(p, SpinConfig) else SpinConfig(p)
               for p in patterns]
    if not configs:
        raise ValueError("need at least one pattern")
    n = configs[0].n
    if any(c.n != n for c in configs):
        raise ValueError("patterns must share one length")
    xi = np.stack([c.spins for c in configs]).astype(float)
    j = xi.T @ xi / n
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix(j=j, origin="hebbian")


def sk_couplings(n: int, rng: RngStream) -> CouplingMatrix:
    """Quenched Gaussian couplings: independent N(0, 1/N) above the diagonal."""
    if n < 2:
        raise ValueError("n must be at least 2")
    upper = np.triu(rng.gen.normal(0.0, 1.0 / math.sqrt(n), size=(n, n)), k=1)
    return CouplingMatrix(j=upper + upper.T, origin="sk-gaussian")


def _check_sizes(config: SpinConfig, couplings: CouplingMatrix) -> None:
    if config.n != couplings.n:
        raise ValueError(
            f"config has {config.n} spins but couplings are "
            f"{couplings.n}x{couplings.n}"
        )


def energy(config: SpinConfig, couplings: CouplingMatrix) -> float:
    """H = -sum_{i<j} J_ij s_i s_j (the diagonal is zero, so -s.J.s/2)."""
    _check_sizes(config, couplings)
    s = config.spins.astype(float)
    return float(-0.5 * s @ couplings.j @ s)


def overlap(a: SpinConfig, b: SpinConfig) -> float:
    """Pattern overlap m = (1/N) sum_i a_i b_i, in [-1, 1]."""
    if a.n != b.n:
        raise ValueError("configurations must share one length")
    return float(np.mean(a.spins * b.spins, dtype=float))


def flip_spins(config: SpinConfig, n_flips: int, rng: RngStream) -> SpinConfig:
    """Corrupt a configuration by flipping ``n_flips`` distinct random spins."""
    if not 0 <= n_flips <= config.n:
        raise ValueError("n_flips must lie in [0, N]")
    spins = config.spins.copy()
    where = rng.gen.choice(config.n, size=n_flips, replace=False)
    spins[where] = -spins[where]
    return SpinConfig(spins)


def zero_t_dynamics(config: SpinConfig,
                    couplings: CouplingMatrix,
                    rng: RngStream,
                    max_sweeps: int = 100) -> DynamicsResult:
    """Asynchronous strict-descent dynamics to a single-flip-stable state.

    Each sweep visits every spin once in a fresh random order and flips it
    only if that strictly lowers the energy (a zero-gain flip is rejected,
    which guarantees termination).  Stops at the first sweep with no flips,
    or with ``converged=False`` after ``max_sweeps``.
    """
    _check_sizes(config, couplings)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    start = config.spins.astype(float)
    s = start.copy()
    j = couplings.j
    fields = j @ s
    current_energy = float(-0.5 * s @ fields)
    n = config.n

    overlaps = [1.0]
    energies = [current_energy]
    sweeps = 0
    converged = False
    for _ in range(max_sweeps):
        sweeps += 1
        flipped = 0
        for i in rng.gen.permutation(n):
            delta = 2.0 * s[i] * fields[i]
            if delta < 0.0:
                s[i] = -s[i]
                fields += 2.0 * s[i] * j[:, i]
                current_energy += delta
                flipped += 1
        overlaps.append(float(np.mean(s * start)))
        energies.append(current_energy)
        if flipped == 0:
            converged = True
            break
    return DynamicsResult(
        config=SpinConfig(s.astype(np.int8)),
        sweeps_used=sweeps,
        overlap_trace=np.asarray(overlaps),
        energy_trace=np.asarray(energies),
        converged=converged,
    )


def _enumerate_half_space(n: int, chunk: int = 1 << 18):
    """Yield chunks of spins over all configs with spin 0 fixed to +1."""
    total = 1 << (n - 1)
    bits = np.arange(n - 1)
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        # spin i (i >= 1) reads bit (i - 1) of the enumeration index.
        tail = (idx[:, None] >> bits[None, :]) & 1
        spins = np.empty((idx.size, n), dtype=np.int8)
        spins[:, 0] = 1
        spins[:, 1:] = 1 - 2 * tail  # bit 1 -> spin -1
        yield spins


def _chunk_energies(s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Row-wise H = -s.J.s/2 for a (configs x N) block of spins."""
    return -0.5 * ((s @ j) * s).sum(axis=1)


def _require_enumerable(n: int, what: str) -> None:
    if n > _ENUM_LIMIT:
        raise CapabilityError(
            f"{what} enumerates 2^(N-1) configurations and is capped at "
            f"N = {_ENUM_LIMIT}; got N = {n}"
        )


def exact_thermo(couplings: CouplingMatrix, temperature: float) -> ThermoState:
    """Exact Z, F, and <H> by full enumeration (N <= 24).

    Uses the global spin-flip symmetry H(s) = H(-s): the half space with
    spin 0 = +1 is enumerated and every Boltzmann weight counted twice.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    _require_enumerable(couplings.n, "exact_thermo")
    j = couplings.j
    # First collect the energies (ground-state shift keeps the exponentials
    # in range), then sum the Boltzmann weights under that common shift.
    chunks = []
    for spins in _enumerate_half_space(couplings.n):
        s = spins.astype(float)
        chunks.append(_chunk_energies(s, j))
    h_min = min(float(h.min()) for h in chunks)
    z_scaled = 0.0
    weighted_h = 0.0
    for h in chunks:
        w = np.exp(-(h - h_min) / temperature)
        z_scaled += float(w.sum())
        weighted_h += float(h @ w)
    # Both half-spaces contribute identically.
    log_z = math.log(2.0) + math.log(z_scaled) - h_min / temperature
    mean_h = weighted_h / z_scaled
    free_energy = -temperature * log_z
    try:
        partition_z = math.exp(log_z)
    except OverflowError:
        partition_z = math.inf
    return ThermoState(temperature=float(temperature),
                       partition_z=partition_z,
                       free_energy=free_energy,
                       mean_energy=mean_h)


def ground_state_bruteforce(couplings: CouplingMatrix) -> tuple[SpinConfig, float]:
    """Exhaustive ground state (N <= 24), lexicographic tie-break.

    Spin-flip symmetry halves the search to the spin-0 = +1 half space;
    ties at the minimal energy are resolved by the lexicographically
    smallest configuration over the *full* space (ordering -1 < +1), so a
    coupling-free system reports the all -1 state.
    """
    _require_enumerable(couplings.n, "ground_state_bruteforce")
    n = couplings.n
    j = couplings.j
    full_mask = (1 << n) - 1
    # A configuration's key has bit (N-1-i) set when spin i is +1, so a
    # smaller key is lexicographically earlier under the ordering -1 < +1
    # with spin 0 most significant.
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    best_energy = math.inf
    best_key = None
    for spins in _enumerate_half_space(n):
        s = spins.astype(float)
        h = _chunk_energies(s, j)
        chunk_min = float(h.min())
        if chunk_min > best_energy:
            continue
        keys = (spins[h == chunk_min] > 0) @ weights
        # Each enumerated config stands for the pair {s, -s}; the pair's
        # lexicographic representative is the smaller of the two keys.
        candidate = int(np.minimum(keys, full_mask - keys).min())
        if chunk_min < best_energy:
            best_energy = chunk_min
            best_key = candidate
        else:
            best_key = min(best_key, candidate)
    bits = (best_key >> np.arange(n - 1, -1, -1)) & 1
    spins = (2 * bits - 1).astype(np.int8)  # bit set -> spin +1
    return SpinConfig(spins), best_energy


def simulated_annealing(couplings: CouplingMatrix,
                        schedule: AnnealSchedule,
                        rng: RngStream) -> AnnealResult:
    """Metropolis annealing from a random start; returns the best-seen state.

    At each level, every sweep proposes each spin once in random order,
    accepting a flip when it does not raise the energy and otherwise with
    probability exp(-dH/T).
    """
    n = couplings.n
    sweeps = schedule.sweeps_per_level
    proposals = sweeps * n
    gen = rng.gen
    s = gen.choice(np.array([-1.0, 1.0]), size=n)
    fields = couplings.j @ s
    current = float(-0.5 * s @ fields)
    best = current
    # Python floats: per-element numpy scalars would cost more than the
    # arithmetic.  The list update rounds each product and sum once, exactly
    # as the array update ``fields + c * j[:, i]`` does, so results match it
    # bit for bit.
    spins = s.tolist()
    fields = fields.tolist()
    columns = couplings.j.T.tolist()
    best_spins = spins.copy()
    exp = math.exp

    acceptance = np.empty(schedule.levels)
    best_trace = np.empty(schedule.levels)
    for level, t in enumerate(schedule.temperatures.tolist()):
        accepted = 0
        uniforms = iter(gen.random(proposals).tolist())
        # One draw for the level's sweep orders: row k equals what the k-th
        # of ``sweeps`` successive ``gen.permutation(n)`` calls would return,
        # and the stream ends where they would leave it.
        orders = gen.permuted(np.tile(np.arange(n), (sweeps, 1)), axis=1)
        for order in orders.tolist():
            for i in order:
                delta = 2.0 * spins[i] * fields[i]
                if delta <= 0.0 or next(uniforms) < exp(-delta / t):
                    flipped = -spins[i]
                    spins[i] = flipped
                    c = 2.0 * flipped
                    fields = [f + c * jk for f, jk in zip(fields, columns[i])]
                    current += delta
                    accepted += 1
                    if current < best:
                        best = current
                        best_spins = spins.copy()
        acceptance[level] = accepted / proposals
        best_trace[level] = best
    return AnnealResult(config=SpinConfig(np.array(best_spins, dtype=np.int8)),
                        energy=best,
                        acceptance_trace=acceptance,
                        best_energy_trace=best_trace)
