"""Shared helpers for the test suite: the golden run configurations, state
generators and slow reference oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import splu

from stochlab import cli
from stochlab.core import RngStream, available_cpus
from stochlab.memory import AnnealResult, SpinConfig
from stochlab.networks import NetworkMetrics
from stochlab.paths import _integrated_autocorrelation
from stochlab.quantum import Grid1D, WaveState
from stochlab.resonance import IntegrationError, Trajectory
from stochlab.sandpile import Avalanche, DriveRecord

# One small configuration per experiment, run with two replicas.  Criterion
# 11 reruns these from their manifests and tests/test_golden.py pins their
# data-file digests, so the pair proves reproducibility both within a commit
# and across commits.
RERUN_CONFIGS = {
    "interfere": {},
    "decay": {"n_atoms": "2000"},
    "uncertainty": {"n_states": "50"},
    "spectrum": {"n_levels": "4", "n_points": "200"},
    "paths": {"n_t": "128", "chains": "2", "sweeps": "1500",
              "thermalization": "300"},
    "diffuse": {"n_walkers": "20000"},
    "sandpile": {"width": "8", "height": "8", "warmup": "500",
                 "n_drops": "1500"},
    "resonance": {"noise_levels": "0.05,0.1,0.2,0.4,0.8"},
    "memory": {"trials": "50"},
    "network": {"n": "24", "k": "4", "ba_n": "80",
                "p_values": "0,0.3"},
    "search": {"sides": "6", "target_counts": "2", "radii": "0"},
    "mcint": {"samples": "4000"},
    "clt": {"n_values": "4,16,64", "replicas": "40"},
}

# memory's golden configuration runs task=retrieve; tests/test_golden.py
# also pins the anneal task, run by ``run_golden("memory", ..., ANNEAL_CONFIG)``.
ANNEAL_CONFIG = {"task": "anneal", "n": "10", "instances": "4"}


# ``--jobs 2`` is a valid configuration only where two CPUs are available.
needs_two_cpus = pytest.mark.skipif(available_cpus() < 2,
                                    reason="--jobs 2 needs two CPUs")


def no_pool(*args, **kwargs):
    """Stand-in for ``concurrent.futures.ProcessPoolExecutor`` where a run
    must start no worker process."""
    raise AssertionError("started a process pool")


def golden_seed(experiment: str) -> int:
    """The seed a golden configuration runs at: 1000 + its sorted index."""
    return 1000 + sorted(RERUN_CONFIGS).index(experiment)


def run_golden(experiment: str, out_dir, parameters=None,
               jobs: int = 1) -> cli.RunManifest:
    """Run one golden configuration in-process into ``out_dir``.

    ``parameters`` replaces the experiment's ``RERUN_CONFIGS`` entry.  The
    digest tables were recorded at ``jobs=1``.
    """
    if parameters is None:
        parameters = RERUN_CONFIGS[experiment]
    return cli.run(cli.ExperimentConfig(
        experiment, parameters, seed=golden_seed(experiment),
        output_dir=str(out_dir), replicas=2, jobs=jobs))


def run_runner(experiment: str, rng: RngStream, jobs: int = 1, **overrides):
    """The ``_RunOutput`` of one ``cli.run`` replica on ``rng``, with
    ``overrides`` resolved by the CLI's own schema and cross-checks."""
    params, violations = cli._resolve(cli.ExperimentConfig(experiment, overrides))
    assert violations == []
    return cli.EXPERIMENTS[experiment].run(params, rng, jobs)


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the peak of the memory
    tracemalloc traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def count_local_maxima(values) -> int:
    """Strict interior local maxima of a sampled curve."""
    y = np.asarray(values, dtype=float)
    return int(np.sum((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])))


def random_smooth_state(grid: Grid1D, rng: RngStream) -> WaveState:
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
    return WaveState.from_samples(grid, field * envelope)


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
    kin = 1.0 / (2.0 * dx**2)
    laplacian = diags(
        [1.0, 1.0, -2.0, 1.0, 1.0],
        offsets=[-(n - 1), -1, 0, 1, n - 1],
        shape=(n, n),
        format="csc",
        dtype=complex,
    )
    hamiltonian = -kin * laplacian
    factor = 1j * dt / 2.0
    forward = (identity(n, format="csc", dtype=complex) + factor * hamiltonian).tocsc()
    backward = (identity(n, format="csc", dtype=complex) - factor * hamiltonian).tocsr()
    solver = splu(forward)
    psi = np.array(state.values, dtype=complex)
    for _ in range(steps):
        psi = solver.solve(backward @ psi)
    return psi


def reference_metropolis(dynamics, lattice, rng: RngStream, sweeps: int,
                         thermalization: int, proposal_width: float = 1.0,
                         audit_proposals: int = 0) -> dict:
    """One chain of ``paths.metropolis_batch``, written as a per-site-group loop.

    A slow oracle with the batch kernel's draw order and arithmetic: bridge
    normals, then per sweep ``gen.uniform`` proposals and ``gen.random``
    acceptance draws for the odd sites, then the even sites; the width is
    retuned every 25 thermalization sweeps.  A ``None`` potential is
    evaluated as ``np.zeros_like``.  Returns the ensemble's fields.
    """
    potential = (np.zeros_like if dynamics.potential is None
                 else dynamics.potential)

    def action_of(positions):
        kinetic = (1.0 / (2.0 * dynamics.a_t)) * float(
            (np.diff(positions) ** 2).sum())
        v = np.asarray(potential(positions), dtype=float)
        return kinetic + dynamics.a_t * float(v.sum() - 0.5 * (v[0] + v[-1]))

    n_t, gen = lattice.n_t, rng.gen
    step_std = math.sqrt(dynamics.a_t)
    walk = np.concatenate([[0.0], np.cumsum(gen.normal(0.0, step_std,
                                                       size=n_t - 1))])
    x = (np.linspace(lattice.x_start, lattice.x_end, n_t)
         + (walk - walk[-1] * (np.arange(n_t) / (n_t - 1))))
    interior = np.arange(1, n_t - 1)
    groups = [g for g in (interior[interior % 2 == 1],
                          interior[interior % 2 == 0]) if g.size > 0]
    coef = 1.0 / (2.0 * dynamics.a_t)
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
                np.asarray(potential(new), dtype=float)
                - np.asarray(potential(old), dtype=float))
            u = gen.random(sites.size)
            accept = u < np.exp(np.minimum(-delta_s, 0.0))
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


def reference_clustering(g) -> tuple[float, float]:
    """(mean local clustering coefficient, transitivity) by literal
    triangle counting over per-node neighbour sets.

    Nodes of degree < 2 contribute 0.  The local coefficients are added in
    node order by an explicit loop: the builtin ``sum`` adds floats with
    compensated summation from Python 3.12 on, which would make an exact
    comparison depend on the Python version.
    """
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    local_sum = 0.0
    wedge_ends = 0  # 2 * number of triangles, summed over nodes
    triads = 0
    for u in range(g.n):
        neighbors = sorted(adj[u])
        d = len(neighbors)
        if d < 2:
            continue
        links = 0
        for a in range(d):
            for b in range(a + 1, d):
                if neighbors[b] in adj[neighbors[a]]:
                    links += 1
        pairs = d * (d - 1) // 2
        local_sum += links / pairs
        wedge_ends += links
        triads += pairs
    return local_sum / g.n, wedge_ends / triads if triads else 0.0


def reference_metrics(g) -> NetworkMetrics:
    """``networks.metrics`` with clustering by :func:`reference_clustering`
    and path lengths from ``scipy.sparse.csgraph``.

    A slow oracle: components from ``connected_components`` (the largest
    by ``bincount(labels).argmax()``, so ties go to the lowest label) and
    the distance matrix from unweighted Dijkstra over the members.
    """
    degrees = g.degrees
    histogram = np.bincount(degrees, minlength=1)
    clustering, transitivity = reference_clustering(g)
    if g.edges:
        rows = np.fromiter((u for u, _ in g.edges), dtype=np.int64,
                           count=g.edge_count)
        cols = np.fromiter((v for _, v in g.edges), dtype=np.int64,
                           count=g.edge_count)
        data = np.ones(g.edge_count, dtype=np.int8)
        sparse = csr_matrix(
            (np.concatenate([data, data]),
             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(g.n, g.n),
        )
    else:
        sparse = csr_matrix((g.n, g.n), dtype=np.int8)
    n_components, labels = connected_components(sparse, directed=False)
    connected = n_components == 1
    members = (np.arange(g.n) if connected
               else np.flatnonzero(labels == np.bincount(labels).argmax()))
    if members.size < 2:
        path_length = 0.0
    else:
        dist = shortest_path(sparse, method="D", unweighted=True,
                             indices=members)[:, members]
        path_length = float(dist.sum() / (members.size * (members.size - 1)))
    return NetworkMetrics(
        clustering=clustering,
        path_length=path_length,
        degree_histogram=histogram,
        transitivity=transitivity,
        connected=connected,
        clustering_defined=g.n >= 3,
    )


def reference_integrate(spec, rng: RngStream, sample_stride: int = 1):
    """``resonance.integrate`` as a checked scalar loop.

    A slow oracle: the trust region is tested after every step and the
    stride applied as the loop runs.  Same kicks, same recurrence.
    """
    n, dt = spec.n_steps, spec.dt
    kicks = spec.amplitude * np.sin(spec.omega * (dt * np.arange(n))) * dt
    if spec.noise_d > 0:
        kicks = kicks + math.sqrt(2.0 * spec.noise_d * dt) * rng.gen.standard_normal(n)
    x = spec.x0
    out = [x]
    for i, kick in enumerate(kicks.tolist()):
        x += (x - x * x * x) * dt + kick
        if not (-1e3 < x < 1e3):
            raise IntegrationError(
                f"|x| exceeded {1e3:g} at t = {(i + 1) * dt:g}; reduce dt")
        if (i + 1) % sample_stride == 0:
            out.append(x)
    positions = np.asarray(out)
    return Trajectory(positions, dt * sample_stride)


def _reference_relax(heights: np.ndarray, threshold: int,
                     round_log: list) -> Avalanche:
    """Whole-grid parallel rounds: every unstable cell topples once per
    round, found and shifted with array operations over the full grid."""
    size = duration = lost = 0
    toppled = np.zeros(heights.shape, dtype=bool)
    while True:
        unstable = heights >= threshold
        n_unstable = int(np.count_nonzero(unstable))
        if n_unstable == 0:
            break
        duration += 1
        size += n_unstable
        round_log.append(n_unstable)
        toppled |= unstable
        shed = unstable.astype(np.int64)
        heights -= 4 * shed
        heights[1:, :] += shed[:-1, :]
        heights[:-1, :] += shed[1:, :]
        heights[:, 1:] += shed[:, :-1]
        heights[:, :-1] += shed[:, 1:]
        lost += int(shed[0, :].sum() + shed[-1, :].sum()
                    + shed[:, 0].sum() + shed[:, -1].sum())
    return Avalanche(size=size, area=int(toppled.sum()), duration=duration,
                     dissipated=lost)


def reference_drop_and_relax(grid, site) -> Avalanche:
    """``sandpile.drop_and_relax`` on whole-grid rounds (slow oracle)."""
    grid.heights[site] += 1
    return _reference_relax(grid.heights, grid.threshold, [])


def reference_drive(grid, rng: RngStream, n_drops: int,
                    site_policy: str = "uniform-random") -> DriveRecord:
    """``sandpile.drive`` on whole-grid rounds (slow oracle): same sites,
    same per-drop records, one round-activity sample per round."""
    if site_policy == "center":
        rows = np.full(n_drops, grid.center[0])
        cols = np.full(n_drops, grid.center[1])
    else:
        rows = rng.gen.integers(0, grid.height, size=n_drops)
        cols = rng.gen.integers(0, grid.width, size=n_drops)
    events, mean_heights, round_log = [], [], []
    grains = grid.total_grains
    for row, col in zip(rows, cols):
        grid.heights[row, col] += 1
        event = _reference_relax(grid.heights, grid.threshold, round_log)
        if event.duration == 0:
            round_log.append(0)
        events.append(event)
        grains += 1 - event.dissipated
        mean_heights.append(grains / grid.heights.size)
    field = lambda name: np.array([getattr(e, name) for e in events],
                                  dtype=np.int64)
    return DriveRecord(sizes=field("size"), areas=field("area"),
                       durations=field("duration"),
                       dissipated=field("dissipated"),
                       mean_heights=np.array(mean_heights),
                       round_activity=np.array(round_log, dtype=np.int64))


def reference_anneal(couplings, schedule, rng: RngStream) -> AnnealResult:
    """``memory.simulated_annealing`` on numpy arrays and scalars.

    A slow oracle: one ``gen.permutation(n)`` per sweep, drawn after the
    level's uniform block, and the field update as an array expression.
    """
    n, j = couplings.n, couplings.j
    s = rng.gen.choice(np.array([-1.0, 1.0]), size=n)
    fields = j @ s
    current = float(-0.5 * s @ fields)
    best, best_spins = current, s.copy()
    acceptance = np.empty(schedule.levels)
    best_trace = np.empty(schedule.levels)
    for level, t in enumerate(schedule.temperatures):
        accepted = 0
        proposals = schedule.sweeps_per_level * n
        uniforms = iter(rng.gen.random(proposals).tolist())
        for _ in range(schedule.sweeps_per_level):
            for i in rng.gen.permutation(n):
                delta = 2.0 * s[i] * fields[i]
                if delta <= 0.0 or next(uniforms) < math.exp(-delta / t):
                    s[i] = -s[i]
                    fields += 2.0 * s[i] * j[:, i]
                    current += delta
                    accepted += 1
                    if current < best:
                        best, best_spins = current, s.copy()
        acceptance[level] = accepted / proposals
        best_trace[level] = best
    return AnnealResult(config=SpinConfig(best_spins.astype(np.int8)),
                        energy=best, acceptance_trace=acceptance,
                        best_energy_trace=best_trace)
