"""Euclidean path sampling and the length-versus-resolution dimension scan.

Paths x(t) live on a lattice of n_t equally spaced imaginary-time slices with
fixed endpoints.  A site-by-site Metropolis sampler draws paths with Boltzmann
weight exp(-S) (units with hbar = m = 1), where S is the discretized Euclidean
action.  Coarsening a sampled path and measuring its summed length L against
the fluctuation scale dx of the coarse increments gives a power law mean
L ~ dx**alpha whose exponent determines the fractal dimension of the paths:
d_h = 1 - alpha.  A wiggly quantum path doubles in measured length each time
the resolution is refined by 4 (alpha = -1, d_h = 2); a straight line keeps a
constant length (alpha = 0, d_h = 1).

Coarse-graining protocol (the one interpretive choice in this module): a path
is reduced to [x_0, block means of size b, x_last].  The anchored endpoints
make the coarse length of a monotone path exactly constant across block
sizes, which the plain block-mean reduction fails.  The resolution assigned
to block size b is dx(b) = sqrt(b) * dx_1, where dx_1 is the measured RMS
increment of the raw paths: the fluctuation scale a diffusive path develops
across an effective spacing of b slices.  The raw pooled RMS of the coarse
increments is deliberately *not* used as the fit axis — block averaging
suppresses it below sqrt(b) scaling for small b (variance (2b^2+1)/(3b)
instead of b) and the pinned endpoints suppress it again for blocks
approaching the path length, and feeding those distortions into both axes
doubles their effect on the exponent.  For the same reason the fit window is
restricted to block sizes 4 .. n_t // 8.  Alternatives (subsampling,
smoothing kernels) exist but are not implemented.

Sampling: :func:`metropolis_batch` advances many chains at once, one chain
per RngStream; a single chain is a batch of one stream.  Each chain's draw
order is fixed by its own stream alone, so a chain is bit for bit the same
whichever other chains share its batch.  The sampler keeps every chain's
sites in one flat buffer, one segment per checkerboard colour, so that each
numpy call of a half-sweep acts on 1-D contiguous operands (see
:func:`metropolis_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from stochlab.core import RngStream, fit_power_law


class FitError(Exception):
    """Raised when a scan cannot produce enough valid points to fit."""


@dataclass(frozen=True)
class Lattice:
    """Imaginary-time lattice: n_t slices with fixed endpoints.  The slice
    spacing a_t belongs to the action (:class:`EuclideanAction`)."""

    n_t: int
    x_start: float = 0.0
    x_end: float = 0.0

    def __post_init__(self) -> None:
        if self.n_t < 3:
            raise ValueError("sampling needs n_t >= 3 (at least one interior slice)")


@dataclass(frozen=True)
class EuclideanAction:
    """Potential and slice spacing defining the Euclidean action.

    The Boltzmann weight of a path is exp(-S), in units with hbar = m = 1.
    A ``None`` potential is the free particle (V = 0): the sampler and the
    action skip its term, which for an evaluated zero would add only +0.0.
    """

    potential: Callable[[np.ndarray], np.ndarray] | None
    a_t: float

    def __post_init__(self) -> None:
        if self.a_t <= 0:
            raise ValueError("a_t must be positive")


@dataclass(frozen=True)
class HausdorffScan:
    resolutions: np.ndarray    # dx per scan point, strictly decreasing
    mean_lengths: np.ndarray   # ensemble-mean coarse length per scan point
    alpha: float               # fitted exponent of mean L ~ dx**alpha
    d_h: float                 # 1 - alpha
    block_sizes: np.ndarray    # coarse-graining block size per scan point


@dataclass(frozen=True)
class ProposalAudit:
    """Logged Metropolis proposals for detailed-balance spot checks."""

    delta_s: np.ndarray
    uniforms: np.ndarray
    accepted: np.ndarray


@dataclass(frozen=True)
class PathEnsemble:
    """Decorrelated post-thermalization path samples plus run diagnostics."""

    paths: np.ndarray          # (n_samples, n_t)
    sample_actions: np.ndarray
    action_trace: np.ndarray   # per-sweep action, thermalization included
    acceptance_rate: float     # post-thermalization
    proposal_width: float      # frozen width actually used for sampling
    stride: int
    tau_int: float
    lattice: Lattice
    audit: ProposalAudit | None = None


def action(positions, dynamics: EuclideanAction):
    """Discretized Euclidean action, kinetic links plus trapezoid-weighted
    potential, of each path along the last axis (a scalar for one path)."""
    positions = np.asarray(positions, dtype=float)
    kinetic = (1.0 / (2.0 * dynamics.a_t)) * (
        np.diff(positions) ** 2).sum(axis=-1)
    if dynamics.potential is None:
        return kinetic
    v = np.asarray(dynamics.potential(positions), dtype=float)
    # Trapezoidal weighting: endpoints count half.
    potential = dynamics.a_t * (v.sum(axis=-1) - 0.5 * (v[..., 0] + v[..., -1]))
    return kinetic + potential


def path_distance(x1, x2, dynamics: EuclideanAction) -> float:
    """|S(x1) - S(x2)|: a pseudo-metric (distinct equal-action paths have distance 0)."""
    if np.shape(x1) != np.shape(x2):
        raise ValueError("the paths have different numbers of slices")
    return float(abs(action(x1, dynamics) - action(x2, dynamics)))


def _integrated_autocorrelation(series: np.ndarray) -> float:
    """Sokal-windowed integrated autocorrelation time of a scalar series."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if not math.isfinite(var):
        raise ValueError("the action trace overflows a double; reduce a_t")
    if n < 8 or var == 0.0:
        return 0.5
    # Autocovariance by FFT, biased normalization.
    size = int(2 ** math.ceil(math.log2(2 * n)))
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    rho = acov / acov[0]
    tau = 0.5
    for k in range(1, n // 2):
        tau += float(rho[k])
        if k >= 6.0 * tau:  # Sokal window: stop once the window exceeds 6 tau
            break
    return max(tau, 0.5)


# Widths are retuned every _TUNE_INTERVAL thermalization sweeps, and uniforms
# are drawn in blocks of that many sweeps, so a width is fixed within a block.
_TUNE_INTERVAL = 25


def _check_sweeps(sweeps: int, thermalization: int) -> None:
    if thermalization < 0 or sweeps <= thermalization:
        raise ValueError("need sweeps > thermalization >= 0")


def metropolis_batch(dynamics: EuclideanAction, lattice: Lattice,
                     streams: Sequence[RngStream], sweeps: int,
                     thermalization: int, proposal_width: float = 1.0,
                     audit_proposals: int = 0) -> list[PathEnsemble]:
    """Sample fixed-endpoint paths with Boltzmann weight exp(-S), one chain
    per stream.

    One sweep proposes a shift x_j -> x_j + U(-w, w) at every interior site,
    visiting sites in a fixed odd/even checkerboard order so the proposals in
    each half-sweep depend only on frozen neighbors (single-site detailed
    balance is preserved and the schedule is deterministic from the seed).

    The proposal width starts at ``proposal_width`` and is retuned toward 50%
    acceptance every 25 sweeps during thermalization, then frozen.  ``sweeps``
    counts total sweeps including thermalization.  Post-thermalization paths
    are thinned by a stride of ceil(2 * tau_int), where tau_int is the
    integrated autocorrelation time of the action series.

    Set ``audit_proposals`` to log that many post-thermalization proposals
    (delta S, uniform draw, decision) for detailed-balance checks.

    Each chain keeps its own width, tuning, action trace, tau_int, stride and
    audit, and draws from its own stream in this order: the n_t - 1 bridge
    normals, then per sweep the proposal and the acceptance uniforms of the
    odd sites, then of the even sites.  Chain c therefore equals the one
    chain of ``metropolis_batch(..., [streams[c]], ...)`` bit for bit.  The
    potential must act elementwise, or be ``None``.  Too large an a_t makes
    the action trace overflow a double, which raises a ValueError.

    Layout: the state is one flat float64 buffer with an even-site and an
    odd-site segment, each holding every chain end to end in rows of
    n_t // 2 + 1 lanes.  A half-sweep's sites, neighbours and squared links
    are then 1-D contiguous slices at most one element apart, which numpy
    runs on its contiguous loops; a strided checkerboard view of a
    (chains, n_t) array takes its general iterator, at about twice the cost
    per call at these sizes (an add of 4 x 127 values: 2.9 us strided, 1.7
    us contiguous, on a 2-core Xeon).  Endpoint and padding lanes get a step
    of 0 and a uniform of 1.0, so they never accept.  Each site's values go
    through the IEEE operations of a per-site loop, so no bit changes.
    """
    if not streams:
        raise ValueError("need at least one stream")
    _check_sweeps(sweeps, thermalization)
    if proposal_width <= 0:
        raise ValueError("proposal_width must be positive")

    n_t = lattice.n_t
    gens = [stream.gen for stream in streams]
    chains = len(gens)
    # Exact free-particle bridge start.  From a cold (straight-line) start,
    # site-local updates equilibrate wavelength-L modes diffusively, in about
    # (n_t / pi)**2 sweeps for the longest one — far more than a typical run.
    # Drawing the start from the exact free-action bridge removes that
    # burn-in entirely for V = 0 and leaves only the fast, locally driven
    # relaxation toward V for interacting potentials.
    step_std = math.sqrt(dynamics.a_t)
    walk = np.zeros((chains, n_t))
    walk[:, 1:] = np.cumsum([gen.normal(0.0, step_std, size=n_t - 1)
                             for gen in gens], axis=1)
    bridge = walk - walk[:, -1:] * (np.arange(n_t) / (n_t - 1))
    paths = np.linspace(lattice.x_start, lattice.x_end, n_t) + bridge

    # Lane q of a chain's row holds site 2q in the even segment x[:n] and
    # site 2q + 1 in the odd segment x[n:].  Odd lane q's neighbours are even
    # lanes q and q + 1, even lane q's are odd lanes q - 1 and q; with the
    # even segment first, a read one past either end stays inside x.  The
    # padding lanes past n_t repeat the chain's end point, so the potential
    # only ever sees values the path takes.
    row = n_t // 2 + 1
    n = chains * row
    x = np.empty(2 * n)
    rows = x.reshape(2, chains, row)  # (colour, chain, lane) view
    rows[:] = paths[:, -1:]
    rows[0, :, :(n_t + 1) // 2] = paths[:, 0::2]
    rows[1, :, :n_t // 2] = paths[:, 1::2]
    # Squared links, carried between half-sweeps: odd lane q's to its left
    # neighbour in links[q], to its right one in links[n + q].  Each is the
    # square a fresh delta S would compute, from the same subtraction.
    links = np.concatenate([(x[n:] - x[:n]) ** 2, (x[1:n + 1] - x[n:]) ** 2])

    # Per (sweep of a tuning block, lane of x): steps, uniforms, decisions
    # and states.  A lane that is no interior site keeps a step of 0 and a
    # uniform of 1.0, which never accepts.
    steps = np.zeros((_TUNE_INTERVAL, 2 * n))
    uniforms = np.ones((_TUNE_INTERVAL, 2 * n))
    accepted = np.zeros((_TUNE_INTERVAL, 2 * n), dtype=bool)
    states = np.empty((_TUNE_INTERVAL, 2 * n))
    # Per colour, in sweep order: its sites, their left and right neighbours
    # and links to them (an even lane's left link is the right link of the
    # odd lane before it), its interior lanes in a row, the columns of a
    # sweep's draws holding its proposals and then its uniforms, and its
    # lanes of the block arrays.
    colours, per_sweep = [], 0
    for lane_block, first, neighbours in (
            (slice(n, 2 * n), 1, (x[:n], x[1:n + 1], links[:n], links[n:])),
            (slice(0, n), 2, (x[n - 1:2 * n - 1], x[n:],
                              links[n - 1:2 * n - 1], links[:n]))):
        size = len(range(first, n_t - 1, 2))
        if size:
            colours.append((x[lane_block], *neighbours,
                            slice(first // 2, first // 2 + size),
                            slice(per_sweep, per_sweep + size),
                            slice(per_sweep + size, per_sweep + 2 * size),
                            steps[:, lane_block], uniforms[:, lane_block],
                            accepted[:, lane_block]))
            per_sweep += 2 * size

    coef = 1.0 / (2.0 * dynamics.a_t)
    width = np.full((chains, 1, 1), float(proposal_width))
    trace = np.empty((chains, sweeps))
    kept = np.empty((chains, sweeps - thermalization, n_t))
    hits = np.zeros(chains, dtype=np.int64)  # measured accepted proposals
    draws = np.empty((chains, _TUNE_INTERVAL, per_sweep))
    snapshots = np.empty((chains, _TUNE_INTERVAL, n_t))
    # A proposal's sites, its squared links, and -delta S.
    new, left_sq, right_sq, log_p = np.empty((4, n))
    potential = dynamics.potential
    audit: list[list[np.ndarray]] = []
    audit_left = int(audit_proposals)

    def per_chain(decisions):
        """Accepted proposals of each chain in a (sweep, lane) block."""
        return decisions.reshape(-1, 2, chains, row).sum(axis=(0, 1, 3))

    for start in range(0, sweeps, _TUNE_INTERVAL):
        k = min(_TUNE_INTERVAL, sweeps - start)
        for gen, out in zip(gens, draws):
            gen.random(out=out[:k])
        for *_, lanes, proposals, uniform_cols, step, uniform, _ in colours:
            # gen.uniform(-w, w) is bitwise -w + 2w * gen.random().
            step.reshape(-1, chains, row)[:k, :, lanes] = (
                -width + 2.0 * width * draws[:, :k, proposals]).swapaxes(0, 1)
            uniform.reshape(-1, chains, row)[:k, :, lanes] = (
                draws[:, :k, uniform_cols].swapaxes(0, 1))
        for j, sweep in enumerate(range(start, start + k)):
            for (old, left, right, left_link, right_link, lanes, _, _,
                 step, uniform, decisions) in colours:
                accept = decisions[j]
                np.add(old, step[j], out=new)
                np.square(np.subtract(new, left, out=left_sq), out=left_sq)
                np.square(np.subtract(right, new, out=right_sq), out=right_sq)
                # -delta S, as (-coef) * d is bitwise -(coef * d).
                np.add(left_sq, right_sq, out=log_p)
                np.subtract(log_p, left_link, out=log_p)
                np.subtract(log_p, right_link, out=log_p)
                np.multiply(log_p, -coef, out=log_p)
                if potential is not None:
                    log_p -= dynamics.a_t * (
                        np.asarray(potential(new), dtype=float)
                        - np.asarray(potential(old), dtype=float))
                logging = audit_left > 0 and sweep >= thermalization
                if logging:
                    # delta S is never -0.0, so 0.0 - log_p is it bitwise.
                    delta_s = np.subtract(0.0, log_p)
                np.minimum(log_p, 0.0, out=log_p)
                np.exp(log_p, out=log_p)
                np.less(uniform[j], log_p, out=accept)
                np.putmask(old, accept, new)
                np.putmask(left_link, accept, left_sq)
                np.putmask(right_link, accept, right_sq)
                if logging:
                    take = min(audit_left, lanes.stop - lanes.start)
                    audit.append([
                        a.reshape(chains, row)[:, lanes][:, :take].copy()
                        for a in (delta_s, uniform[j], accept)])
                    audit_left -= take
            states[j] = x
        # One de-interleave per block, into site order, feeds the action
        # trace and the kept paths.
        lanes_of = states[:k].reshape(k, 2, chains, row).transpose(1, 2, 0, 3)
        snapshots[:, :k, 0::2] = lanes_of[0, :, :, :(n_t + 1) // 2]
        snapshots[:, :k, 1::2] = lanes_of[1, :, :, :n_t // 2]
        trace[:, start:start + k] = action(snapshots[:, :k], dynamics)
        measured = max(thermalization - start, 0)  # first measured sweep
        if measured >= k:
            rate = per_chain(accepted[:k]) / (k * (n_t - 2))
            width = np.clip(width * np.clip(rate / 0.5, 0.5, 2.0)[:, None, None],
                            1e-9, 1e9)
        else:
            hits += per_chain(accepted[measured:k])
            kept[:, start + measured - thermalization:
                 start + k - thermalization] = snapshots[:, measured:k]

    audit_arrays = [np.concatenate(parts, axis=1) for parts in zip(*audit)]
    ensembles = []
    for c in range(chains):
        measured_trace = trace[c, thermalization:]
        tau = _integrated_autocorrelation(measured_trace)
        stride = max(1, math.ceil(2.0 * tau))
        ensembles.append(PathEnsemble(
            # An owned copy, so the samples do not pin every measured sweep.
            paths=kept[c, ::stride].copy(),
            sample_actions=measured_trace[::stride],
            action_trace=trace[c],
            acceptance_rate=int(hits[c])
            / ((sweeps - thermalization) * (n_t - 2)),
            proposal_width=float(width[c, 0, 0]),
            stride=stride,
            tau_int=tau,
            lattice=lattice,
            audit=ProposalAudit(*(a[c] for a in audit_arrays)) if audit else None,
        ))
    return ensembles


def _coarse_increments(paths: np.ndarray, block: int) -> np.ndarray:
    """Increments of the anchored coarse paths [x_0, block means, x_last]."""
    n_t = paths.shape[1]
    n_blocks = n_t // block
    means = paths[:, : n_blocks * block].reshape(paths.shape[0], n_blocks,
                                                 block).mean(axis=2)
    coarse = np.concatenate(
        [paths[:, :1], means, paths[:, -1:]], axis=1)
    return np.diff(coarse, axis=1)


# Block-size window for the dimension fit.  Below _BLOCK_MIN the block-mean
# increment variance has not reached its sqrt(b) scaling regime; above
# n_t // _BLOCK_DENOM the fixed endpoints measurably suppress the coarse
# fluctuations (both effects bend the log-log fit upward in d_h).
_BLOCK_MIN = 4
_BLOCK_DENOM = 8


def hausdorff_scan(paths) -> HausdorffScan:
    """Length-versus-resolution scan over an ensemble of sampled paths.

    ``paths`` is an (n_paths, n_t) array.  Meaningful statistics want >= 100
    decorrelated paths; a single deterministic path is accepted for
    smooth-curve controls.  The scan requests 8 log-spaced dx values running
    a decade down from the coarsest achievable resolution
    sqrt(n_t // 8) * dx_1.  Each is mapped to the achievable block size b in
    [4, n_t // 8] whose resolution dx(b) = sqrt(b) * dx_1 is nearest in log
    space, duplicates collapse, and the power law is fitted on the achieved
    (dx, mean L) points.  dx_1 cancels, so the block sizes depend on n_t
    alone, and 3 distinct points need n_t // 8 >= 9.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[0] < 1:
        raise ValueError("paths must be a non-empty 2-d array")

    n_t = paths.shape[1]
    blocks = np.arange(_BLOCK_MIN, n_t // _BLOCK_DENOM + 1)
    if blocks.size < 3:
        raise FitError(
            f"n_t = {n_t} leaves fewer than 3 usable block sizes; "
            f"need n_t >= {(_BLOCK_MIN + 2) * _BLOCK_DENOM}")
    dx_1 = math.sqrt(float((np.diff(paths, axis=1) ** 2).mean()))
    if dx_1 <= 0:
        raise FitError("ensemble has no fluctuation scale (constant paths?)")
    achievable_dx = np.sqrt(blocks) * dx_1
    top = math.sqrt(n_t // _BLOCK_DENOM) * dx_1

    chosen: list[int] = []
    for r in np.geomspace(top, top / 10.0, 8):
        idx = int(np.argmin(np.abs(np.log(achievable_dx) - math.log(r))))
        if idx not in chosen:
            chosen.append(idx)
    if len(chosen) < 3:
        raise FitError(
            f"only {len(chosen)} distinct resolution points are achievable: "
            f"n_t = {n_t} allows block sizes [{_BLOCK_MIN}, "
            f"{n_t // _BLOCK_DENOM}]; use longer paths")

    sel = np.sort(np.array(chosen))[::-1]  # strictly decreasing dx
    lengths = np.array([
        float(np.abs(_coarse_increments(paths, int(b))).sum(axis=1).mean())
        for b in blocks[sel]])
    if np.any(lengths <= 0):
        raise FitError("coarse path lengths vanished; paths are degenerate")
    fit = fit_power_law(achievable_dx[sel], lengths)
    return HausdorffScan(
        resolutions=achievable_dx[sel],
        mean_lengths=lengths,
        alpha=fit.exponent,
        d_h=1.0 - fit.exponent,
        block_sizes=blocks[sel],
    )

