"""Tests for the Euclidean path sampler and the dimension scan."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from stochlab.core import RngStream
from stochlab.paths import (
    EuclideanAction,
    FitError,
    Lattice,
    action,
    hausdorff_scan,
    metropolis_batch,
    path_distance,
)
from stochlab.quantum import Grid1D, spectrum_gaps
from util import (RERUN_CONFIGS, brownian_bridge_paths, reference_metropolis,
                  traced_peak)


def zero_potential(x):
    return np.zeros_like(x)


def harmonic_potential(x):
    return 0.5 * x * x


def quartic_potential(x):
    return 0.25 * x**4


def blocked_std_error(series, n_blocks=20):
    """Standard error of the mean from block averages (correlation-safe)."""
    series = np.asarray(series, dtype=float)
    usable = (series.size // n_blocks) * n_blocks
    means = series[:usable].reshape(n_blocks, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_blocks)


# ---------------------------------------------------------------------------
# Types


def test_lattice_rejects_too_few_slices():
    with pytest.raises(ValueError):
        Lattice(n_t=2)


def test_dynamics_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        EuclideanAction(potential=zero_potential, a_t=-0.1)


# ---------------------------------------------------------------------------
# Action


def test_constant_path_has_zero_action():
    dyn = EuclideanAction(potential=zero_potential, a_t=0.3)
    assert action(np.full(50, 1.7), dyn) == 0.0


def test_single_kinetic_link():
    dyn = EuclideanAction(potential=zero_potential, a_t=1.0)
    assert action(np.array([0.0, 1.0]), dyn) == pytest.approx(0.5)


def test_action_matches_direct_resummation():
    a_t = 0.07
    dyn = EuclideanAction(potential=harmonic_potential, a_t=a_t)
    xs = np.linspace(0.0, 1.0, 100)
    expected = 0.0
    for j in range(99):
        expected += (xs[j + 1] - xs[j]) ** 2 / (2.0 * a_t)
    for j in range(100):
        weight = 0.5 if j in (0, 99) else 1.0
        expected += weight * a_t * harmonic_potential(xs[j])
    assert action(xs, dyn) == pytest.approx(expected, abs=1e-12)


@given(st.floats(-50, 50), st.integers(3, 40))
def test_any_constant_path_is_free_of_action(c, n_t):
    dyn = EuclideanAction(potential=zero_potential, a_t=0.2)
    assert action(np.full(n_t, c), dyn) == 0.0


# ---------------------------------------------------------------------------
# Path distance


def test_distance_of_path_to_itself_is_zero():
    dyn = EuclideanAction(harmonic_potential, 0.1)
    p = np.sin(np.arange(20))
    assert path_distance(p, p, dyn) == 0.0


def test_mirror_path_in_symmetric_potential_is_at_distance_zero():
    dyn = EuclideanAction(harmonic_potential, 0.1)
    gen = RngStream(3, 0).gen
    xs = gen.normal(size=24)
    assert path_distance(xs, -xs, dyn) == pytest.approx(0.0, abs=1e-12)
    assert not np.array_equal(xs, -xs)


def test_distance_equals_absolute_action_difference():
    dyn = EuclideanAction(harmonic_potential, 0.1)
    gen = RngStream(4, 0).gen
    p1, p2 = gen.normal(size=30), gen.normal(size=30)
    expected = abs(action(p1, dyn) - action(p2, dyn))
    assert path_distance(p1, p2, dyn) == expected
    assert path_distance(p2, p1, dyn) == expected


def test_distance_satisfies_triangle_inequality_on_sampled_triples():
    dyn = EuclideanAction(harmonic_potential, 0.1)
    gen = RngStream(5, 0).gen
    paths = gen.normal(size=(12, 16))
    for a in paths[:4]:
        for b in paths[4:8]:
            for c in paths[8:]:
                d_ac = path_distance(a, c, dyn)
                d_ab = path_distance(a, b, dyn)
                d_bc = path_distance(b, c, dyn)
                assert d_ac <= d_ab + d_bc + 1e-12


def test_distance_rejects_incompatible_lattices():
    dyn = EuclideanAction(zero_potential, 0.1)
    with pytest.raises(ValueError):
        path_distance(np.zeros(5), np.zeros(6), dyn)


# ---------------------------------------------------------------------------
# Metropolis sampler


@pytest.fixture(scope="module")
def free_run():
    dyn = EuclideanAction(potential=zero_potential, a_t=0.05)
    lattice = Lattice(n_t=64)
    return metropolis_batch(dyn, lattice, [RngStream(17, 0)],
                            sweeps=5000, thermalization=1000,
                            audit_proposals=1000)[0]


@pytest.fixture(scope="module")
def pooled_free_chains():
    """Eight independent free-particle chains at n_t = 128, pooled."""
    dyn = EuclideanAction(potential=zero_potential, a_t=0.05)
    lattice = Lattice(n_t=128)
    return metropolis_batch(dyn, lattice, [RngStream(33, k) for k in range(8)],
                            4000, 800)


def test_acceptance_rate_lands_in_tuned_window(free_run):
    assert 0.3 <= free_run.acceptance_rate <= 0.7


def test_free_action_matches_equipartition(free_run):
    # Each of the n_t - 1 kinetic links carries 1/2 (hbar = 1) on average, minus one
    # link's worth for the fixed-endpoint constraint.
    expected = (64 - 2) * 0.5
    err = blocked_std_error(free_run.sample_actions)
    assert abs(free_run.sample_actions.mean() - expected) < 3.0 * err


def test_sampled_endpoints_stay_fixed(free_run):
    assert np.all(free_run.paths[:, 0] == 0.0)
    assert np.all(free_run.paths[:, -1] == 0.0)


def test_trace_covers_every_sweep_and_samples_are_strided(free_run):
    assert free_run.action_trace.shape == (5000,)
    expected = math.ceil(4000 / free_run.stride)
    assert free_run.paths.shape == (expected, 64)
    assert free_run.sample_actions.shape == (expected,)
    assert free_run.stride == math.ceil(2.0 * free_run.tau_int)


def test_thinned_samples_own_their_memory(free_run, pooled_free_chains):
    # A view would keep every measured sweep of the chain (or batch) alive.
    for run in (free_run, *pooled_free_chains):
        assert run.paths.flags.owndata and run.paths.flags.c_contiguous


# (potential, n_t, a_t, chains, sweeps, thermalization, audit_proposals):
# odd and even n_t, a lone interior site, runs that end mid-block and
# thermalization that ends mid tuning interval.
# (potential, n_t, a_t, chains, sweeps, thermalization, audit_proposals)
_BATCH_CASES = {
    "harmonic": (harmonic_potential, 33, 0.1, 3, 260, 60, 0),
    "free-audit": (zero_potential, 18, 0.05, 2, 130, 75, 40),
    "single-chain": (harmonic_potential, 3, 0.1, 1, 90, 30, 5),
    "none-audit": (None, 17, 0.05, 3, 140, 50, 30),
    # One interior site of each colour.
    "n_t-4": (harmonic_potential, 4, 0.1, 3, 110, 50, 6),
    # The even colour's last lane holds the endpoint, not padding.
    "odd-n_t-quartic": (quartic_potential, 9, 0.1, 2, 120, 50, 9),
    # Nine chains, whose strides differ (checked below).
    "nine-chains": (harmonic_potential, 12, 0.1, 9, 160, 40, 0),
    "no-thermalization": (None, 20, 0.05, 2, 80, 0, 12),
    # Measurement starts inside a 25-sweep tuning block.
    "thermalization-mid-block": (harmonic_potential, 16, 0.1, 2, 120, 37, 20),
}


def _assert_bitwise_equal(ours, theirs):
    if isinstance(theirs, dict):
        for key, value in theirs.items():
            _assert_bitwise_equal(ours[key], value)
    elif isinstance(theirs, np.ndarray):
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
        assert ours.tobytes() == theirs.tobytes()
    else:
        assert ours == theirs


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_batch_equals_separate_chains_and_reference_loop(case):
    potential, n_t, a_t, chains, sweeps, therm, audit = _BATCH_CASES[case]
    dyn = EuclideanAction(potential, a_t)
    lat = Lattice(n_t, x_start=0.5)
    args = (sweeps, therm, 0.7, audit)
    streams = [RngStream(61, k) for k in range(chains)]
    batch = metropolis_batch(dyn, lat, streams, *args)
    assert len(batch) == chains
    for k, run in enumerate(batch):
        assert (run.audit is None) == (audit == 0)
        if audit:
            assert run.audit.delta_s.shape == (audit,)
        single_stream, reference_stream = RngStream(61, k), RngStream(61, k)
        single = metropolis_batch(dyn, lat, [single_stream], *args)[0]
        _assert_bitwise_equal(dataclasses.asdict(run), dataclasses.asdict(single))
        _assert_bitwise_equal(dataclasses.asdict(run), reference_metropolis(
            dyn, lat, reference_stream, *args))
        # Block draws never run ahead: each stream ends where the loop's does.
        assert (streams[k].gen.random() == single_stream.gen.random()
                == reference_stream.gen.random())


def test_nine_chain_case_has_differing_strides():
    potential, n_t, a_t, chains, sweeps, therm, audit = _BATCH_CASES[
        "nine-chains"]
    runs = metropolis_batch(EuclideanAction(potential, a_t),
                            Lattice(n_t, x_start=0.5),
                            [RngStream(61, k) for k in range(chains)],
                            sweeps, therm, 0.7, audit)
    assert len({run.stride for run in runs}) > 1


@pytest.mark.parametrize("potential", [None, harmonic_potential,
                                       quartic_potential, np.zeros_like],
                         ids=["free", "harmonic", "quartic", "zeros"])
def test_batch_raises_no_floating_point_error(potential):
    # The endpoint and padding lanes of the sampler's buffer go through the
    # same arithmetic as the interior sites; none of it may overflow, divide
    # by zero or make a NaN at the golden configuration's sizes.
    config = RERUN_CONFIGS["paths"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        runs = metropolis_batch(
            EuclideanAction(potential, 0.05), Lattice(int(config["n_t"])),
            [RngStream(29, k) for k in range(int(config["chains"]))],
            int(config["sweeps"]), int(config["thermalization"]))
    assert all(np.isfinite(run.action_trace).all() for run in runs)


def test_batch_evaluates_the_potential_only_at_path_values():
    # 1 / x**2 is singular at 0, which these paths from 5 to 5 never reach;
    # a padding lane holding 0.0 would divide by zero.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        metropolis_batch(EuclideanAction(lambda x: 1.0 / (x * x), 0.05),
                         Lattice(16, x_start=5.0, x_end=5.0),
                         [RngStream(37, k) for k in range(3)], 200, 50)


def test_batch_holds_no_second_path_sized_buffer():
    # Beyond the kept sweeps and the thinned copies the ensembles return,
    # the sampler's working set is a few tuning blocks.
    chains, sweeps, n_t = 4, 9000, 256
    runs, peak = traced_peak(metropolis_batch,
                             EuclideanAction(None, 0.05), Lattice(n_t),
                             [RngStream(31, k) for k in range(chains)],
                             sweeps, 0)
    kept_bytes = chains * sweeps * n_t * 8
    returned = sum(run.paths.nbytes for run in runs)
    assert peak < kept_bytes + returned + 4 * 2**20


@pytest.mark.parametrize("thermalization", [50, 37])
def test_none_potential_equals_zeros_potential_bitwise(thermalization):
    # The kernel skips V = None; V = 0 adds +0.0 to a delta S and an action
    # that are never -0.0.  Byte equality includes every sign bit.
    lat = Lattice(20, x_start=0.3)
    runs = [metropolis_batch(EuclideanAction(potential, 0.05), lat,
                             [RngStream(83, k) for k in range(2)], 120,
                             thermalization, 0.7, 25)
            for potential in (None, zero_potential)]
    for skipped, evaluated in zip(*runs):
        _assert_bitwise_equal(dataclasses.asdict(skipped),
                              dataclasses.asdict(evaluated))


def test_action_with_none_potential_equals_zeros_potential_bitwise():
    # The last input is a (k, n_t) batch, as the sampler's trace passes: each
    # row's action is bit for bit that row's own, with V skipped or evaluated.
    rng = np.random.default_rng(5)
    for shape in (2, 3, 64, (25, 64)):
        paths = rng.normal(size=shape)
        skipped, evaluated, harmonic = (
            np.asarray(action(paths, EuclideanAction(potential, 0.05)))
            for potential in (None, zero_potential, harmonic_potential))
        assert skipped.tobytes() == evaluated.tobytes()
        for potential, actions in ((None, skipped),
                                   (harmonic_potential, harmonic)):
            dyn = EuclideanAction(potential, 0.05)
            rows = [action(row, dyn)
                    for row in paths.reshape(-1, paths.shape[-1])]
            assert actions.tobytes() == np.array(rows).tobytes()


def test_batch_needs_a_stream():
    with pytest.raises(ValueError):
        metropolis_batch(EuclideanAction(zero_potential, 0.1),
                         Lattice(16), [], 10, 0)


def test_action_histogram_is_near_gaussian(pooled_free_chains):
    actions = np.concatenate([r.sample_actions for r in pooled_free_chains])
    assert abs(stats.skew(actions)) < 0.5
    assert abs(stats.kurtosis(actions)) < 1.0


def test_audit_confirms_metropolis_rule(free_run):
    audit = free_run.audit
    assert audit.delta_s.shape == (1000,)
    threshold = np.exp(np.minimum(-audit.delta_s, 0.0))
    np.testing.assert_array_equal(audit.accepted, audit.uniforms < threshold)
    # The empirical acceptance fraction must match the mean Metropolis
    # probability of the same proposals (binomial 3-sigma).
    p = threshold.mean()
    sigma = math.sqrt(p * (1.0 - p) / 1000)
    assert abs(audit.accepted.mean() - p) < 3.0 * sigma + 1e-9


def test_same_stream_reproduces_bitwise():
    dyn = EuclideanAction(zero_potential, 0.1)
    lat = Lattice(32)
    a = metropolis_batch(dyn, lat, [RngStream(9, 1)], 300, 100)[0]
    b = metropolis_batch(dyn, lat, [RngStream(9, 1)], 300, 100)[0]
    np.testing.assert_array_equal(a.paths, b.paths)
    assert a.proposal_width == b.proposal_width
    c = metropolis_batch(dyn, lat, [RngStream(9, 2)], 300, 100)[0]
    assert not np.array_equal(a.paths, c.paths)


def test_nonzero_endpoints_are_respected():
    dyn = EuclideanAction(zero_potential, 0.1)
    lat = Lattice(32, x_start=-1.0, x_end=2.0)
    run = metropolis_batch(dyn, lat, [RngStream(9, 3)], 200, 50)[0]
    assert np.all(run.paths[:, 0] == -1.0)
    assert np.all(run.paths[:, -1] == 2.0)


def test_sampler_validates_arguments():
    dyn = EuclideanAction(zero_potential, 0.1)
    lat = Lattice(16)
    with pytest.raises(ValueError):
        metropolis_batch(dyn, lat, [RngStream(1)], sweeps=10, thermalization=10)
    with pytest.raises(ValueError):
        metropolis_batch(dyn, lat, [RngStream(1)], sweeps=10, thermalization=-1)
    with pytest.raises(ValueError):
        metropolis_batch(dyn, lat, [RngStream(1)], 10, 0, proposal_width=0.0)


def test_harmonic_spread_matches_eigensolver_ground_state():
    # Dual route: Markov-chain <x^2> against the tridiagonal eigensolver's
    # ground-state spread for the same potential.  Total time T = 32 is deep
    # in the ground-state regime, but the pinned endpoints suppress <x^2>
    # within ~1/omega of either end, so the average runs over the central
    # half only (there the suppression is ~e^-16).  Chain-to-chain scatter
    # of six independent streams gives a correlation-honest error bar; the
    # 3e-3 term allows for the leading lattice bias at a_t = 0.2.
    a_t, n_t = 0.2, 160
    dyn = EuclideanAction(harmonic_potential, a_t)
    runs = metropolis_batch(dyn, Lattice(n_t),
                            [RngStream(23, k) for k in range(6)],
                            sweeps=4500, thermalization=1200)
    chain_means = [float((run.paths[:, 40:120] ** 2).mean()) for run in runs]
    mc = float(np.mean(chain_means))
    sem = float(np.std(chain_means, ddof=1)) / math.sqrt(len(chain_means))

    grid = Grid1D(-8.0, 8.0, 1200)
    spectrum = spectrum_gaps(harmonic_potential, grid, n_levels=2,
                             return_states=True)
    ground = spectrum.states[:, 0]
    h = 16.0 / (1200 + 1)
    eig = float((spectrum.grid_points ** 2 * ground ** 2).sum() * h)
    assert eig == pytest.approx(0.5, abs=1e-3)
    assert abs(mc - eig) < 3.0 * sem + 3e-3


# ---------------------------------------------------------------------------
# Dimension scan


def test_exact_bridge_ensemble_scans_to_dimension_two():
    paths = brownian_bridge_paths(4000, 256, step_var=0.05, rng=RngStream(29, 0))
    scan = hausdorff_scan(paths)
    assert 1.9 <= scan.d_h <= 2.1
    assert scan.alpha == pytest.approx(1.0 - scan.d_h)
    # Coarse length must grow as resolution is refined (wiggly path).
    assert scan.mean_lengths[0] < scan.mean_lengths[-1]


def test_straight_line_scans_to_dimension_one_exactly():
    line = np.linspace(0.0, 3.0, 256)[None, :]
    scan = hausdorff_scan(line)
    assert scan.d_h == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(scan.mean_lengths, 3.0, rtol=1e-12)


def test_metropolis_free_ensemble_scans_to_dimension_two(pooled_free_chains):
    pooled = np.concatenate([r.paths for r in pooled_free_chains])
    scan = hausdorff_scan(pooled)
    assert 1.9 <= scan.d_h <= 2.1


def test_dimension_is_stable_under_slice_doubling():
    # Same physical extent, twice the slices: the estimate moves < 0.1.
    estimates = []
    for n_t, a_t in ((128, 0.1), (256, 0.05)):
        dyn = EuclideanAction(zero_potential, a_t)
        lat = Lattice(n_t)
        pooled = np.concatenate([
            run.paths for run in metropolis_batch(
                dyn, lat, [RngStream(47, k) for k in range(10)], 5000, 1000)])
        estimates.append(hausdorff_scan(pooled).d_h)
    assert abs(estimates[1] - estimates[0]) < 0.1


def test_scan_reports_decreasing_resolutions_and_blocks():
    paths = brownian_bridge_paths(500, 256, 0.05, RngStream(29, 1))
    scan = hausdorff_scan(paths)
    assert np.all(np.diff(scan.resolutions) < 0)
    assert np.all(np.diff(scan.block_sizes) < 0)
    assert len(scan.resolutions) >= 3


def test_scan_rejects_constant_ensemble():
    with pytest.raises(FitError):
        hausdorff_scan(np.ones((200, 256)))


def test_scan_needs_enough_slices_for_three_blocks():
    paths = brownian_bridge_paths(200, 40, 0.05, RngStream(29, 4))
    with pytest.raises(FitError):
        hausdorff_scan(paths)


def test_ladder_scan_needs_72_slices():
    # The scan's 8 requested resolutions collapse onto 2 block sizes while
    # n_t // 8 < 9, whatever the paths: the fine scale cancels out.
    short = brownian_bridge_paths(50, 71, 0.05, RngStream(29, 6))
    with pytest.raises(FitError, match=r"^only 2 .* n_t = 71 allows block "
                                       r"sizes \[4, 8\]; use longer paths"):
        hausdorff_scan(short)
    paths = brownian_bridge_paths(50, 72, 0.05, RngStream(29, 7))
    scan = hausdorff_scan(paths)
    assert scan.block_sizes.tolist() == [9, 5, 4]
