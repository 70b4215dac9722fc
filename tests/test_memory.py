import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import hadamard

from stochlab.core import RngStream
from stochlab.memory import (
    _half_space_energies,
    AnnealSchedule,
    CapabilityError,
    CouplingMatrix,
    SpinConfig,
    energy,
    exact_thermo,
    flip_spins,
    ground_state_bruteforce,
    hebbian_couplings,
    overlap,
    simulated_annealing,
    sk_couplings,
    zero_t_dynamics,
)
from util import reference_anneal, traced_peak


def _pairwise_energy(spins, j):
    """Literal double-loop -sum_{i<j} J_ij s_i s_j, used as an oracle."""
    total = 0.0
    n = len(spins)
    for i in range(n):
        for k in range(i + 1, n):
            total -= j[i, k] * spins[i] * spins[k]
    return total


def _zero_couplings(n):
    return CouplingMatrix(np.zeros((n, n)))


def _ferromagnet(n):
    j = np.full((n, n), 1.0 / n)
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix(j)


# ---------------------------------------------------------------- types


def test_spin_config_rejects_values_off_the_unit_magnitude():
    with pytest.raises(ValueError):
        SpinConfig(np.array([1, 0, -1]))


def test_spin_config_rejects_empty_and_multidimensional_input():
    with pytest.raises(ValueError):
        SpinConfig(np.array([]))
    with pytest.raises(ValueError):
        SpinConfig(np.ones((2, 2)))


def test_spin_config_buffer_is_read_only():
    config = SpinConfig(np.array([1, -1, 1]))
    with pytest.raises(ValueError):
        config.spins[0] = -1


def test_random_config_is_reproducible_and_valid():
    a = SpinConfig.random(64, RngStream(40, 0))
    b = SpinConfig.random(64, RngStream(40, 0))
    assert np.array_equal(a.spins, b.spins)
    assert set(np.unique(a.spins)) <= {-1, 1}


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        CouplingMatrix(np.zeros((2, 3)))
    asym = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        CouplingMatrix(asym)
    diag = np.array([[1.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        CouplingMatrix(diag)


def test_anneal_schedule_validation_and_temperatures():
    for bad in [
        dict(t_initial=0.0, ratio=0.5, levels=3, sweeps_per_level=1),
        dict(t_initial=1.0, ratio=1.0, levels=3, sweeps_per_level=1),
        dict(t_initial=1.0, ratio=0.0, levels=3, sweeps_per_level=1),
        dict(t_initial=1.0, ratio=0.5, levels=0, sweeps_per_level=1),
        dict(t_initial=1.0, ratio=0.5, levels=3, sweeps_per_level=0),
    ]:
        with pytest.raises(ValueError):
            AnnealSchedule(**bad)
    temps = AnnealSchedule(2.0, 0.5, 4, 1).temperatures
    assert np.allclose(temps, [2.0, 1.0, 0.5, 0.25])
    assert np.all(np.diff(temps) < 0)


# ---------------------------------------------------------------- couplings


def test_single_stored_pattern_sits_at_minus_two_for_five_spins():
    pattern = SpinConfig(np.array([1, -1, 1, 1, -1]))
    j = hebbian_couplings([pattern])
    assert energy(pattern, j) == pytest.approx(-2.0, abs=1e-12)
    mirrored = SpinConfig(-pattern.spins)
    assert energy(mirrored, j) == pytest.approx(-2.0, abs=1e-12)


def test_hebbian_matrix_shape_and_symmetry():
    rng = RngStream(41, 0)
    pats = [SpinConfig.random(20, rng) for _ in range(3)]
    j = hebbian_couplings(pats)
    assert np.array_equal(j.j, j.j.T)
    assert np.all(np.diag(j.j) == 0.0)


def test_hebbian_rejects_mismatched_or_missing_patterns():
    with pytest.raises(ValueError):
        hebbian_couplings([])
    rng = RngStream(41, 1)
    with pytest.raises(ValueError):
        hebbian_couplings([SpinConfig.random(8, rng), SpinConfig.random(9, rng)])


def test_two_stored_patterns_are_both_single_flip_stable():
    rng = RngStream(42, 0)
    pats = [SpinConfig.random(50, rng) for _ in range(2)]
    j = hebbian_couplings(pats)
    for pat in pats:
        s = pat.spins.astype(float)
        fields = j.j @ s
        # flipping spin i changes H by 2 s_i h_i, which must not be negative
        assert np.all(2.0 * s * fields >= 0.0)


def test_orthogonal_patterns_are_local_minima_below_the_loading_bound():
    # Walsh rows are exactly orthogonal; p = 3 <= 0.05 * 64.
    rows = hadamard(64)[1:4]
    pats = [SpinConfig(row.astype(np.int8)) for row in rows]
    j = hebbian_couplings(pats)
    for pat in pats:
        s = pat.spins.astype(float)
        assert np.all(2.0 * s * (j.j @ s) >= 0.0)


def test_sk_couplings_match_the_declared_distribution():
    n = 1000
    j = sk_couplings(n, RngStream(43, 0))
    assert np.array_equal(j.j, j.j.T)
    assert np.all(np.diag(j.j) == 0.0)
    off = j.j[np.triu_indices(n, 1)]
    assert off.var() == pytest.approx(1.0 / n, rel=0.1)
    assert abs(off.mean()) < 3.0 * math.sqrt(1.0 / n / off.size)


def test_sk_couplings_reject_tiny_systems_and_reproduce():
    with pytest.raises(ValueError):
        sk_couplings(1, RngStream(43, 1))
    a = sk_couplings(12, RngStream(43, 2))
    b = sk_couplings(12, RngStream(43, 2))
    assert np.array_equal(a.j, b.j)


# ---------------------------------------------------------------- energy


def test_two_spin_energies_are_exact():
    j = CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert energy(SpinConfig([1, 1]), j) == -1.0
    assert energy(SpinConfig([-1, -1]), j) == -1.0
    assert energy(SpinConfig([1, -1]), j) == 1.0


def test_energy_agrees_with_double_loop_resummation():
    rng = RngStream(44, 0)
    j = sk_couplings(10, rng)
    for _ in range(20):
        config = SpinConfig.random(10, rng)
        expected = _pairwise_energy(config.spins, j.j)
        assert energy(config, j) == pytest.approx(expected, abs=1e-12)


def test_energy_rejects_size_mismatch():
    with pytest.raises(ValueError):
        energy(SpinConfig([1, -1, 1]), _zero_couplings(2))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 8))
def test_energy_is_invariant_under_global_spin_flip(seed, n):
    rng = RngStream(45, seed % 1000)
    j = sk_couplings(n, rng.substream(seed))
    config = SpinConfig.random(n, rng.substream(seed + 1))
    mirrored = SpinConfig(-config.spins)
    assert energy(config, j) == energy(mirrored, j)


def test_overlap_and_corruption_helpers():
    rng = RngStream(46, 0)
    config = SpinConfig.random(40, rng)
    assert overlap(config, config) == 1.0
    assert overlap(config, SpinConfig(-config.spins)) == -1.0
    bent = flip_spins(config, 4, rng)
    assert int((bent.spins != config.spins).sum()) == 4
    with pytest.raises(ValueError):
        flip_spins(config, 41, rng)
    with pytest.raises(ValueError):
        overlap(config, SpinConfig.random(39, rng))


# ---------------------------------------------------------------- descent


def test_stored_pattern_is_returned_unchanged_after_one_sweep():
    rng = RngStream(47, 0)
    pattern = SpinConfig.random(30, rng)
    j = hebbian_couplings([pattern])
    result = zero_t_dynamics(pattern, j, rng)
    assert np.array_equal(result.config.spins, pattern.spins)
    assert result.sweeps_used == 1
    assert result.converged
    assert np.array_equal(result.overlap_trace, [1.0, 1.0])


def test_corrupted_pattern_is_repaired_to_high_overlap():
    rng = RngStream(47, 1)
    pats = [SpinConfig.random(50, rng) for _ in range(2)]
    j = hebbian_couplings(pats)
    start = flip_spins(pats[0], 5, rng)
    result = zero_t_dynamics(start, j, rng)
    assert result.converged
    assert overlap(result.config, pats[0]) >= 0.95
    assert np.all(np.diff(result.energy_trace) <= 1e-12)


def test_descent_energy_never_rises_from_random_starts():
    rng = RngStream(47, 2)
    j = sk_couplings(24, rng.substream(0))
    for k in range(5):
        start = SpinConfig.random(24, rng.substream(k + 1))
        result = zero_t_dynamics(start, j, rng.substream(100 + k))
        assert np.all(np.diff(result.energy_trace) <= 1e-12)
        # the fixed point really is single-flip stable
        s = result.config.spins.astype(float)
        assert np.all(2.0 * s * (j.j @ s) >= 0.0)


def test_exhausted_sweep_budget_sets_the_flag_instead_of_raising():
    rng = RngStream(47, 3)
    j = sk_couplings(40, rng.substream(0))
    start = SpinConfig.random(40, rng.substream(1))
    result = zero_t_dynamics(start, j, rng.substream(2), max_sweeps=1)
    assert result.sweeps_used == 1
    assert not result.converged


def test_descent_validation():
    rng = RngStream(47, 4)
    j = _zero_couplings(4)
    with pytest.raises(ValueError):
        zero_t_dynamics(SpinConfig([1, -1, 1]), j, rng)
    with pytest.raises(ValueError):
        zero_t_dynamics(SpinConfig([1, -1, 1, 1]), j, rng, max_sweeps=0)


# ---------------------------------------------------------------- thermo


def test_free_spins_partition_function_counts_all_states():
    state = exact_thermo(_zero_couplings(5), 1.7)
    assert state.partition_z == pytest.approx(32.0, rel=1e-12)
    assert state.free_energy == pytest.approx(-1.7 * 5 * math.log(2.0), rel=1e-12)


def test_two_spin_partition_function_closed_form():
    j = CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    state = exact_thermo(j, 1.0)
    assert state.partition_z == pytest.approx(2 * math.e + 2 / math.e, rel=1e-12)
    assert state.free_energy == pytest.approx(-math.log(2 * math.e + 2 / math.e),
                                              rel=1e-12)


def test_hot_limit_recovers_the_entropy_of_free_spins():
    rng = RngStream(48, 0)
    j = sk_couplings(10, rng)
    t_hot = 100.0 * np.abs(j.j).max() * 10
    state = exact_thermo(j, t_hot)
    assert state.free_energy / (-t_hot) == pytest.approx(10 * math.log(2.0),
                                                         rel=0.01)


def test_free_energy_is_minus_t_log_z_when_z_is_finite():
    rng = RngStream(48, 1)
    j = sk_couplings(8, rng)
    state = exact_thermo(j, 0.9)
    assert math.isfinite(state.partition_z)
    assert state.free_energy == pytest.approx(-0.9 * math.log(state.partition_z),
                                              rel=1e-12)


def test_cold_limit_overflows_z_but_keeps_free_energy_finite():
    rng = RngStream(48, 2)
    j = sk_couplings(16, rng)
    _, ground = ground_state_bruteforce(j)
    state = exact_thermo(j, 1e-3)
    assert math.isinf(state.partition_z)
    assert math.isfinite(state.free_energy)
    assert abs(state.free_energy - ground) < 0.02


def test_boltzmann_weights_normalize_against_independent_enumeration():
    rng = RngStream(48, 3)
    j = sk_couplings(8, rng)
    t = 1.1
    state = exact_thermo(j, t)
    z = 0.0
    for spins in itertools.product((-1, 1), repeat=8):
        z += math.exp(-_pairwise_energy(np.array(spins), j.j) / t)
    assert z == pytest.approx(state.partition_z, rel=1e-10)
    assert z / state.partition_z == pytest.approx(1.0, rel=1e-10)


def test_mean_energy_matches_the_free_energy_derivative():
    rng = RngStream(48, 4)
    j = sk_couplings(12, rng)
    t = 1.3
    delta = 1e-3 * t
    state = exact_thermo(j, t)
    upper = exact_thermo(j, t + delta).free_energy / (t + delta)
    lower = exact_thermo(j, t - delta).free_energy / (t - delta)
    derived = -t * t * (upper - lower) / (2 * delta)
    assert derived == pytest.approx(state.mean_energy, rel=1e-4)


def test_thermo_validation_and_capability_bound():
    with pytest.raises(ValueError):
        exact_thermo(_zero_couplings(4), 0.0)
    with pytest.raises(CapabilityError):
        exact_thermo(_zero_couplings(25), 1.0)


# ---------------------------------------------------------------- ground state


def test_coupling_free_ground_state_is_the_lexicographic_first_config():
    # At n = 14 the half space spans two 4,096-row chunks, so the tie is
    # also broken across chunks.
    for n in (6, 14):
        config, ground = ground_state_bruteforce(_zero_couplings(n))
        assert ground == 0.0
        assert np.array_equal(config.spins, -np.ones(n, dtype=np.int8))


def test_ferromagnet_ground_state_is_aligned_with_tie_broken_down():
    n = 9
    config, ground = ground_state_bruteforce(_ferromagnet(n))
    assert ground == pytest.approx(-(n - 1) / 2.0, rel=1e-12)
    assert np.array_equal(config.spins, -np.ones(n, dtype=np.int8))


def test_bruteforce_agrees_with_naive_enumeration():
    rng = RngStream(49, 0)
    j = sk_couplings(10, rng)
    config, ground = ground_state_bruteforce(j)
    best = min(
        _pairwise_energy(np.array(spins), j.j)
        for spins in itertools.product((-1, 1), repeat=10)
    )
    assert ground == pytest.approx(best, abs=1e-12)
    assert energy(config, j) == pytest.approx(ground, abs=1e-12)


def _half_space_spins(n):
    """Float spins of the spin-0 = +1 half space in enumeration order: spin
    i >= 1 of config ``index`` is -1 when bit (i - 1) of the index is set."""
    index = np.arange(1 << (n - 1))
    spins = np.ones((index.size, n))
    spins[:, 1:] -= 2 * ((index[:, None] >> np.arange(n - 1)) & 1)
    return spins


def _index_ordered(j, chunk):
    """The energies of ``_half_space_energies(j, chunk)`` in index order,
    after checking that it yields 2^m chunks and chunk c holds the indices
    c, c + 2^m, c + 2 * 2^m, ..."""
    total = 1 << (j.shape[0] - 1)
    chunks = list(_half_space_energies(j, chunk))
    rows = min(1 << (chunk.bit_length() - 1), total)
    stride = total // rows
    assert [where for where, _ in chunks] == [slice(c, total, stride)
                                              for c in range(stride)]
    energies = np.empty(total)
    for where, h in chunks:
        energies[where] = h
    return energies


# Chunks of 100 and 1000 rows are rounded down to 64 and 512.
@pytest.mark.parametrize("n, chunk", [(2, 1 << 18), (8, 1 << 18), (9, 1 << 18),
                                     (10, 64), (10, 100), (17, 1000),
                                     (17, 1024)])
def test_half_space_spins_read_the_index_bits(n, chunk):
    # Each energy is -s.J.s/2 of the spins its index's bits give.
    j = sk_couplings(n, RngStream(49, n)).j
    got = _index_ordered(j, chunk)
    s = _half_space_spins(n)
    np.testing.assert_allclose(got, -0.5 * np.einsum("ri,ij,rj->r", s, j, s),
                               rtol=0, atol=1e-12)
    # To the bit: each field F = s.J summed left to right over the spins
    # from +0.0, then -s.F/2 summed along each row.
    fields = np.zeros_like(s)
    for k in range(n):
        fields += s[:, k:k + 1] * j[k]
    fields *= s
    want = fields.sum(axis=1)
    want *= -0.5
    assert got.tobytes() == want.tobytes()


def test_n17_energies_are_byte_equal_at_any_chunk():
    for instance in range(3):
        j = sk_couplings(17, RngStream(49, 17 + instance)).j
        whole = _index_ordered(j, 1 << 18)
        for chunk in (1024, 1 << 12):
            assert _index_ordered(j, chunk).tobytes() == whole.tobytes()


def _bruteforce_peak_per_chunk_spin(n):
    couplings = sk_couplings(n, RngStream(49, 1))
    _, peak = traced_peak(ground_state_bruteforce, couplings)
    return peak / ((1 << 12) * n)


def test_bruteforce_memory_at_n16():
    # Per spin of a 2^12-row chunk: 8 bytes for the float64 field buffer,
    # which every chunk refills in place, and at n = 16 another 0.5 for a
    # chunk's float64 energies (8 bytes a row) and 1 for the 64 KiB buffer
    # of numpy's broadcast adds.  A field buffer over the 2^15 rows of the
    # half space would take 64 bytes.
    assert _bruteforce_peak_per_chunk_spin(16) <= 10


def test_bruteforce_memory_at_n20_is_one_chunk():
    # The same bound: a field buffer of 2^18 rows (42 MB) would take 512
    # bytes per chunk spin.
    assert _bruteforce_peak_per_chunk_spin(20) <= 10


def test_bruteforce_capability_bound():
    with pytest.raises(CapabilityError):
        ground_state_bruteforce(_zero_couplings(25))


# ---------------------------------------------------------------- annealing


def test_annealing_finds_the_exact_ground_state_of_a_frozen_instance():
    rng = RngStream(50, 0)
    j = sk_couplings(16, rng.substream(0))
    _, ground = ground_state_bruteforce(j)
    schedule = AnnealSchedule(t_initial=2.0, ratio=0.95, levels=120,
                              sweeps_per_level=50)
    result = simulated_annealing(j, schedule, rng.substream(1))
    assert result.energy == pytest.approx(ground, abs=1e-9)


def test_annealing_bookkeeping_is_self_consistent():
    rng = RngStream(50, 1)
    j = sk_couplings(12, rng.substream(0))
    schedule = AnnealSchedule(t_initial=2.0, ratio=0.9, levels=30,
                              sweeps_per_level=10)
    result = simulated_annealing(j, schedule, rng.substream(1))
    assert result.acceptance_trace.shape == (30,)
    assert np.all((result.acceptance_trace >= 0) & (result.acceptance_trace <= 1))
    assert np.all(np.diff(result.best_energy_trace) <= 1e-12)
    assert result.energy == result.best_energy_trace[-1]
    assert energy(result.config, j) == pytest.approx(result.energy, abs=1e-9)


def test_annealing_accepts_nearly_everything_when_scalding_hot():
    rng = RngStream(50, 2)
    j = sk_couplings(16, rng.substream(0))
    hot = AnnealSchedule(t_initial=1e6, ratio=0.5, levels=1, sweeps_per_level=50)
    result = simulated_annealing(j, hot, rng.substream(1))
    assert result.acceptance_trace[0] > 0.99


def test_slow_cooling_is_never_worse_on_average_than_a_quench():
    quench = AnnealSchedule(t_initial=2.0, ratio=0.5, levels=4, sweeps_per_level=2)
    slow = AnnealSchedule(t_initial=2.0, ratio=0.5 ** 0.1, levels=40,
                          sweeps_per_level=2)
    quench_e, slow_e = [], []
    for seed in range(100):
        rng = RngStream(94, seed)
        j = sk_couplings(16, rng.substream(0))
        quench_e.append(simulated_annealing(j, quench, rng.substream(1)).energy)
        slow_e.append(simulated_annealing(j, slow, rng.substream(2)).energy)
    assert np.mean(slow_e) <= np.mean(quench_e)


def test_annealing_is_reproducible():
    schedule = AnnealSchedule(t_initial=2.0, ratio=0.9, levels=20,
                              sweeps_per_level=5)
    runs = []
    for _ in range(2):
        rng = RngStream(50, 3)
        j = sk_couplings(10, rng.substream(0))
        runs.append(simulated_annealing(j, schedule, rng.substream(1)))
    assert np.array_equal(runs[0].config.spins, runs[1].config.spins)
    assert runs[0].energy == runs[1].energy
    assert np.array_equal(runs[0].acceptance_trace, runs[1].acceptance_trace)


@pytest.mark.parametrize("n", [2, 5, 16, 50])
def test_annealing_matches_the_array_loop_byte_for_byte(n):
    j = sk_couplings(n, RngStream(51, n))
    schedule = AnnealSchedule(t_initial=3.0, ratio=0.7, levels=12,
                              sweeps_per_level=6)
    streams = [RngStream(52, n), RngStream(52, n)]
    got = simulated_annealing(j, schedule, streams[0])
    want = reference_anneal(j, schedule, streams[1])
    assert got.config.spins.tobytes() == want.config.spins.tobytes()
    assert float(got.energy) == float(want.energy)
    assert got.acceptance_trace.tobytes() == want.acceptance_trace.tobytes()
    assert got.best_energy_trace.tobytes() == want.best_energy_trace.tobytes()
    # Both streams stop at the same position.
    assert (streams[0].gen.random(4).tobytes()
            == streams[1].gen.random(4).tobytes())


@pytest.mark.parametrize("n, rows", [(1, 3), (2, 1), (5, 50), (16, 50),
                                     (50, 7), (300, 2)])
def test_numpy_permuted_rows_equal_sequential_permutations(n, rows):
    # simulated_annealing draws a level's sweep orders with one permuted()
    # call; that is only the documented draw order if numpy keeps this.
    a, b = RngStream(53, n).gen, RngStream(53, n).gen
    batch = a.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
    sequential = np.stack([b.permutation(n) for _ in range(rows)])
    assert batch.tobytes() == sequential.tobytes()
    assert a.random(4).tobytes() == b.random(4).tobytes()
