"""Sandpile: toppling rules, avalanche bookkeeping, drive statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochlab.core import RngStream, low_high_power_ratio
from stochlab.sandpile import (
    SandGrid,
    abelian_check,
    avalanche_ccdf,
    ccdf_fit,
    drive,
    drop_and_relax,
)
from util import reference_drive, reference_drop_and_relax


# ---------------------------------------------------------------------------
# Single drops and the toppling rule


def test_fourth_center_drop_topples_once():
    grid = SandGrid.zeros(3, 3)
    for _ in range(3):
        event = drop_and_relax(grid, (1, 1))
        assert event.size == 0
    event = drop_and_relax(grid, (1, 1))
    assert event.size == 1
    assert event.area == 1
    assert event.duration == 1
    assert event.dissipated == 0
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    np.testing.assert_array_equal(grid.heights, expected)


def test_drop_on_grid_below_threshold_minus_one_is_quiet():
    grid = SandGrid(np.full((5, 5), 2))
    event = drop_and_relax(grid, (2, 3))
    assert event.size == 0
    assert grid.heights[2, 3] == 3


def test_single_cell_grid_dissipates_everything():
    grid = SandGrid.zeros(1, 1)
    for _ in range(3):
        drop_and_relax(grid, (0, 0))
    event = drop_and_relax(grid, (0, 0))
    assert event.size == 1
    assert event.dissipated == 4
    assert grid.heights[0, 0] == 0


def test_corner_topple_loses_two_grains():
    grid = SandGrid.zeros(4, 4)
    for _ in range(4):
        event = drop_and_relax(grid, (0, 0))
    assert event.size == 1
    assert event.dissipated == 2
    assert grid.heights[0, 1] == 1 and grid.heights[1, 0] == 1


def test_grain_conservation_per_event():
    grid = SandGrid.zeros(8, 6)
    rng = RngStream(61, 0)
    sites = list(zip(rng.gen.integers(0, 6, 300), rng.gen.integers(0, 8, 300)))
    for site in sites:
        before = grid.total_grains
        event = drop_and_relax(grid, (int(site[0]), int(site[1])))
        assert before + 1 == grid.total_grains + event.dissipated


def test_relaxed_grid_is_always_stable():
    grid = SandGrid.zeros(6, 6)
    rng = RngStream(61, 1)
    for _ in range(500):
        site = (int(rng.gen.integers(0, 6)), int(rng.gen.integers(0, 6)))
        drop_and_relax(grid, site)
        assert grid.is_stable
        assert np.all(grid.heights >= 0)


def test_avalanche_bookkeeping_inequalities():
    grid = SandGrid.zeros(8, 8)
    rng = RngStream(61, 2)
    for _ in range(800):
        site = (int(rng.gen.integers(0, 8)), int(rng.gen.integers(0, 8)))
        event = drop_and_relax(grid, site)
        assert 0 <= event.area <= event.size
        assert 0 <= event.duration <= event.size
        assert event.dissipated >= 0


def test_unstable_initial_grid_relaxes_on_first_drop():
    grid = SandGrid(np.full((3, 3), 7))
    drop_and_relax(grid, (1, 1))
    assert grid.is_stable


def test_out_of_bounds_site_rejected():
    grid = SandGrid.zeros(4, 4)
    for site in ((4, 0), (0, -1)):
        with pytest.raises(IndexError, match="outside 4x4 grid"):
            drop_and_relax(grid, site)
        with pytest.raises(IndexError, match="outside 4x4 grid"):
            abelian_check(grid, [(1, 1), site], RngStream(62, 3))


def test_grid_validation():
    with pytest.raises(ValueError):
        SandGrid(np.zeros((3, 3)))  # float heights
    with pytest.raises(ValueError):
        SandGrid(np.array([[1, -1], [0, 0]]))
    with pytest.raises(ValueError):
        SandGrid(np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        SandGrid.zeros(0, 5)


def test_grid_construction_copies_heights():
    buffer = np.ones((2, 2), dtype=np.int64)
    grid = SandGrid(buffer)
    buffer[0, 0] = 99
    assert grid.heights[0, 0] == 1


# ---------------------------------------------------------------------------
# Abelian property


def test_two_drops_commute_exactly():
    base = SandGrid(np.full((4, 4), 3))
    a, b = (1, 1), (2, 2)
    first = base.copy()
    drop_and_relax(first, a)
    drop_and_relax(first, b)
    second = base.copy()
    drop_and_relax(second, b)
    drop_and_relax(second, a)
    np.testing.assert_array_equal(first.heights, second.heights)


def test_abelian_check_on_driven_grid():
    grid = SandGrid.zeros(16, 16)
    rng = RngStream(62, 0)
    drive(grid, rng, 2000)  # reach an interesting configuration first
    drops = [(int(r), int(c)) for r, c in
             zip(rng.gen.integers(0, 16, 10), rng.gen.integers(0, 16, 10))]
    assert abelian_check(grid, drops, rng, permutations=5)


def test_abelian_check_single_drop():
    grid = SandGrid(np.full((3, 3), 3))
    assert abelian_check(grid, [(1, 1)], RngStream(62, 1), permutations=3)


def test_abelian_check_leaves_grid_untouched():
    grid = SandGrid(np.full((4, 4), 3))
    snapshot = grid.heights.copy()
    abelian_check(grid, [(0, 0), (3, 3), (1, 2)], RngStream(62, 2))
    np.testing.assert_array_equal(grid.heights, snapshot)


def test_abelian_check_needs_two_permutations():
    with pytest.raises(ValueError):
        abelian_check(SandGrid.zeros(2, 2), [(0, 0)], RngStream(1), permutations=1)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_drops=st.integers(2, 8),
    side=st.integers(2, 5),
)
def test_abelian_property_holds_generally(seed, n_drops, side):
    rng = RngStream(seed, 0)
    heights = rng.gen.integers(0, 4, size=(side, side))
    drops = [(int(r), int(c)) for r, c in
             zip(rng.gen.integers(0, side, n_drops),
                 rng.gen.integers(0, side, n_drops))]
    assert abelian_check(SandGrid(heights), drops, rng, permutations=4)


# ---------------------------------------------------------------------------
# Driving and avalanche statistics


@pytest.fixture(scope="module")
def driven():
    """16x16 pile: warm-up discarded, then a measured drive."""
    grid = SandGrid.zeros(16, 16)
    rng = RngStream(63, 0)
    drive(grid, rng, 4000)
    return grid, drive(grid, rng, 20_000)


def test_drive_record_shapes(driven):
    _, record = driven
    assert record.n_drops == 20_000
    for arr in (record.sizes, record.areas, record.durations,
                record.dissipated, record.mean_heights):
        assert arr.shape == (20_000,)


def test_drive_reaches_stationary_mean_height(driven):
    _, record = driven
    quarter = record.n_drops // 4
    q3 = record.mean_heights[2 * quarter:3 * quarter].mean()
    q4 = record.mean_heights[3 * quarter:].mean()
    assert abs(q4 - q3) / q3 < 0.02
    assert 2.0 <= record.mean_heights[quarter:].mean() <= 2.2


def test_mean_height_trace_matches_grid(driven):
    grid, record = driven
    assert record.mean_heights[-1] == pytest.approx(grid.mean_height)


def test_round_activity_consistency(driven):
    _, record = driven
    assert record.round_activity.sum() == record.sizes.sum()
    expected_len = int(np.maximum(record.durations, 1).sum())
    assert record.round_activity.size == expected_len
    assert record.round_activity.min() >= 0


def test_drop_clock_spectrum_is_not_low_frequency_dominated(driven):
    # Mass balance anti-correlates successive avalanches, so on the drive
    # clock the low-frequency power sits at or below the white floor.
    _, record = driven
    assert low_high_power_ratio(record.sizes) < 2.0


def test_round_clock_spectrum_is_low_frequency_dominated(driven):
    _, record = driven
    assert low_high_power_ratio(record.round_activity) >= 10.0


def test_ccdf_is_a_proper_tail_distribution(driven):
    _, record = driven
    values, tail = avalanche_ccdf(record.sizes)
    assert tail[0] == 1.0
    assert np.all(np.diff(tail) < 0)
    assert np.all(np.diff(values) > 0)
    assert tail[-1] > 0


def test_ccdf_slope_is_negative_power_law_like(driven):
    _, record = driven
    fit = ccdf_fit(record.sizes)
    assert fit.exponent < 0
    assert fit.stderr < 0.1


def test_center_policy_drops_only_at_center():
    grid = SandGrid.zeros(5, 5)
    record = drive(grid, RngStream(63, 1), 30, site_policy="center")
    assert record.n_drops == 30
    off_center = grid.heights.copy()
    off_center[2, 2] = 0
    # grains only ever entered at the center, so early on nothing else
    # can exceed what toppling delivered; total mass check is exact:
    assert grid.total_grains + record.dissipated.sum() == 30


def test_drive_is_reproducible():
    a = drive(SandGrid.zeros(12, 12), RngStream(64, 5), 3000)
    b = drive(SandGrid.zeros(12, 12), RngStream(64, 5), 3000)
    np.testing.assert_array_equal(a.sizes, b.sizes)
    np.testing.assert_array_equal(a.round_activity, b.round_activity)
    c = drive(SandGrid.zeros(12, 12), RngStream(64, 6), 3000)
    assert not np.array_equal(a.sizes, c.sizes)


def test_drive_validation():
    grid = SandGrid.zeros(4, 4)
    with pytest.raises(ValueError):
        drive(grid, RngStream(1), 0)
    with pytest.raises(ValueError):
        drive(grid, RngStream(1), 10, site_policy="corners")


def test_ccdf_rejects_all_quiet_series():
    with pytest.raises(ValueError):
        avalanche_ccdf(np.zeros(10, dtype=int))


# ---------------------------------------------------------------------------
# The active-set relaxation against the whole-grid oracle

_ORACLE_CASES = [
    # (heights, site_policy, n_drops)
    (np.zeros((1, 1), dtype=int), "uniform-random", 60),
    (np.zeros((1, 5), dtype=int), "uniform-random", 200),
    (np.zeros((3, 7), dtype=int), "uniform-random", 600),
    (np.zeros((5, 5), dtype=int), "center", 300),
    (np.full((6, 4), 9), "uniform-random", 200),
]
_ORACLE_IDS = ["1x1", "1x5", "7x3", "center", "unstable-start"]


@pytest.mark.parametrize("heights, policy, n_drops", _ORACLE_CASES,
                         ids=_ORACLE_IDS)
def test_drive_matches_whole_grid_oracle(heights, policy, n_drops):
    grid = SandGrid(heights)
    oracle = SandGrid(heights)
    record = drive(grid, RngStream(65, 1), n_drops, site_policy=policy)
    expected = reference_drive(oracle, RngStream(65, 1), n_drops,
                               site_policy=policy)
    for name in ("sizes", "areas", "durations", "dissipated",
                 "mean_heights", "round_activity"):
        got, want = getattr(record, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    np.testing.assert_array_equal(grid.heights, oracle.heights)
    assert grid.heights.dtype == np.int64


@pytest.mark.parametrize("heights, policy, n_drops", _ORACLE_CASES,
                         ids=_ORACLE_IDS)
def test_drop_and_relax_matches_whole_grid_oracle(heights, policy, n_drops):
    grid = SandGrid(heights)
    oracle = SandGrid(heights)
    buffer = grid.heights
    rng = RngStream(66, 2)
    for _ in range(n_drops // 2):
        site = (grid.center if policy == "center" else
                (int(rng.gen.integers(0, grid.height)),
                 int(rng.gen.integers(0, grid.width))))
        assert drop_and_relax(grid, site) == reference_drop_and_relax(oracle,
                                                                      site)
        np.testing.assert_array_equal(grid.heights, oracle.heights)
    assert grid.heights is buffer

