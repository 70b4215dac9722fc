import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochlab.core import RngStream
from stochlab.search import (
    SearchArena,
    random_walk_search,
    strategy_tournament,
    sweep_search,
)


def _arena(side=16, targets=((10, 5),), radius=0.0, budget=256):
    return SearchArena(side=side, targets=targets, capture_radius=radius,
                       step_budget=budget)


# ---------------------------------------------------------------- arena


def test_arena_validation():
    with pytest.raises(ValueError):
        _arena(targets=())
    with pytest.raises(ValueError):
        _arena(targets=((16, 0),))
    with pytest.raises(ValueError):
        _arena(targets=((0, -1),))
    with pytest.raises(ValueError):
        _arena(radius=-0.5)
    with pytest.raises(ValueError):
        _arena(budget=-1)
    with pytest.raises(ValueError):
        SearchArena(side=0, targets=((0, 0),), capture_radius=0, step_budget=1)


def test_out_of_bounds_start_is_rejected_by_both_strategies():
    arena = _arena()
    with pytest.raises(ValueError):
        random_walk_search(arena, (16, 0), RngStream(110, 50))
    with pytest.raises(ValueError):
        sweep_search(arena, (-1, 3))


# ---------------------------------------------------------------- random walk


def test_start_inside_the_capture_radius_is_found_at_step_zero():
    arena = _arena(targets=((3, 4),), radius=1.0)
    out = random_walk_search(arena, (3, 5), RngStream(110, 51))
    assert out.found
    assert out.steps_to_find == 0
    assert out.coverage == 1.0 / 16**2


def test_zero_budget_far_from_the_target_fails():
    arena = _arena(targets=((10, 10),), radius=0.0, budget=0)
    out = random_walk_search(arena, (0, 0), RngStream(110, 52))
    assert not out.found
    assert out.steps_to_find is None


def test_generous_budget_makes_the_recurrent_walk_nearly_certain():
    arena = SearchArena(side=32, targets=((20, 7),), capture_radius=1.0,
                        step_budget=10 * 32 * 32)
    hits = sum(
        random_walk_search(arena, (0, 0), RngStream(110, s)).found
        for s in range(1000)
    )
    assert hits >= 990


def test_walk_is_reproducible():
    arena = _arena(radius=1.0, budget=500)
    a = random_walk_search(arena, (0, 0), RngStream(110, 53))
    b = random_walk_search(arena, (0, 0), RngStream(110, 53))
    assert a == b


@settings(max_examples=20)
@given(dx=st.integers(0, 15), dy=st.integers(0, 15))
def test_success_is_invariant_under_global_translation(dx, dy):
    side = 16
    base_targets = ((2, 11), (9, 3))
    start = (5, 5)
    shifted = tuple(((x + dx) % side, (y + dy) % side) for x, y in base_targets)
    plain = random_walk_search(
        _arena(targets=base_targets, radius=1.0, budget=300),
        start, RngStream(110, 54))
    moved = random_walk_search(
        _arena(targets=shifted, radius=1.0, budget=300),
        ((start[0] + dx) % side, (start[1] + dy) % side), RngStream(110, 54))
    assert plain == moved


def test_widening_the_capture_radius_never_slows_the_same_walk():
    steps = []
    for radius in (0.0, 1.0, 2.0):
        arena = _arena(targets=((12, 12),), radius=radius, budget=2000)
        out = random_walk_search(arena, (0, 0), RngStream(110, 55))
        steps.append(out.steps_to_find if out.found else np.inf)
    assert steps[0] >= steps[1] >= steps[2]


def test_walk_coverage_is_non_decreasing_in_budget():
    coverages = []
    for budget in (50, 200, 1000):
        arena = _arena(targets=((15, 15),), radius=0.0, budget=budget)
        coverages.append(random_walk_search(arena, (0, 0),
                                            RngStream(110, 56)).coverage)
    assert coverages == sorted(coverages)


def test_found_walks_respect_the_budget_bound():
    for s in range(20):
        arena = _arena(targets=((8, 8),), radius=1.0, budget=400)
        out = random_walk_search(arena, (0, 0), RngStream(110, 60 + s))
        if out.found:
            assert out.steps_to_find <= arena.step_budget


# ---------------------------------------------------------------- sweep


def test_serpentine_order_is_the_hand_computed_one():
    # side 3 from (0, 0): (0,0) (1,0) (2,0) (2,1) (1,1) (0,1) (0,2) ...
    arena = SearchArena(side=3, targets=((1, 1),), capture_radius=0.0,
                        step_budget=9)
    assert sweep_search(arena, (0, 0)).steps_to_find == 4
    arena2 = SearchArena(side=3, targets=((0, 1),), capture_radius=0.0,
                         step_budget=9)
    assert sweep_search(arena2, (0, 0)).steps_to_find == 5


def test_sweep_always_finds_a_single_target_within_one_cycle():
    for target in [(0, 0), (7, 0), (3, 5), (7, 7)]:
        arena = SearchArena(side=8, targets=(target,), capture_radius=0.0,
                            step_budget=64)
        out = sweep_search(arena, (3, 6))
        assert out.found
        assert out.steps_to_find < 64


def test_sweep_covers_everything_in_exactly_one_cycle():
    # target sits one step "behind" the start in cycle order, so the sweep
    # must wrap through all 64 cells
    arena = SearchArena(side=8, targets=((0, 0),), capture_radius=0.0,
                        step_budget=64)
    out = sweep_search(arena, (1, 0))
    assert out.found
    assert out.steps_to_find == 63
    assert out.coverage == 1.0


def test_target_adjacent_along_the_sweep_is_found_immediately():
    arena = SearchArena(side=8, targets=((1, 0),), capture_radius=0.0,
                        step_budget=8)
    assert sweep_search(arena, (0, 0)).steps_to_find == 1


def test_budget_limited_sweep_reports_partial_coverage():
    arena = SearchArena(side=8, targets=((0, 7),), capture_radius=0.0,
                        step_budget=5)
    out = sweep_search(arena, (0, 0))
    assert not out.found
    assert out.steps_to_find is None
    assert out.coverage == 6.0 / 64.0


# ---------------------------------------------------------------- tournament


@pytest.fixture(scope="module")
def sparse_cell():
    return strategy_tournament([12], [1], [0.0], replicas=100,
                               rng=RngStream(112, 0))


def test_sweep_wins_the_sparse_exact_hit_cell(sparse_cell):
    by_name = {row.strategy: row for row in sparse_cell}
    sweep, walk = by_name["sweep"], by_name["random-walk"]
    assert sweep.median_steps < walk.median_steps
    assert sweep.rank == 1
    assert walk.rank == 2


def test_tournament_rows_carry_sane_statistics(sparse_cell):
    for row in sparse_cell:
        assert 0.0 <= row.success_rate <= 1.0
        assert row.mean_steps >= 0.0
        assert row.side == 12 and row.n_targets == 1


def test_dense_targets_level_the_playing_field():
    side = 12
    rows = strategy_tournament([side], [side * side // 4], [1.0],
                               replicas=100, rng=RngStream(112, 1))
    medians = [row.median_steps for row in rows]
    assert all(m < 4 * side for m in medians)
    assert max(medians) <= max(2.0 * min(medians), 1.0)
    assert all(row.success_rate == 1.0 for row in rows)


def test_tournament_is_deterministic():
    a = strategy_tournament([8], [2], [0.0, 1.0], replicas=100,
                            rng=RngStream(112, 2))
    b = strategy_tournament([8], [2], [0.0, 1.0], replicas=100,
                            rng=RngStream(112, 2))
    assert a == b


def test_tournament_validation():
    rng = RngStream(112, 3)
    with pytest.raises(ValueError):
        strategy_tournament([8], [1], [0.0], replicas=99, rng=rng)
    with pytest.raises(ValueError):
        strategy_tournament([4], [17], [0.0], replicas=100, rng=rng)
    with pytest.raises(ValueError):
        strategy_tournament([], [1], [0.0], replicas=100, rng=rng)
