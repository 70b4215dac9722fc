"""Unguided target search on a 2-d periodic lattice: random walk vs sweep.

Both strategies hunt point targets on a side x side torus and are judged by
the same rule — success at the first visited cell whose minimum-image
Euclidean distance to any target is within the capture radius.  The random
walk takes uniform nearest-neighbor steps; the sweep follows a fixed
row-serpentine (boustrophedon) that provably covers every cell in
side^2 - 1 transitions.  A tournament harness runs both over a parameter
family with paired replicas (same targets, same start) and ranks them by
median steps among successful runs, breaking ties on success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import RngStream

__all__ = [
    "SearchArena",
    "SearchOutcome",
    "TournamentRow",
    "random_walk_search",
    "sweep_search",
    "strategy_tournament",
]

_STEPS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)], dtype=np.int64)


def _check_radius(radius: float) -> None:
    if radius < 0:
        raise ValueError("capture_radius must be nonnegative")
    if math.isinf(radius * radius):
        raise ValueError(f"capture radius {radius:g} squared overflows a double")


@dataclass(frozen=True)
class SearchArena:
    """Torus geometry, targets, capture radius, and step budget.

    Distances are Euclidean on minimum-image displacements, so a capture
    radius of 1 means the four nearest neighbors plus the target cell
    itself, and radius 0 demands an exact hit.
    """

    side: int
    targets: tuple
    capture_radius: float
    step_budget: int

    def __post_init__(self) -> None:
        if self.side < 1:
            raise ValueError("side must be at least 1")
        targets = tuple((int(x), int(y)) for x, y in self.targets)
        if not targets:
            raise ValueError("need at least one target")
        for x, y in targets:
            if not (0 <= x < self.side and 0 <= y < self.side):
                raise ValueError(f"target ({x}, {y}) is outside the lattice")
        _check_radius(self.capture_radius)
        if self.step_budget < 0:
            raise ValueError("step_budget must be nonnegative")
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search run.

    ``steps_to_find`` is the number of steps taken before capture, or None
    when the budget ran out (the budget-exhausted marker).  ``coverage`` is
    the fraction of distinct cells visited up to the stopping step.
    """

    found: bool
    steps_to_find: int | None
    coverage: float


class TournamentRow(NamedTuple):
    side: int
    n_targets: int
    capture_radius: float
    strategy: str
    success_rate: float
    mean_steps: float
    median_steps: float
    rank: int


def _check_start(arena: SearchArena, start) -> tuple[int, int]:
    x, y = (int(start[0]), int(start[1]))
    if not (0 <= x < arena.side and 0 <= y < arena.side):
        raise ValueError(f"start ({x}, {y}) is outside the lattice")
    return x, y


def _captured(positions: np.ndarray, arena: SearchArena) -> np.ndarray:
    """Boolean per position: within capture radius of any target (min-image)."""
    targets = np.asarray(arena.targets, dtype=np.int64)
    delta = np.abs(positions[:, None, :] - targets[None, :, :])
    delta = np.minimum(delta, arena.side - delta)
    dist_sq = (delta**2).sum(axis=2)
    return (dist_sq <= arena.capture_radius**2).any(axis=1)


def _outcome(positions: np.ndarray, arena: SearchArena) -> SearchOutcome:
    hits = _captured(positions, arena)
    found_at = np.flatnonzero(hits)
    if found_at.size:
        stop = int(found_at[0])
        found = True
    else:
        stop = positions.shape[0] - 1
        found = False
    visited = positions[: stop + 1]
    distinct = np.unique(visited[:, 0] * arena.side + visited[:, 1]).size
    return SearchOutcome(
        found=found,
        steps_to_find=stop if found else None,
        coverage=distinct / arena.side**2,
    )


def random_walk_search(arena: SearchArena, start,
                       rng: RngStream) -> SearchOutcome:
    """Uniform nearest-neighbor walk on the torus until capture or budget."""
    origin = _check_start(arena, start)
    moves = _STEPS[rng.gen.integers(0, 4, size=arena.step_budget)]
    positions = np.empty((arena.step_budget + 1, 2), dtype=np.int64)
    positions[0] = origin
    if arena.step_budget:
        np.cumsum(moves, axis=0, out=moves)
        positions[1:] = (origin + moves) % arena.side
    return _outcome(positions, arena)


def sweep_search(arena: SearchArena, start) -> SearchOutcome:
    """Deterministic row-serpentine sweep from the start cell.

    Cells are visited in boustrophedon order (even rows left to right, odd
    rows right to left), entering the cycle at the start cell and wrapping
    around torus-style, so every cell is reached within side^2 - 1 steps.
    """
    x, y = _check_start(arena, start)
    side = arena.side
    n_cells = side * side
    start_index = y * side + (x if y % 2 == 0 else side - 1 - x)
    # after one full cycle every cell has been checked; more steps only revisit
    horizon = min(arena.step_budget, n_cells - 1)
    order = (start_index + np.arange(horizon + 1)) % n_cells
    rows = order // side
    offsets = order % side
    cols = np.where(rows % 2 == 0, offsets, side - 1 - offsets)
    positions = np.stack([cols, rows], axis=1).astype(np.int64)
    return _outcome(positions, arena)


def _check_cells(sides: Sequence[int], target_counts: Sequence[int]) -> None:
    for side in sides:
        for n_targets in target_counts:
            if not 1 <= n_targets <= side * side:
                raise ValueError(f"target count {n_targets} does not fit a "
                                 f"side-{side} torus")


def strategy_tournament(sides: Sequence[int], target_counts: Sequence[int],
                        radii: Sequence[float], replicas: int,
                        rng: RngStream,
                        step_budget: int | None = None) -> tuple:
    """Paired comparison of both strategies over an arena family.

    For every (side, N_target, radius) cell, ``replicas`` arenas are drawn
    (targets and start uniform, targets distinct) and both strategies run on
    the identical arena.  Per strategy the table reports success rate and
    mean/median steps among successful runs; within each cell strategies are
    ranked by that median, with success rate breaking ties.  ``step_budget``
    defaults to 10 * side^2 per cell.
    """
    if replicas < 100:
        raise ValueError("need at least 100 replicas per cell")
    if not sides or not target_counts or not radii:
        raise ValueError("sides, target_counts, and radii must be nonempty")
    _check_cells(sides, target_counts)
    rows = []
    cell_index = 0
    for side in sides:
        for n_targets in target_counts:
            for radius in radii:
                budget = 10 * side * side if step_budget is None else step_budget
                results = {"random-walk": [], "sweep": []}
                for r in range(replicas):
                    sub = rng.substream(cell_index * replicas + r)
                    cells = sub.gen.choice(side * side, size=n_targets,
                                           replace=False)
                    targets = tuple(
                        (int(c) % side, int(c) // side) for c in cells
                    )
                    start = (int(sub.gen.integers(side)),
                             int(sub.gen.integers(side)))
                    arena = SearchArena(side=side, targets=targets,
                                        capture_radius=radius,
                                        step_budget=budget)
                    results["random-walk"].append(
                        random_walk_search(arena, start, sub))
                    results["sweep"].append(sweep_search(arena, start))
                scored = []
                for name, outcomes in results.items():
                    steps = [o.steps_to_find for o in outcomes if o.found]
                    rate = len(steps) / replicas
                    mean = float(np.mean(steps)) if steps else float("nan")
                    median = float(np.median(steps)) if steps else float("nan")
                    sort_key = (median if steps else float("inf"), -rate)
                    scored.append((sort_key, name, rate, mean, median))
                scored.sort(key=lambda item: item[0])
                for rank, (_, name, rate, mean, median) in enumerate(scored, 1):
                    rows.append(TournamentRow(
                        side=side, n_targets=n_targets,
                        capture_radius=float(radius), strategy=name,
                        success_rate=rate, mean_steps=mean,
                        median_steps=median, rank=rank,
                    ))
                cell_index += 1
    return tuple(rows)
