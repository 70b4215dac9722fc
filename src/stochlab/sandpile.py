"""Driven-dissipative sandpile on a rectangular lattice.

A cell holding at least four grains topples, shedding one grain to each of
its four von Neumann neighbours; grains pushed past the boundary leave the
system.  Repeated single-grain drops drive the grid into a stationary state
with scale-free avalanche statistics, recorded per drop by :func:`drive` as
a catalog (size, area, duration, dissipated grains) and an activity series
suitable for spectral analysis.

Relaxation proceeds in parallel rounds: every cell that is unstable at a
round's start topples once in that round.  Topplings commute -- the final
stable configuration does not depend on the order in which unstable cells
fire, or on the order of the drops themselves (:func:`abelian_check` verifies
the latter directly) -- so the parallel schedule reaches the same state as
any sequential queue.  A round visits only the active set: the cells that
toppled in the previous round and their neighbours, held in a flat list of
Python ints with a sink ring around the grid.  ``Avalanche.duration`` counts
these rounds.

Two activity clocks are recorded.  ``DriveRecord.sizes``, topplings per
drop, is both the avalanche-size catalog and the activity series on the
driving clock, the natural one for event statistics.  On that clock the
stationary spectrum is slightly *suppressed* at low frequency -- over a long
window the pile's mass balance pins the summed activity to the drive, so the
series is anti-correlated, not 1/f-like.  ``DriveRecord.round_activity`` is
topplings per parallel relaxation round, the signal resolved inside each
avalanche; its spectrum falls steeply with frequency (smooth pulses kill the
high-frequency power) and is the series to use when looking for
low-frequency dominance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import PowerLawFit, RngStream, fit_power_law

__all__ = [
    "SandGrid",
    "Avalanche",
    "DriveRecord",
    "drop_and_relax",
    "drive",
    "abelian_check",
    "avalanche_ccdf",
    "ccdf_fit",
]

# Grains shed per toppling, one to each von Neumann neighbour, and the
# height at which a cell topples.
_SHED = 4

# Value of the padding cells around a grid being relaxed: a sink that absorbs
# any number of grains and never topples.
_SINK = float("-inf")

_SITE_POLICIES = ("uniform-random", "center")


@dataclass
class SandGrid:
    """Mutable sandpile state: integer grain heights with open edges.

    ``heights`` is a non-negative integer array of shape ``(height,
    width)``, indexed ``[row, column]``; it is copied, so the caller's
    buffer is never aliased.  A cell topples once it holds four grains.  A
    grid is single-owner while it is being driven; use :meth:`copy` to
    branch experiments.
    """

    heights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.heights)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("heights must be a non-empty 2-d array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("heights must be an integer array")
        if np.any(arr < 0):
            raise ValueError("heights must be non-negative")
        self.heights = arr.astype(np.int64, copy=True)

    @classmethod
    def zeros(cls, width: int, height: int) -> "SandGrid":
        """Empty grid of the given dimensions."""
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        return cls(np.zeros((height, width), dtype=np.int64))

    @property
    def width(self) -> int:
        return self.heights.shape[1]

    @property
    def height(self) -> int:
        return self.heights.shape[0]

    @property
    def center(self) -> tuple[int, int]:
        return (self.height // 2, self.width // 2)

    @property
    def total_grains(self) -> int:
        return int(self.heights.sum())

    @property
    def mean_height(self) -> float:
        return float(self.heights.mean())

    @property
    def is_stable(self) -> bool:
        return bool(np.all(self.heights < _SHED))

    def copy(self) -> "SandGrid":
        return SandGrid(self.heights)


@dataclass(frozen=True)
class Avalanche:
    """Bookkeeping for one drop's relaxation.

    size:       total topplings
    area:       distinct cells that toppled at least once
    duration:   parallel relaxation rounds until stable
    dissipated: grains lost over the boundary
    """

    size: int
    area: int
    duration: int
    dissipated: int


@dataclass(frozen=True)
class DriveRecord:
    """Per-drop avalanche catalog from :func:`drive`.

    The four catalog arrays and ``mean_heights`` all have one entry per drop;
    ``mean_heights[i]`` is the grid's mean height *after* drop ``i`` relaxed.
    ``round_activity`` runs on the finer parallel-round clock: one sample per
    relaxation round (the number of cells that toppled in it), and a single
    zero sample for a drop that toppled nothing.  Its sum equals the sum of
    ``sizes``.
    """

    sizes: np.ndarray
    areas: np.ndarray
    durations: np.ndarray
    dissipated: np.ndarray
    mean_heights: np.ndarray
    round_activity: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.sizes, self.areas, self.durations,
                    self.dissipated, self.mean_heights, self.round_activity):
            arr.setflags(write=False)

    @property
    def n_drops(self) -> int:
        return self.sizes.size


def _to_cells(heights: np.ndarray) -> tuple[list, list[int]]:
    """Flatten ``heights`` into a row-major list padded with a sink ring.

    Cell ``(r, c)`` sits at index ``(r + 1) * (width + 2) + c + 1``, so its
    four neighbours are ``k - 1``, ``k + 1`` and ``k -+ (width + 2)``.  Sink
    cells hold ``-inf``: they absorb any number of grains without ever
    toppling.  The second list gives, per index, the grains a toppling there
    sheds over the edge.
    """
    inside = np.pad(np.ones(heights.shape, dtype=np.int64), 1)
    loss = np.pad(_SHED - (inside[:-2, 1:-1] + inside[2:, 1:-1]
                           + inside[1:-1, :-2] + inside[1:-1, 2:]), 1)
    cells = np.pad(heights, 1).astype(object)
    cells[inside == 0] = _SINK
    return cells.ravel().tolist(), loss.ravel().tolist()


def _write_back(cells: list, heights: np.ndarray) -> None:
    """Copy the interior of a padded cell list back into ``heights``."""
    rows, cols = heights.shape
    padded = np.array(cells, dtype=object).reshape(rows + 2, cols + 2)
    heights[...] = padded[1:-1, 1:-1]


def _relax(cells: list,
           stride: int,
           loss: list[int],
           candidates: Iterable[int],
           round_log: list[int]) -> tuple[int, int, int, int]:
    """Topple a padded cell list in place until stable; return the
    avalanche's size, area, duration and dissipated grains.

    ``candidates`` must include every cell that is unstable on entry.  Each
    round, every unstable cell topples once, and only those cells and their
    neighbours can be unstable after it.  A toppled cell still holding four
    grains stays unstable; any other cell held fewer at the round's start
    and becomes unstable when a grain lifts it to exactly four, so no cell
    is listed twice.  The per-round toppling counts are appended to
    ``round_log``, or a single 0 for an event with no topplings.
    """
    threshold = _SHED  # a local: the loops below read it once per grain
    size = duration = lost = 0
    toppled: set[int] = set()
    unstable = [k for k in candidates if cells[k] >= threshold]
    while unstable:
        duration += 1
        size += len(unstable)
        round_log.append(len(unstable))
        toppled.update(unstable)
        lost += sum(map(loss.__getitem__, unstable))
        fired = unstable
        unstable = []
        for k in fired:
            h = cells[k] - threshold
            cells[k] = h
            if h >= threshold:
                unstable.append(k)
        for k in fired:
            for j in (k - 1, k + 1, k - stride, k + stride):
                h = cells[j] + 1
                cells[j] = h
                if h == threshold:
                    unstable.append(j)
    if not duration:
        round_log.append(0)
    return size, len(toppled), duration, lost


def _drop_each(grid: SandGrid, rows, cols,
               round_log: list[int]) -> list[tuple[int, int, int, int]]:
    """Drop one grain at each ``(rows[i], cols[i])`` in turn, relaxing fully
    after each; return each event's :func:`_relax` counts.

    The grid is converted to a padded cell list once and written back once.
    It may start unstable, so the first drop scans every cell; after it the
    grid is stable and only the drop site can become unstable.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    outside = ((rows < 0) | (rows >= grid.height)
               | (cols < 0) | (cols >= grid.width))
    if outside.any():
        i = int(np.argmax(outside))
        raise IndexError(f"site {(int(rows[i]), int(cols[i]))!r} outside "
                         f"{grid.height}x{grid.width} grid")
    cells, loss = _to_cells(grid.heights)
    stride = grid.width + 2
    everywhere = range(len(cells))
    events = []
    for i, site in enumerate(((rows + 1) * stride + cols + 1).tolist()):
        cells[site] += 1
        events.append(_relax(cells, stride, loss,
                             (site,) if i else everywhere, round_log))
    _write_back(cells, grid.heights)
    return events


def drop_and_relax(grid: SandGrid, site: tuple[int, int]) -> Avalanche:
    """Add one grain at ``site`` and relax the grid to stability in place."""
    row, col = site
    return Avalanche(*_drop_each(grid, [row], [col], [])[0])


def drive(grid: SandGrid,
          rng: RngStream,
          n_drops: int,
          site_policy: str = "uniform-random") -> DriveRecord:
    """Drop ``n_drops`` grains one at a time, relaxing fully after each.

    ``site_policy`` is either ``"uniform-random"`` (sites drawn uniformly
    over the grid, all of them up front so the sequence is a pure function
    of the stream) or ``"center"``.  The grid is mutated; drive it long
    enough and its mean height becomes stationary.
    """
    if n_drops < 1:
        raise ValueError("n_drops must be at least 1")
    if site_policy not in _SITE_POLICIES:
        raise ValueError(f"site_policy must be one of {_SITE_POLICIES}")

    if site_policy == "center":
        rows = np.full(n_drops, grid.center[0])
        cols = np.full(n_drops, grid.center[1])
    else:
        rows = rng.gen.integers(0, grid.height, size=n_drops)
        cols = rng.gen.integers(0, grid.width, size=n_drops)

    grains = grid.total_grains
    round_log: list[int] = []
    events = _drop_each(grid, rows, cols, round_log)
    sizes, areas, durations, dissipated = np.array(events, dtype=np.int64).T
    mean_heights = (grains + np.cumsum(1 - dissipated)) / grid.heights.size
    return DriveRecord(sizes=sizes, areas=areas, durations=durations,
                       dissipated=dissipated, mean_heights=mean_heights,
                       round_activity=np.asarray(round_log, dtype=np.int64))


def abelian_check(grid: SandGrid,
                  drops: Sequence[tuple[int, int]],
                  rng: RngStream,
                  permutations: int = 5) -> bool:
    """True if every permutation of the drop sequence lands on one state.

    Runs the sequence as given plus ``permutations - 1`` random reshuffles,
    each on a fresh copy of ``grid`` (the input grid is not touched), and
    compares the final stable height arrays exactly.
    """
    if permutations < 2:
        raise ValueError("need at least 2 permutations to compare")
    rows, cols = np.asarray(list(drops)).reshape(-1, 2).T
    reference: np.ndarray | None = None
    for k in range(permutations):
        order = rng.gen.permutation(rows.size) if k else np.arange(rows.size)
        trial = grid.copy()
        _drop_each(trial, rows[order], cols[order], [])
        if reference is None:
            reference = trial.heights
        elif not np.array_equal(trial.heights, reference):
            return False
    return True


def avalanche_ccdf(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF ``P(S >= s)`` over the distinct positive sizes.

    Zero-size events (drops that toppled nothing) are excluded: they are
    the no-avalanche outcome, not a point on the size distribution.
    """
    arr = np.asarray(sizes)
    arr = arr[arr > 0]
    if arr.size == 0:
        raise ValueError("no avalanches with positive size")
    values, counts = np.unique(arr, return_counts=True)
    tail = np.cumsum(counts[::-1])[::-1] / arr.size
    return values.astype(float), tail


def ccdf_fit(sizes: np.ndarray) -> PowerLawFit:
    """Power-law fit of the avalanche-size CCDF over sizes 10..1000; a NaN
    fit when fewer than three distinct sizes fall in that window."""
    nan = PowerLawFit(float("nan"), float("nan"))
    if not np.any(np.asarray(sizes) > 0):
        return nan
    values, tail = avalanche_ccdf(sizes)
    window = (values >= 10) & (values <= 1000)
    if window.sum() < 3:
        return nan
    return fit_power_law(values[window], tail[window])
