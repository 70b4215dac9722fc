"""Small-world and scale-free graph generators with exact analytics.

Two classic random-graph constructions: ring lattices whose edges are
rewired with probability p (interpolating between regular order at p = 0
and near-random wiring at p = 1), and preferential-attachment growth
yielding power-law degree tails.  Metrics are exact and come from one
all-sources BFS that advances every source at once on bit-packed reach
sets, in numpy alone: its first level counts the triangles behind the
clustering coefficients, its levels give the characteristic path length.
So the generators carry all the randomness.

The scan over rewiring probability exposes the small-world window: a range
of p where the path length has already collapsed while clustering is still
close to the lattice value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import PowerLawFit, RngStream, fit_power_law

__all__ = [
    "Graph",
    "NetworkMetrics",
    "SmallWorldPoint",
    "SmallWorldScan",
    "watts_strogatz",
    "barabasi_albert",
    "degree_ccdf_fit",
    "metrics",
    "small_world_scan",
    "edge_list_text",
    "parse_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``n`` nodes, edges as a frozenset of (u, v).

    Edges are stored with u < v, which rules out self-loops and makes the
    set representation duplicate-free and orientation-free by construction.
    ``skipped_rewires`` is generation bookkeeping: how many rewiring
    attempts were abandoned because the chosen node already neighbored
    every other node (only ever nonzero for rewired ring lattices).
    """

    n: int
    edges: frozenset
    skipped_rewires: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) is not ordered within range")

    @classmethod
    def from_edges(cls, n: int,
                   pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Normalize arbitrary (u, v) pairs; rejects self-loops."""
        normalized = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            normalized.add((min(u, v), max(u, v)))
        return cls(n=n, edges=frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _edge_array(self) -> np.ndarray:
        """The edges as an ``(edge_count, 2)`` int64 array, in set order."""
        return np.fromiter(chain.from_iterable(self.edges), dtype=np.int64,
                           count=2 * self.edge_count).reshape(-1, 2)

    @property
    def degrees(self) -> np.ndarray:
        return _degrees(self.n, self._edge_array())


def _degrees(n: int, ends: np.ndarray) -> np.ndarray:
    return np.bincount(ends.ravel(), minlength=n).astype(np.int64, copy=False)


@dataclass(frozen=True)
class NetworkMetrics:
    """Exact graph statistics.

    ``clustering`` is the mean local clustering coefficient (nodes of
    degree < 2 contribute 0); ``transitivity`` is the global triangle
    density 3*triangles/triads, reported alongside because the two
    definitions are often conflated.  ``path_length`` is the mean
    shortest-path distance over connected node pairs — computed on the
    largest component with ``connected=False`` when the graph is not
    connected.  ``clustering_defined`` is False for n < 3, where the
    coefficient is reported as 0 by convention.
    """

    clustering: float
    path_length: float
    degree_histogram: np.ndarray
    transitivity: float
    connected: bool
    clustering_defined: bool


class SmallWorldPoint(NamedTuple):
    p: float
    clustering_ratio: float
    path_length_ratio: float


@dataclass(frozen=True)
class SmallWorldScan:
    """Normalized clustering and path length versus rewiring probability.

    ``has_window`` records the small-world verdict: some scanned p has
    path_length_ratio < 0.5 while clustering_ratio > 0.7.  Baselines are
    the p = 0 ensemble means, so the p = 0 row is (1.0, 1.0) exactly.
    """

    points: tuple
    clustering_base: float
    path_length_base: float
    has_window: bool


def _check_ring(n: int, k: int) -> None:
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even count >= 2")
    if n <= k:
        raise ValueError("need n > k nodes")


def watts_strogatz(n: int, k: int, p: float, rng: RngStream) -> Graph:
    """Ring lattice over n nodes, k nearest neighbors, rewired with prob p.

    Every lattice edge is visited once (by lag, then by node); with
    probability p its far endpoint is moved to a uniformly random node that
    is neither the near endpoint nor already adjacent to it.  A rewire with
    no feasible target (near endpoint saturated) is skipped and counted.
    """
    _check_ring(n, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    gen = rng.gen
    adj = [set() for _ in range(n)]
    for lag in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + lag) % n
            adj[u].add(v)
            adj[v].add(u)
    skipped = 0
    for lag in range(1, k // 2 + 1):
        for u in range(n):
            far = (u + lag) % n
            if gen.random() >= p:
                continue
            if len(adj[u]) >= n - 1:
                skipped += 1
                continue
            while True:
                target = int(gen.integers(n))
                if target != u and target not in adj[u]:
                    break
            adj[u].discard(far)
            adj[far].discard(u)
            adj[u].add(target)
            adj[target].add(u)
    edges = frozenset((u, v) for u in range(n) for v in adj[u] if u < v)
    return Graph(n=n, edges=edges, skipped_rewires=skipped)


def _check_growth(n: int, m: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if n <= m:
        raise ValueError("need n > m nodes")


def barabasi_albert(n: int, m: int, rng: RngStream) -> Graph:
    """Preferential-attachment growth from an (m+1)-clique.

    Each arriving node attaches m edges to distinct existing nodes chosen
    with probability proportional to current degree (redraws on collision).
    """
    _check_growth(n, m)
    gen = rng.gen
    edges = set()
    # each node appears in `attachment` once per unit of degree
    attachment: list[int] = []
    seed_size = m + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            edges.add((u, v))
        attachment.extend([u] * m)
    for new in range(seed_size, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            candidate = attachment[int(gen.integers(len(attachment)))]
            chosen.add(candidate)
        for old in sorted(chosen):
            edges.add((old, new))
            attachment.append(old)
        attachment.extend([new] * m)
    return Graph(n=n, edges=frozenset(edges))


def degree_ccdf_fit(g: Graph) -> PowerLawFit:
    """Power-law fit of the degree CCDF over d = 4..100, empty tails left
    out; a NaN fit when fewer than three points remain."""
    degrees = g.degrees
    ds = np.arange(4, 101)
    ccdf = np.array([(degrees >= d).mean() for d in ds])
    keep = ccdf > 0
    if keep.sum() < 3:
        return PowerLawFit(math.nan, math.nan)
    return fit_power_law(ds[keep], ccdf[keep])


def _bfs_stats(n: int, ends: np.ndarray,
               degrees: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """(links among each node's neighbours, mean shortest-path length on the
    largest component, connected) from one bit-packed pass.

    An exact all-sources BFS run for every source at once on bit-packed
    reach sets (the multi-source BFS of Then et al., PVLDB 8(4), 2014):
    bit s of ``reach[v]`` is set once node v lies within ``level`` hops of
    source s.  Each level ORs every node's neighbours' rows into its own,
    one ``bitwise_or.reduceat`` over the directed edges sorted by source,
    and the newly set bits of a row are the sources first reached at that
    level.  After the first level ``reach[v]`` is v and its neighbours, so
    ``popcount(reach[u] & reach[v]) - 2`` counts the common neighbours of
    an edge (u, v); summed over u's edges and halved, that is the number of
    links among u's neighbours.  At the fixed point each row is its node's
    component, so the largest component is read off the rows: among the
    largest, the one holding the lowest node index.  Link counts and
    distances are integers, so both are exact in int64.
    """
    words = -(-n // 64)
    word, bit = np.divmod(np.arange(n), 64)
    masks = np.left_shift(np.uint64(1), bit.astype(np.uint64))
    reach = np.zeros((n, words), dtype=np.uint64)
    reach[np.arange(n), word] = masks
    count = np.ones(n, dtype=np.int64)
    dist_sum = np.zeros(n, dtype=np.int64)
    links = np.zeros(n, dtype=np.int64)
    if ends.size:
        sources = np.concatenate([ends[:, 0], ends[:, 1]])
        order = np.argsort(sources, kind="stable")
        targets = np.concatenate([ends[:, 1], ends[:, 0]])[order]
        has_edges = degrees > 0
        starts = (np.cumsum(degrees) - degrees)[has_edges]
        level = 0
        while True:
            level += 1
            reach[has_edges] |= np.bitwise_or.reduceat(reach[targets], starts,
                                                       axis=0)
            if level == 1:
                shared = reach[ends[:, 0]]
                shared &= reach[ends[:, 1]]
                common = np.bitwise_count(shared).sum(axis=1,
                                                      dtype=np.int64) - 2
                links[has_edges] = np.add.reduceat(
                    np.concatenate([common, common])[order], starts) // 2
            reached = np.bitwise_count(reach).sum(axis=1, dtype=np.int64)
            if np.array_equal(reached, count):
                break
            dist_sum += level * (reached - count)
            count = reached
    size = int(count.max())
    connected = size == n
    if size < 2:
        return links, 0.0, connected
    first = int(np.argmax(count == size))
    members = np.flatnonzero(reach[first, word] & masks)
    total = int(dist_sum[members].sum())
    return links, float(total / (size * (size - 1))), connected


def metrics(g: Graph) -> NetworkMetrics:
    """Exact clustering, characteristic path length, and degree histogram.

    Both come from one bit-packed all-sources BFS (:func:`_bfs_stats`):
    the triangle count from its first level, the path lengths from all of
    it.  Path length averages shortest-path distances over all connected
    node pairs; on a disconnected graph the largest component is used and
    the result is flagged via ``connected=False``.  The local coefficients
    are summed in node order, one division each, so the mean does not
    depend on a summation order chosen by numpy.
    """
    ends = g._edge_array()
    degrees = _degrees(g.n, ends)
    links, path_length, connected = _bfs_stats(g.n, ends, degrees)
    pairs = degrees * (degrees - 1) // 2
    local_sum = 0.0
    for node_links, node_pairs in zip(links.tolist(), pairs.tolist()):
        if node_pairs:
            local_sum += node_links / node_pairs
    triads = int(pairs.sum())
    return NetworkMetrics(
        clustering=local_sum / g.n,
        path_length=path_length,
        degree_histogram=np.bincount(degrees, minlength=1),
        transitivity=int(links.sum()) / triads if triads else 0.0,
        connected=connected,
        clustering_defined=g.n >= 3,
    )


def _sorted_p_values(p_values: Sequence[float]) -> list[float]:
    p_sorted = sorted(float(p) for p in p_values)
    if not p_sorted or p_sorted[0] != 0.0:
        raise ValueError("p_values must include 0 (the lattice baseline)")
    if len(set(p_sorted)) != len(p_sorted):
        raise ValueError("p_values must be distinct")
    return p_sorted


def small_world_scan(n: int, k: int, p_values: Sequence[float], seeds: int,
                     rng: RngStream) -> SmallWorldScan:
    """Ensemble means of C(p)/C(0) and L(p)/L(0) over rewiring probability.

    Each (p, seed) pair draws its graph from an independent substream, so
    the table is reproducible row by row.  Rows come out in ascending p.
    """
    p_sorted = _sorted_p_values(p_values)
    if seeds < 10:
        raise ValueError("need at least 10 seeds per p")

    means = []
    for i, p in enumerate(p_sorted):
        c_total = 0.0
        l_total = 0.0
        for s in range(seeds):
            g = watts_strogatz(n, k, p, rng.substream(i * seeds + s))
            m = metrics(g)
            c_total += m.clustering
            l_total += m.path_length
        means.append((c_total / seeds, l_total / seeds))
    c_base, l_base = means[0]
    # A k = 2 ring has no triangles, so its clustering ratios are undefined
    # (NaN), and NaN > 0.7 is false: no small-world window.
    points = tuple(
        SmallWorldPoint(p=p,
                        clustering_ratio=c / c_base if c_base else math.nan,
                        path_length_ratio=length / l_base)
        for p, (c, length) in zip(p_sorted, means)
    )
    has_window = any(pt.path_length_ratio < 0.5 and pt.clustering_ratio > 0.7
                     for pt in points)
    return SmallWorldScan(points=points, clustering_base=c_base,
                          path_length_base=l_base, has_window=has_window)


def edge_list_text(g: Graph) -> str:
    """Canonical edge-list serialization: sorted "u v" lines."""
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


def parse_edge_list(text: str, n: int) -> Graph:
    """Inverse of :func:`edge_list_text`."""
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        u, v = line.split()
        pairs.append((int(u), int(v)))
    return Graph.from_edges(n, pairs)
