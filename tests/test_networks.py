import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import spearmanr

from util import reference_metrics

from stochlab.core import RngStream
from stochlab.networks import (
    Graph,
    barabasi_albert,
    degree_ccdf_fit,
    edge_list_text,
    metrics,
    parse_edge_list,
    small_world_scan,
    watts_strogatz,
)


def _ring(n, k):
    return watts_strogatz(n, k, 0.0, RngStream(100, 0))


# ---------------------------------------------------------------- graph type


def test_from_edges_normalizes_orientation_and_duplicates():
    g = Graph.from_edges(4, [(1, 0), (0, 1), (2, 3)])
    assert g.edges == frozenset({(0, 1), (2, 3)})
    assert g.edge_count == 2


def test_graph_rejects_self_loops_and_out_of_range_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(4, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(n=3, edges=frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(n=3, edges=frozenset({(2, 1)}))  # stored edges must be ordered
    with pytest.raises(ValueError):
        Graph(n=0, edges=frozenset())


def test_degree_sum_is_twice_the_edge_count():
    g = watts_strogatz(40, 6, 0.3, RngStream(100, 1))
    assert g.degrees.sum() == 2 * g.edge_count


def test_edge_list_round_trip():
    g = watts_strogatz(15, 4, 0.5, RngStream(100, 2))
    text = edge_list_text(g)
    assert parse_edge_list(text, 15).edges == g.edges
    spaced = "\n" + text.replace("\n", "\n  \n")
    assert parse_edge_list(spaced, 15).edges == g.edges
    first = text.splitlines()[0].split()
    assert len(first) == 2 and all(part.isdigit() for part in first)


# ---------------------------------------------------------------- rewired ring


def test_unrewired_lattice_is_the_exact_ring():
    n, k = 12, 4
    g = _ring(n, k)
    assert np.all(g.degrees == k)
    expected = set()
    for lag in (1, 2):
        for u in range(n):
            v = (u + lag) % n
            expected.add((min(u, v), max(u, v)))
    assert g.edges == frozenset(expected)
    assert g.skipped_rewires == 0


def test_ring_clustering_is_exactly_one_half_for_four_neighbors():
    m = metrics(_ring(10, 4))
    assert m.clustering == pytest.approx(0.5, abs=1e-12)


def test_ring_metrics_match_the_oracle_exactly():
    g = _ring(10, 4)
    m, ref = metrics(g), reference_metrics(g)
    assert (m.clustering, m.path_length, m.connected) == (
        ref.clustering, ref.path_length, ref.connected)


def test_full_rewiring_reaches_the_random_graph_clustering_level():
    n, k = 200, 6
    values = [
        metrics(watts_strogatz(n, k, 1.0, RngStream(101, s))).clustering
        for s in range(50)
    ]
    values = np.array(values)
    spread = values.std(ddof=1)
    assert abs(values.mean() - k / n) < 3.0 * spread


def test_saturated_rewires_are_skipped_and_counted():
    g = watts_strogatz(5, 4, 1.0, RngStream(101, 99))
    assert g.skipped_rewires == 10
    assert g.edges == frozenset(
        (u, v) for u in range(5) for v in range(u + 1, 5)
    )


def test_watts_strogatz_validation():
    rng = RngStream(101, 100)
    with pytest.raises(ValueError):
        watts_strogatz(10, 3, 0.1, rng)  # odd k
    with pytest.raises(ValueError):
        watts_strogatz(10, 0, 0.1, rng)
    with pytest.raises(ValueError):
        watts_strogatz(4, 4, 0.1, rng)  # n must exceed k
    with pytest.raises(ValueError):
        watts_strogatz(10, 4, 1.5, rng)
    with pytest.raises(ValueError):
        watts_strogatz(10, 4, -0.1, rng)


@settings(max_examples=25)
@given(
    n=st.integers(6, 30),
    half_k=st.integers(1, 2),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_rewiring_preserves_the_edge_count(n, half_k, p, seed):
    k = 2 * half_k
    g = watts_strogatz(n, k, p, RngStream(102, seed % 997))
    assert g.edge_count == n * k // 2
    assert g.degrees.sum() == n * k


# ---------------------------------------------------------------- scale free


def test_growth_bookkeeping_gives_the_exact_edge_count():
    n, m = 500, 3
    g = barabasi_albert(n, m, RngStream(103, 0))
    clique = (m + 1) * m // 2
    assert g.edge_count == clique + m * (n - m - 1)
    assert g.degrees.min() >= m
    # the seed clique survives growth untouched
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            assert (u, v) in g.edges


def test_degree_tail_follows_the_expected_power_law():
    fit = degree_ccdf_fit(barabasi_albert(10**4, 2, RngStream(103, 1)))
    assert -2.2 <= fit.exponent <= -1.6
    assert fit.stderr < 0.05


def test_preferential_attachment_is_reproducible():
    a = barabasi_albert(300, 2, RngStream(103, 2))
    b = barabasi_albert(300, 2, RngStream(103, 2))
    assert a.edges == b.edges


def test_barabasi_albert_validation():
    rng = RngStream(103, 3)
    with pytest.raises(ValueError):
        barabasi_albert(5, 0, rng)
    with pytest.raises(ValueError):
        barabasi_albert(3, 3, rng)


# ---------------------------------------------------------------- metrics


def test_complete_graph_metrics():
    g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    m = metrics(g)
    assert m.clustering == 1.0
    assert m.transitivity == 1.0
    assert m.path_length == 1.0
    assert m.connected
    assert np.array_equal(m.degree_histogram, [0, 0, 0, 0, 5])


def test_three_node_path_metrics():
    m = metrics(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert m.clustering == 0.0
    assert m.path_length == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_two_node_graph_flags_clustering_as_undefined():
    m = metrics(Graph.from_edges(2, [(0, 1)]))
    assert not m.clustering_defined
    assert m.clustering == 0.0
    assert m.path_length == 1.0
    assert m.connected


def test_single_node_graph():
    m = metrics(Graph(n=1, edges=frozenset()))
    assert m.path_length == 0.0
    assert m.connected


def test_disconnected_graph_uses_the_largest_component_and_flags_it():
    # a 4-cycle plus a separate edge
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    m = metrics(g)
    assert not m.connected
    assert m.path_length == pytest.approx(4.0 / 3.0)  # cycle distances 1,1,2


@settings(max_examples=25)
@given(
    n=st.integers(6, 12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_metrics_match_the_exhaustive_oracle_on_small_graphs(n, p, seed):
    g = watts_strogatz(n, 4, p, RngStream(104, seed % 991))
    m, ref = metrics(g), reference_metrics(g)
    assert (m.clustering, m.path_length, m.connected) == (
        ref.clustering, ref.path_length, ref.connected)


def _random_graph(n, p, rng):
    """G(n, p): each of the n(n-1)/2 pairs is an edge with probability p."""
    u, v = np.triu_indices(n, k=1)
    keep = rng.gen.random(u.size) < p
    return Graph.from_edges(n, zip(u[keep].tolist(), v[keep].tolist()))


def _oracle_cases():
    rng = RngStream(105, 0)
    cases = {}
    for i, (n, p) in enumerate([(n, p) for n in (10, 40, 100)
                                for p in (0.02, 0.05, 0.2)]):
        cases[f"random-{n}-{p}"] = _random_graph(n, p, rng.substream(i))
    for n in (1, 2, 63, 64, 65, 128, 129):
        cases[f"edgeless-{n}"] = Graph(n=n, edges=frozenset())
        cases[f"sparse-{n}"] = _random_graph(n, 2.5 / n, rng.substream(100 + n))
        cases[f"path-{n}"] = Graph.from_edges(
            n, [(u, u + 1) for u in range(n - 1)])
    # Two largest components of equal size with different path lengths:
    # the one holding the lowest node index is measured.
    cases["tie-path-first"] = Graph.from_edges(
        7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    cases["tie-triangle-first"] = Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    cases["tie-interleaved"] = Graph.from_edges(
        6, [(1, 3), (3, 5), (1, 5), (0, 2), (2, 4)])
    cases["larger-component-later"] = Graph.from_edges(
        9, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2)])
    # Full neighbour rows, up to and across a 64-bit word boundary.
    for n in (3, 64, 65):
        cases[f"complete-{n}"] = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    # The centre has neighbour pairs but no links among them.
    cases["star"] = Graph.from_edges(9, [(0, v) for v in range(1, 9)])
    cases["two-triangles-and-isolated"] = Graph.from_edges(
        10, [(1, 2), (2, 3), (1, 3), (5, 7), (7, 8), (5, 8)])
    # The forty graphs of the default `network` scan at seed 0.
    scan_rng = RngStream(0, 0).substream(0).substream(0)
    for i, p in enumerate((0.0, 0.02, 0.1, 0.5)):
        for s in range(10):
            cases[f"scan-{p}-{s}"] = watts_strogatz(
                300, 8, p, scan_rng.substream(i * 10 + s))
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_metrics_match_the_scipy_reference_exactly(name):
    g = _ORACLE_CASES[name]
    m, ref = metrics(g), reference_metrics(g)
    assert m.path_length == ref.path_length
    assert m.connected == ref.connected
    assert m.clustering == ref.clustering
    assert m.transitivity == ref.transitivity
    assert np.array_equal(m.degree_histogram, ref.degree_histogram)


# ---------------------------------------------------------------- scan


@pytest.fixture(scope="module")
def desk_scan():
    return small_world_scan(300, 8, [0.0, 0.02, 0.1, 0.5], seeds=10,
                            rng=RngStream(103, 0))


def test_scan_baseline_row_is_exactly_one_one(desk_scan):
    base = desk_scan.points[0]
    assert base.p == 0.0
    assert base.clustering_ratio == 1.0
    assert base.path_length_ratio == 1.0


def test_scan_finds_the_small_world_window(desk_scan):
    assert desk_scan.has_window
    assert any(
        pt.path_length_ratio < 0.5 and pt.clustering_ratio > 0.7
        for pt in desk_scan.points
    )


def test_scan_path_length_decreases_with_rewiring(desk_scan):
    ps = [pt.p for pt in desk_scan.points]
    assert ps == sorted(ps)
    ratios = [pt.path_length_ratio for pt in desk_scan.points]
    rho = spearmanr(ps, ratios).statistic
    assert rho < 0


def test_scan_is_reproducible(desk_scan):
    again = small_world_scan(300, 8, [0.0, 0.02, 0.1, 0.5], seeds=10,
                             rng=RngStream(103, 0))
    assert again.points == desk_scan.points


def test_scan_validation():
    rng = RngStream(105, 0)
    with pytest.raises(ValueError):
        small_world_scan(50, 4, [0.1, 0.5], seeds=10, rng=rng)
    with pytest.raises(ValueError):
        small_world_scan(50, 4, [0.0, 0.1, 0.1], seeds=10, rng=rng)
    with pytest.raises(ValueError):
        small_world_scan(50, 4, [0.0, 0.1], seeds=9, rng=rng)
