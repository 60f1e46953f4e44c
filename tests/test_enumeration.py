"""Regular-graph and small-graph enumeration against independent oracles."""

import itertools

import networkx as nx
import pytest

from edgecritic.enumeration import enumerate_regular_graphs, enumerate_small_graphs
from edgecritic.graphs import Graph, GraphError, canonical_mask, make_graph


def _from_mask(n: int, mask: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return make_graph(n, edges)


def _brute_force_regular(n: int, d: int) -> set:
    """All d-regular graphs on n vertices by scanning every edge mask."""
    pairs = list(itertools.combinations(range(n), 2))
    found = set()
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if all(x == d for x in deg):
            g = _from_mask(n, mask)
            found.add(canonical_mask(g))
    return found


# ---------------------------------------------------------------- counts

KNOWN_COUNTS = {
    (4, 3): 1,   # K4
    (6, 2): 2,   # C6, 2*C3
    (6, 3): 2,   # K33 and the prism
    (6, 5): 1,   # K6
    (8, 2): 3,
    (8, 3): 6,   # 5 connected cubics + K4+K4
    (8, 4): 6,
    (8, 5): 3,
    (8, 6): 1,   # K8 minus a perfect matching
    (8, 7): 1,   # K8
}


@pytest.mark.parametrize("n,d", sorted(KNOWN_COUNTS))
def test_regular_counts(n, d):
    assert len(enumerate_regular_graphs(n, d)) == KNOWN_COUNTS[(n, d)]


@pytest.mark.parametrize("n,d", [(4, 3), (6, 2), (6, 3), (6, 4), (6, 5)])
def test_brute_force_oracle(n, d):
    got = {canonical_mask(g) for g in enumerate_regular_graphs(n, d)}
    assert got == _brute_force_regular(n, d)


def test_complement_duality():
    # complementing a d-regular graph on n vertices gives (n-1-d)-regular
    for n in (4, 6, 8):
        for d in range(1, n - 1):
            if (n * d) % 2:
                continue
            a = len(enumerate_regular_graphs(n, d))
            b = len(enumerate_regular_graphs(n, n - 1 - d))
            assert a == b


def test_parity_violation_raises():
    with pytest.raises(GraphError, match="parity"):
        enumerate_regular_graphs(5, 3)
    with pytest.raises(GraphError, match="parity"):
        enumerate_regular_graphs(7, 3)


def test_results_are_regular_and_distinct():
    for (n, d) in KNOWN_COUNTS:
        graphs = enumerate_regular_graphs(n, d)
        masks = set()
        for g in graphs:
            assert g.n == n
            assert g.is_regular() and g.max_degree() == d
            masks.add(canonical_mask(g))
        assert len(masks) == len(graphs)


def test_results_sorted_deterministic():
    enumerate_regular_graphs.cache_clear()
    first = enumerate_regular_graphs(8, 3)
    enumerate_regular_graphs.cache_clear()
    second = enumerate_regular_graphs(8, 3)
    assert [canonical_mask(g) for g in first] == [canonical_mask(g) for g in second]
    masks = [canonical_mask(g) for g in first]
    assert masks == sorted(masks)


# ------------------------------------------------------- large orders

def test_order_ten_supported_cases():
    (k10,) = enumerate_regular_graphs(10, 9)
    assert k10.is_regular() and k10.max_degree() == 9
    (k10_pm,) = enumerate_regular_graphs(10, 8)
    assert k10_pm.is_regular() and k10_pm.max_degree() == 8
    assert k10_pm.edge_count() == 40


def test_order_ten_general_degree_rejected():
    with pytest.raises(GraphError):
        enumerate_regular_graphs(10, 7)
    with pytest.raises(GraphError):
        enumerate_regular_graphs(12, 3)


# ------------------------------------------------------- small graphs

def test_small_graph_corpus_size():
    corpus = enumerate_small_graphs(8)
    assert len(corpus) == 242


def test_small_graph_corpus_against_atlas():
    # the atlas holds every graph on <= 7 vertices; our corpus keeps those
    # with 1..8 edges and no isolated vertices
    buckets = {}
    total = 0
    for ag in nx.graph_atlas_g():
        e = ag.number_of_edges()
        if not 1 <= e <= 8:
            continue
        if any(d == 0 for _, d in ag.degree()):
            continue
        buckets.setdefault((ag.number_of_nodes(), e), []).append(ag)
        total += 1

    corpus = enumerate_small_graphs(8)
    assert len(corpus) == total
    for g in corpus:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        candidates = buckets.get((g.n, g.edge_count()), [])
        hits = [c for c in candidates if nx.is_isomorphic(h, c)]
        assert len(hits) == 1
        candidates.remove(hits[0])
    assert all(not leftover for leftover in buckets.values())


def test_small_graph_edge_histogram():
    corpus = enumerate_small_graphs(4)
    by_edges = {}
    for g in corpus:
        by_edges[g.edge_count()] = by_edges.get(g.edge_count(), 0) + 1
    assert by_edges == {1: 1, 2: 2, 3: 5, 4: 10}


def test_small_graph_counts_match_oeis_a000664():
    # graphs with e edges and no isolated vertices: 1, 2, 5, 11, 26 for
    # e = 1..5 (OEIS A000664); five edges span up to ten vertices
    def by_edges(corpus):
        return [sum(g.edge_count() == e for g in corpus) for e in range(1, 6)]

    corpus = enumerate_small_graphs(5, max_support=10)
    assert by_edges(corpus) == [1, 2, 5, 11, 26]
    assert all(g.degree(v) > 0 for g in corpus for v in range(g.n))
    # a nine-vertex cap drops exactly five disjoint edges
    capped = enumerate_small_graphs(5, max_support=9)
    assert by_edges(capped) == [1, 2, 5, 11, 25]
    (lost,) = [g for g in corpus if g not in capped]
    assert lost.n == 10 and lost.max_degree() == 1


def test_small_graph_no_isolated_vertices():
    for g in enumerate_small_graphs(6):
        assert all(g.degree(v) > 0 for v in range(g.n))
