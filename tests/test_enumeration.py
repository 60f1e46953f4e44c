"""Regular-graph enumeration and canonical masks against independent oracles."""

import itertools
import random

import networkx as nx
import pytest

from conftest import regular_classes, small_graph_corpus
from edgecritic import enumeration
from edgecritic.enumeration import enumerate_regular_graphs
from edgecritic.graphs import (
    Graph,
    GraphError,
    canonical_mask,
    edge_key,
    graph_from_mask,
    make_graph,
)


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
    # complementing a d-regular graph on n vertices gives (n-1-d)-regular;
    # both sides come from their own switch search
    pairs = [(n, d) for n in (4, 6, 8) for d in range(1, n - 1) if (n * d) % 2 == 0]
    for n, d in pairs + [(10, 3), (10, 6), (10, 2), (10, 7)]:
        full = (1 << n * (n - 1) // 2) - 1
        complements = {canonical_mask(_from_mask(n, full ^ g.triangle_mask()))
                       for g in regular_classes(n, d)}
        assert complements == {g.triangle_mask() for g in regular_classes(n, n - 1 - d)}


def test_parity_violation_raises():
    with pytest.raises(GraphError, match="parity"):
        enumerate_regular_graphs(5, 3)
    with pytest.raises(GraphError, match="parity"):
        enumerate_regular_graphs(7, 3)


def test_order_and_degree_out_of_range_raise():
    with pytest.raises(GraphError, match="order must be positive"):
        enumerate_regular_graphs(0, 0)
    for d in (-1, 4):
        with pytest.raises(GraphError, match="out of range for order 4"):
            enumerate_regular_graphs(4, d)


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
    first = enumerate_regular_graphs(8, 3)
    second = enumerate_regular_graphs(8, 3)
    assert [canonical_mask(g) for g in first] == [canonical_mask(g) for g in second]
    masks = [canonical_mask(g) for g in first]
    assert masks == sorted(masks)


def test_switch_closure_canonicalises_one_switch_per_automorphism_orbit(monkeypatch):
    # one call for the starting circulant and one per switch orbit of each
    # class: the graphs fix these counts, not the code
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_mask(g)

    monkeypatch.setattr(enumeration, "canonical_mask", counted)
    enumerate_regular_graphs(8, 3)
    assert len(calls) == 41
    calls.clear()
    for m in (4, 6, 8):  # the degrees of `sweep --m-max 8`: 3d > m
        for d in range(m):
            if m * d % 2 == 0 and 3 * d > m:
                enumerate_regular_graphs(m, d)
    assert len(calls) == 106


# ------------------------------------------------------- large orders

def test_order_ten_supported_cases():
    (k10,) = enumerate_regular_graphs(10, 9)
    assert k10.is_regular() and k10.max_degree() == 9
    (k10_pm,) = enumerate_regular_graphs(10, 8)
    assert k10_pm.is_regular() and k10_pm.max_degree() == 8
    assert k10_pm.edge_count() == 40


# OEIS A051031: d-regular graphs on 10 vertices, d = 2..7
ORDER_TEN_COUNTS = {2: 5, 3: 21, 4: 60, 5: 60, 6: 21, 7: 5}


def test_order_ten_counts_match_oeis_a051031():
    got = {d: len(regular_classes(10, d)) for d in ORDER_TEN_COUNTS}
    assert got == ORDER_TEN_COUNTS


@pytest.mark.parametrize("d", [3, 4])
def test_order_ten_classes_pairwise_non_isomorphic(d):
    # classes that differ in an isomorphism invariant are not isomorphic, so
    # only pairs inside one group of the invariant are tested: each vertex's
    # triangle count with its neighbours' sorted counts, sorted over the
    # vertices (a Weisfeiler-Lehman hash cannot split regular graphs of one degree)
    groups = {}
    for g in regular_classes(10, d):
        assert g.n == 10 and g.is_regular() and g.max_degree() == d
        h = nx.Graph()
        h.add_nodes_from(range(10))
        h.add_edges_from(g.edges)
        tri = nx.triangles(h)
        key = tuple(sorted((tri[v], tuple(sorted(tri[w] for w in h[v]))) for v in h))
        groups.setdefault(key, []).append(h)
    for group in groups.values():
        for a, b in itertools.combinations(group, 2):
            assert not nx.is_isomorphic(a, b)


# d-regular graphs near the complete graph, by their sparse complements: an
# (m-3)-regular graph is the complement of a disjoint union of cycles, one class
# per partition of m into parts >= 3; an (m-2)-regular one is K_m minus a
# perfect matching
DENSE_COUNTS = {
    (12, 9): 9, (14, 11): 13, (16, 13): 21,
    (12, 10): 1, (12, 11): 1, (14, 12): 1, (14, 13): 1,
}


@pytest.mark.parametrize("m,d", sorted(DENSE_COUNTS))
def test_dense_counts_match_partitions_into_cycles(m, d):
    graphs = enumerate_regular_graphs(m, d)
    assert len(graphs) == DENSE_COUNTS[(m, d)]
    assert all(g.n == m and g.is_regular() and g.max_degree() == d for g in graphs)


def test_order_twelve_degree_eight_matches_oeis_a005638():
    # complements of the 94 cubic graphs on 12 vertices (OEIS A005638)
    assert len(enumerate_regular_graphs(12, 8)) == 94


def _labeled_regular(m: int, d: int):
    """Reference: every d-regular labelled graph on m vertices with N(0) = {1..d}.

    Every isomorphism class has a labelling of this shape.
    """
    need = [d] * m
    adj = [set() for _ in range(m)]

    def connect(u, v):
        adj[u].add(v)
        adj[v].add(u)
        need[u] -= 1
        need[v] -= 1

    def disconnect(u, v):
        adj[u].remove(v)
        adj[v].remove(u)
        need[u] += 1
        need[v] += 1

    for w in range(1, d + 1):
        connect(0, w)

    def rec(v):
        if v == m:
            if all(x == 0 for x in need):
                yield make_graph(m, {(u, w) for u in range(m) for w in adj[u] if u < w})
            return
        if need[v] == 0:
            yield from rec(v + 1)
            return
        candidates = [w for w in range(v + 1, m) if need[w] > 0]
        if len(candidates) < need[v]:
            return
        for chosen in itertools.combinations(candidates, need[v]):
            for w in chosen:
                connect(v, w)
            yield from rec(v + 1)
            for w in chosen:
                disconnect(v, w)

    yield from rec(1)


def test_switch_closure_matches_labelled_stream_through_order_eight():
    pairs = 0
    for m in range(1, 9):
        for d in range(m):
            if m * d % 2:
                continue
            want = sorted({canonical_mask(g) for g in _labeled_regular(m, d)})
            assert [g.triangle_mask() for g in enumerate_regular_graphs(m, d)] == want, (m, d)
            pairs += 1
    assert pairs == 30


# ------------------------------------------------------- small graphs

def test_small_graph_corpus_size():
    assert len(small_graph_corpus(8)) == 242


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_small_graph_corpus_against_atlas():
    # the atlas lists each graph on <= 7 vertices once up to isomorphism, so
    # the corpus keeps one graph per class exactly when canonical masks part
    # every two atlas graphs of one order and ignore relabelling
    rng = random.Random(1253)
    seen = set()
    for ag in nx.graph_atlas_g():
        g = make_graph(ag.number_of_nodes(), ag.edges())
        key = (g.n, canonical_mask(g))
        assert key not in seen
        seen.add(key)
        assert canonical_mask(_relabelled(g, rng)) == key[1]
    assert len(seen) == 1253


def test_canonical_masks_agree_with_networkx_on_orders_eight_to_ten():
    # pairs with equal degree sequences: a graph and a relabelled copy after
    # zero to two random double-edge switches, which keep every degree
    rng = random.Random(810)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(8, 10)
        g = make_graph(n, rng.sample(list(itertools.combinations(range(n), 2)), 2 * n))
        edges = set(g.edges)
        switches = rng.randint(0, 2)
        while switches:
            (a, b), (c, d) = (rng.sample(e, 2) for e in rng.sample(sorted(edges), 2))
            if len({a, b, c, d}) == 4 and not {edge_key(a, c), edge_key(b, d)} & edges:
                edges -= {edge_key(a, b), edge_key(c, d)}
                edges |= {edge_key(a, c), edge_key(b, d)}
                switches -= 1
        h = _relabelled(make_graph(n, edges), rng)
        same = nx.is_isomorphic(_nx(g), _nx(h))
        assert (canonical_mask(g) == canonical_mask(h)) == same
        outcomes[same] += 1
    assert min(outcomes.values()) > 50


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_small_graph_edge_histogram():
    by_edges = {}
    for g in small_graph_corpus(4):
        by_edges[g.edge_count()] = by_edges.get(g.edge_count(), 0) + 1
    assert by_edges == {1: 1, 2: 2, 3: 5, 4: 10}


def _grown_classes(max_edges: int, max_support: int) -> list[set[tuple[int, int]]]:
    """The (order, canonical mask) pairs of the graphs with e edges, no
    isolated vertex and at most max_support vertices, for e = 1..max_edges:
    each level adds one edge to every graph of the level before, between two
    of its vertices, to one new vertex, or on two new vertices."""
    levels = [{(2, 1)}]
    for _ in range(1, max_edges):
        nxt = set()
        for n, mask in levels[-1]:
            g = graph_from_mask(n, mask)
            children = [make_graph(n, g.edges | {(u, v)})
                        for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v)]
            if n + 1 <= max_support:
                children += [make_graph(n + 1, g.edges | {(v, n)}) for v in range(n)]
            if n + 2 <= max_support:
                children.append(make_graph(n + 2, g.edges | {(n, n + 1)}))
            nxt |= {(child.n, canonical_mask(child)) for child in children}
        levels.append(nxt)
    return levels


def test_small_graph_counts_match_oeis_a000664():
    # graphs with e edges and no isolated vertices: 1, 2, 5, 11, 26 for
    # e = 1..5 (OEIS A000664); five edges span up to ten vertices, past the
    # atlas, so the classes are grown edge by edge and told apart by mask
    levels = _grown_classes(5, 10)
    assert [len(level) for level in levels] == [1, 2, 5, 11, 26]
    # a nine-vertex cap drops exactly five disjoint edges
    capped = _grown_classes(5, 9)
    assert [len(level) for level in capped] == [1, 2, 5, 11, 25]
    ((n, mask),) = levels[-1] - capped[-1]
    lost = graph_from_mask(n, mask)
    assert lost.n == 10 and lost.max_degree() == 1


def test_small_graph_no_isolated_vertices():
    for g in small_graph_corpus(6):
        assert all(g.degree(v) > 0 for v in range(g.n))
