import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecritic.graphs import (
    GraphError,
    automorphism_generators,
    canonical_mask,
    complete,
    complete_bipartite,
    complete_minus_matching,
    cube,
    cycle,
    edge_key,
    graph_from_mask,
    is_overfull,
    make_graph,
    petersen,
    petersen_minus_vertex,
    prism,
    stabiliser_generators,
    vertex_split,
)

from conftest import all_automorphisms, regular_classes, small_graphs


def degree_sequence(g):
    return tuple(sorted(g.degree(v) for v in range(g.n)))


def test_edge_key_orders_endpoints():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)
    assert edge_key(2, 2) == (2, 2)


def test_make_graph_basics():
    g = make_graph(4, [(0, 1), (2, 1), (1, 2)])
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.degree(1) == 2
    assert g.degree(3) == 0
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert degree_sequence(g) == (0, 1, 1, 2)
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_make_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        make_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        make_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        make_graph(-1, [])


def test_connectivity_and_regularity():
    assert complete(5).is_connected()
    assert complete(5).is_regular()
    two_parts = make_graph(4, [(0, 1), (2, 3)])
    assert not two_parts.is_connected()
    assert two_parts.is_regular()
    assert make_graph(1, []).is_connected()
    assert not make_graph(3, [(0, 1)]).is_regular()


def test_mask_roundtrip():
    g = petersen_minus_vertex()
    assert graph_from_mask(g.n, g.triangle_mask()) == g


def test_named_builders():
    assert petersen().n == 10
    assert degree_sequence(petersen()) == (3,) * 10
    p = petersen_minus_vertex()
    assert (p.n, p.edge_count()) == (9, 12)
    assert sorted(degree_sequence(p)) == [2, 2, 2] + [3] * 6
    assert degree_sequence(prism()) == (3,) * 6
    assert degree_sequence(cube()) == (3,) * 8
    assert complete_bipartite(3, 3).edge_count() == 9
    assert degree_sequence(complete_minus_matching(8)) == (6,) * 8
    with pytest.raises(GraphError):
        complete_minus_matching(7)
    with pytest.raises(GraphError):
        cycle(2)


def test_vertex_split_c4_gives_c5():
    g = cycle(4)
    split = vertex_split(g, 0, (1,), (3,))
    assert split.n == 5
    assert split.edge_count() == 5
    assert split.has_edge(0, 4)  # the new pair is adjacent
    assert degree_sequence(split) == (2, 2, 2, 2, 2)
    assert split.is_connected()


def test_vertex_split_moves_part_b_to_twin():
    g = complete(4)
    split = vertex_split(g, 0, (1,), (2, 3))
    assert split.n == 5
    assert split.neighbors(0) == frozenset({1, 4})
    assert split.neighbors(4) == frozenset({0, 2, 3})
    assert split.edge_count() == g.edge_count() + 1


def test_split_validation():
    g = complete(4)
    with pytest.raises(GraphError):
        vertex_split(g, 0, (), (1, 2, 3))
    with pytest.raises(GraphError):
        vertex_split(g, 0, (1, 2), (2, 3))
    with pytest.raises(GraphError):
        vertex_split(g, 0, (1,), (2,))  # 3 left out
    with pytest.raises(GraphError):
        vertex_split(g, 9, (1,), (2, 3))


def test_overfull():
    assert is_overfull(cycle(5))
    assert not is_overfull(cycle(4))
    assert not is_overfull(complete(4))
    assert is_overfull(complete(5))
    for n in (0, 1, 3):
        assert not is_overfull(make_graph(n, []))
    # splitting a regular even-order base always lands overfull
    split = vertex_split(complete(6), 0, (1, 2), (3, 4, 5))
    assert is_overfull(split)


def test_canonical_mask_known_values():
    # relabelings of one class agree
    g1 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    g2 = make_graph(4, [(3, 2), (2, 0), (0, 1)])
    assert canonical_mask(g1) == canonical_mask(g2)
    assert canonical_mask(g1) != canonical_mask(cycle(4))
    assert degree_sequence(graph_from_mask(4, canonical_mask(g1))) == degree_sequence(g1)


def _relabel(g, perm):
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_order_ten_canonical_form_and_automorphisms():
    pet = petersen()
    want = canonical_mask(pet)
    rng = random.Random(10)
    for _ in range(20):
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_mask(_relabel(pet, perm)) == want
    assert canonical_mask(cycle(10)) != canonical_mask(complete_minus_matching(10))
    for g, size in ((pet, 120), (complete_minus_matching(10), 3840)):
        auts = all_automorphisms(g)
        assert len(auts) == size
        assert _closure(automorphism_generators(g), 10) == set(auts)
        assert auts[0] == tuple(range(10))
        for p in auts:
            assert sorted(p) == list(range(10))
            assert all(g.has_edge(p[u], p[v]) for u, v in g.edges)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6))
def test_symmetry_search_matches_brute_force(g):
    perms = list(itertools.permutations(range(g.n)))
    assert canonical_mask(g) == min(_relabel(g, p).triangle_mask() for p in perms)
    assert all_automorphisms(g) == [p for p in perms
                                if all(g.has_edge(p[u], p[v]) for u, v in g.edges)]


@settings(max_examples=60)
@given(small_graphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_mask_is_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_mask(_relabel(g, perm)) == canonical_mask(g)


def test_automorphism_group_sizes():
    for g, size in ((complete(4), 24), (cycle(5), 10), (complete_bipartite(3, 3), 72),
                    (cube(), 48), (prism(), 12), (complete_minus_matching(8), 384)):
        assert len(all_automorphisms(g)) == size
        assert _group_order(automorphism_generators(g), g.n) == size


def _group_order(gens, n):
    """Product over levels i of the orbit of i under the generators fixing 0..i-1."""
    order = 1
    for i in range(n):
        level = [p for p in gens if all(p[j] == j for j in range(i))]
        orbit, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for p in level:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    frontier.append(p[x])
        order *= len(orbit)
    return order


def _closure(gens, n):
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        q = frontier.pop()
        for p in gens:
            r = tuple(p[x] for x in q)
            if r not in group:
                group.add(r)
                frontier.append(r)
    return group


def assert_generates_whole_group(g):
    gens = automorphism_generators(g)
    assert len(gens) <= max(g.n - 1, 0)
    for p in gens:
        assert sorted(p) == list(range(g.n))
        assert all(g.has_edge(p[u], p[v]) for u, v in g.edges)
    auts = all_automorphisms(g)
    assert _closure(gens, g.n) == set(auts)
    # a strong generating set: the chain's orbit lengths multiply to the order
    assert _group_order(gens, g.n) == len(auts)


def test_generators_generate_the_group_of_every_small_regular_graph():
    count = 0
    for m in range(1, 9):
        for d in range(m):
            if m * d % 2:
                continue
            for g in regular_classes(m, d):
                assert_generates_whole_group(g)
                count += 1
    assert count == 48


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_generators_generate_the_group_of_small_graphs(g):
    assert_generates_whole_group(g)


def test_generators_generate_the_group_of_named_graphs():
    for g in (complete(1), complete(4), cycle(5), complete_bipartite(3, 3), cube(),
              prism(), complete_minus_matching(8), petersen(), petersen_minus_vertex()):
        assert_generates_whole_group(g)


def test_order_ten_group_orders_from_generators_alone():
    for g, size in ((complete(10), 3628800), (complete_minus_matching(10), 3840),
                    (petersen(), 120)):
        gens = automorphism_generators(g)
        assert len(gens) <= 9
        assert _group_order(gens, 10) == size


def assert_stabilisers_generated(g):
    gens = automorphism_generators(g)
    auts = all_automorphisms(g)
    identity = tuple(range(g.n))
    for v in range(g.n):
        stab = stabiliser_generators(gens, v)
        assert identity not in stab and len(set(stab)) == len(stab)
        assert _closure(stab, g.n) == {p for p in auts if p[v] == v}, v


def test_schreier_generators_generate_every_vertex_stabiliser():
    for m in range(1, 9):
        for d in range(m):
            if m * d % 2 == 0:
                for g in regular_classes(m, d):
                    assert_stabilisers_generated(g)
    for g in (petersen_minus_vertex(), complete_bipartite(2, 4), prism()):
        assert_stabilisers_generated(g)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6))
def test_schreier_generators_generate_stabilisers_of_small_graphs(g):
    assert_stabilisers_generated(g)


def test_automorphisms_preserve_adjacency():
    g = prism()
    for p in automorphism_generators(g) + all_automorphisms(g):
        for u, v in g.edges:
            assert g.has_edge(p[u], p[v])


def test_split_preserves_other_degrees():
    rng = random.Random(7)
    base = petersen_minus_vertex()
    for _ in range(20):
        v = rng.randrange(base.n)
        nbrs = sorted(base.neighbors(v))
        if len(nbrs) < 2:
            continue
        cut = rng.randint(1, len(nbrs) - 1)
        split = vertex_split(base, v, nbrs[:cut], nbrs[cut:])
        for w in range(base.n):
            if w != v:
                assert split.degree(w) == base.degree(w)
        assert split.degree(v) == cut + 1
        assert split.degree(base.n) == len(nbrs) - cut + 1
