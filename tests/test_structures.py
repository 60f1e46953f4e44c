"""Fan/path/kite structures and their validators."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_two_graphs, corpus_hosts, find_short_kites, small_graphs
from edgecritic.coloring import ColoringError, PartialEdgeColoring
from edgecritic.graph6 import parse_graph6
from edgecritic.graphs import (
    complete,
    cube,
    cycle,
    make_graph,
    petersen,
    petersen_minus_vertex,
)
from edgecritic.solver import find_coloring
from edgecritic.structures import (
    build_maximal_multifan,
    enumerate_kierstead_paths,
    find_full_deficiency_pairs,
    kierstead_violation,
    kite_violation,
    kites_with_head,
    multifan_violation,
)


def holed_triangle():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    return PartialEdgeColoring(g, 2, {(0, 2): 1, (1, 2): 2}, uncolored=(0, 1))


def full_triangle():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    return PartialEdgeColoring(g, 3, {(0, 1): 3, (0, 2): 1, (1, 2): 2})


# ------------------------------------------------------------ multifan

def test_multifan_on_triangle():
    col = holed_triangle()
    assert multifan_violation(col, (0, 1, 2)) is None


def test_multifan_reason_strings():
    col = holed_triangle()
    assert multifan_violation(full_triangle(), (0, 1)) == "no uncolored edge"
    assert multifan_violation(col, (0,)) == "empty leaf sequence"
    assert multifan_violation(col, (0, 1, 1)) == "vertices repeat"
    assert multifan_violation(col, (0, 1, 0)) == "vertices repeat"
    assert multifan_violation(col, (0, 2, 1)) == "first spoke is not the uncolored edge"
    g4 = make_graph(4, [(0, 1), (0, 2), (1, 3)])
    col4 = PartialEdgeColoring(g4, 2, {(0, 2): 1, (1, 3): 1}, uncolored=(0, 1))
    assert multifan_violation(col4, (0, 1, 3)) == "missing spoke (0, 3)"


def test_multifan_spoke_color_must_be_missing_earlier():
    g = make_graph(4, [(0, 1), (0, 2), (1, 3)])
    col = PartialEdgeColoring(g, 2, {(0, 2): 1, (1, 3): 1}, uncolored=(0, 1))
    # color 1 is present at leaf 1, so spoke (0,2) has no earlier sponsor
    assert multifan_violation(col, (0, 1, 2)) \
        == "color 1 of spoke (0, 2) not missing at any earlier leaf"


def test_build_maximal_multifan_triangle():
    fan = build_maximal_multifan(holed_triangle(), 0)
    assert fan == (0, 1, 2)


def test_build_maximal_multifan_errors():
    with pytest.raises(ColoringError, match="no uncolored"):
        build_maximal_multifan(full_triangle(), 0)
    with pytest.raises(ColoringError, match="not an endpoint"):
        build_maximal_multifan(holed_triangle(), 2)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_build_maximal_multifan_is_valid_and_maximal(g, data):
    hole = data.draw(st.sampled_from(sorted(g.edges)))
    col = find_coloring(g, g.max_degree() + 1, hole=hole)
    assert col is not None
    center = data.draw(st.sampled_from(hole))
    fan = build_maximal_multifan(col, center)
    assert multifan_violation(col, fan) is None
    # maximality: no admissible spoke remains outside the fan
    union = 0
    for s in fan[1:]:
        union |= col.missing_mask(s)
    for w in col.graph.neighbors(center):
        if w in fan[1:]:
            continue
        c = col.color_of(center, w)
        assert not (c and union & (1 << c))


# ------------------------------------------------------------ kierstead paths

def test_kierstead_path_on_a_path_host():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    col = PartialEdgeColoring(g, 2, {(1, 2): 1, (2, 3): 2}, uncolored=(0, 1))
    path = (0, 1, 2, 3)
    assert kierstead_violation(col, path) is None


def test_kierstead_reason_strings():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    col = PartialEdgeColoring(g, 2, {(1, 2): 1, (2, 3): 2}, uncolored=(0, 1))
    full = PartialEdgeColoring(g, 2, {(0, 1): 2, (1, 2): 1, (2, 3): 2})
    assert kierstead_violation(full, (0, 1)) == "no uncolored edge"
    assert kierstead_violation(col, (0,)) == "too short"
    assert kierstead_violation(col, (0, 1, 0)) == "vertices repeat"
    assert kierstead_violation(col, (1, 2, 3)) == "first edge is not the uncolored edge"
    assert kierstead_violation(col, (0, 1, 3)) == "missing edge (1, 3)"


def test_kierstead_color_must_be_missing_earlier():
    g = make_graph(5, [(0, 1), (0, 4), (1, 2), (2, 3)])
    col = PartialEdgeColoring(
        g, 2, {(0, 4): 1, (1, 2): 1, (2, 3): 2}, uncolored=(0, 1))
    assert kierstead_violation(col, (0, 1, 2, 3)) \
        == "color 1 of edge (1, 2) not missing at any earlier vertex"


def test_enumerate_kierstead_paths_too_few_vertices():
    assert enumerate_kierstead_paths(holed_triangle()) == []


def test_enumerate_kierstead_paths_requires_hole():
    with pytest.raises(ColoringError, match="no uncolored"):
        enumerate_kierstead_paths(full_triangle())


def test_enumerate_kierstead_paths_both_orientations():
    g = cycle(4)
    col = PartialEdgeColoring(g, 3, {(1, 2): 1, (2, 3): 3, (0, 3): 2},
                              uncolored=(0, 1))
    got = enumerate_kierstead_paths(col)
    assert got == [(0, 1, 2, 3), (1, 0, 3, 2)]
    for p in got:
        assert kierstead_violation(col, p) is None


@settings(max_examples=60, deadline=None)
@given(small_graphs(min_n=4), st.data())
def test_enumerated_kierstead_paths_validate(g, data):
    hole = data.draw(st.sampled_from(sorted(g.edges)))
    col = find_coloring(g, g.max_degree() + 1, hole=hole)
    paths = enumerate_kierstead_paths(col)
    assert len(set(paths)) == len(paths)
    for p in paths:
        assert len(p) == 4
        assert kierstead_violation(col, p) is None, kierstead_violation(col, p)


@settings(max_examples=60, deadline=None)
@given(class_two_graphs(min_n=4))
def test_enumerated_kierstead_paths_are_every_four_vertex_path(g):
    # the battery's kite filter rests on this: on a proper hole coloring the
    # enumeration finds exactly the four-vertex sequences the validator accepts
    delta = g.max_degree()
    for hole in g.sorted_edges():
        col = find_coloring(g, delta, hole=hole)
        if col is None:
            continue
        brute = sorted(vs for vs in itertools.permutations(range(g.n), 4)
                       if kierstead_violation(col, vs) is None)
        assert sorted(enumerate_kierstead_paths(col)) == brute


# ------------------------------------------------------------ short kites

def kite_host():
    # exactly one kite shape up to rim/tail ordering
    return make_graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)])


def test_kite_validators():
    g = kite_host()
    # (apex, rim1, rim2, hub, tail1, tail2)
    assert kite_violation(g, (0, 1, 2, 3, 4, 5)) is None
    assert kite_violation(g, (0, 1, 2, 3, 4, 4)) == "vertices repeat"
    assert kite_violation(g, (1, 0, 3, 2, 4, 5)) == "missing edge (2, 4)"
    # the missing edge is named low end first
    assert kite_violation(g, (4, 1, 2, 3, 0, 5)) == "missing edge (1, 4)"


def four_vertex_paths(g):
    """Every labelled path a-b-c-d of the host, as a head (apex, rim1, hub, tail1)."""
    return [(a, b, c, d) for a in range(g.n) for b in g.neighbors(a)
            for c in g.neighbors(b) for d in g.neighbors(c) if len({a, b, c, d}) == 4]


def kites_by_head(g):
    """The union of `kites_with_head` over every four-vertex path of the host."""
    return [kite for head in four_vertex_paths(g) for kite in kites_with_head(g, head)]


def role_order(kite):
    apex, rim1, rim2, hub, tail1, tail2 = kite
    return (hub, rim1, rim2, apex, tail1, tail2)


def test_kites_with_head_exact():
    g = kite_host()
    assert kites_with_head(g, (0, 1, 3, 4)) == [(0, 1, 2, 3, 4, 5)]
    assert kites_with_head(g, (0, 1, 3, 5)) == [(0, 1, 2, 3, 5, 4)]
    assert kites_with_head(g, (0, 2, 3, 4)) == [(0, 2, 1, 3, 4, 5)]
    assert kites_with_head(g, (0, 2, 3, 5)) == [(0, 2, 1, 3, 5, 4)]
    got = sorted(kites_by_head(g), key=role_order)
    assert got == [
        (0, 1, 2, 3, 4, 5),
        (0, 1, 2, 3, 5, 4),
        (0, 2, 1, 3, 4, 5),
        (0, 2, 1, 3, 5, 4),
    ]
    for kite in got:
        assert kite_violation(kite_host(), kite) is None
    # a head that is not a path of the host heads no kite
    paths = set(four_vertex_paths(g))
    for head in itertools.permutations(range(g.n), 4):
        if head not in paths:
            assert kites_with_head(g, head) == [], head
    assert kites_with_head(g, (0, 1, 3, 0)) == []


def test_kites_with_head_lists_role_order_within_a_head():
    g = complete(7)
    got = kites_with_head(g, (0, 1, 2, 3))
    assert len(got) == 3 * 2  # rim2 from {4, 5, 6}, tail2 from the other two
    assert got == sorted(got, key=lambda k: (k[2], k[5]))  # (rim2, tail2)
    assert {(k[0], k[1], k[3], k[4]) for k in got} == {(0, 1, 2, 3)}


@pytest.mark.parametrize("g", [
    kite_host(), complete(6), cube(), petersen(), cycle(6), complete(5),
    parse_graph6(r"Fj\|w"), parse_graph6("HY|vzyT"),
], ids=["kite-host", "k6", "cube", "petersen", "c6", "k5", "split-Fj", "split-HY"])
def test_kites_with_head_cover_every_labelled_kite(g):
    # the whole-graph enumerator is the independent reference
    got = kites_by_head(g)
    assert sorted(got, key=role_order) == find_short_kites(g)
    assert len(set(got)) == len(got)


def test_no_kites_in_small_or_cubic_hosts():
    for g in (complete(5), petersen(), cycle(6)):  # too few vertices, hub degree < 4
        assert four_vertex_paths(g)
        assert kites_by_head(g) == []


def test_k6_kite_count():
    kites = kites_by_head(complete(6))
    assert len(kites) == 720
    assert len(set(kites)) == 720


@settings(max_examples=50, deadline=None)
@given(small_graphs(min_n=6, max_n=7))
def test_found_kites_are_kites(g):
    for head in four_vertex_paths(g):
        for kite in kites_with_head(g, head):
            assert kite_violation(g, kite) is None
            assert (kite[0], kite[1], kite[3], kite[4]) == head


@pytest.mark.parametrize("g", [parse_graph6(r"Fj\|w"), parse_graph6("HY|vzyT")],
                         ids=["split-Fj", "split-HY"])
def test_kites_with_head_keeps_the_kites_whose_rim2_path_is_kierstead(g):
    kept = 0
    for e in g.sorted_edges():
        phi = find_coloring(g, g.max_degree(), hole=e)
        for head in four_vertex_paths(g):
            if head[:2] not in (e, e[::-1]):
                continue
            want = [k for k in kites_with_head(g, head)
                    if kierstead_violation(
                        phi, (k[1], k[0], k[2], k[3], k[5])) is None]
            assert kites_with_head(g, head, phi) == want, (e, head)
            kept += len(want)
    assert kept > 0


def test_kite_filter_matches_the_five_vertex_check_on_the_corpus():
    # the filter checks each rim2 prefix once and then only the hub-tail2
    # color; the reference walks every rim2 path whole
    kept = 0
    for g in corpus_hosts():
        for e in g.sorted_edges():
            phi = find_coloring(g, g.max_degree(), hole=e)
            if phi is None:
                continue
            for head in enumerate_kierstead_paths(phi):
                want = [k for k in kites_with_head(g, head)
                        if kierstead_violation(phi, (k[1], k[0], k[2], k[3], k[5])) is None]
                assert kites_with_head(g, head, phi) == want, (g, e, head)
                kept += len(want)
    assert kept == 3094


# ------------------------------------------------------------ deficiency pairs

def test_full_deficiency_pairs_exact():
    got = find_full_deficiency_pairs(petersen_minus_vertex())
    assert got == [
        (0, 4),
        (1, 6),
        (2, 7),
        (3, 4),
        (5, 7),
        (6, 8),
    ]


def test_full_deficiency_pairs_regular_host():
    # 2d = d+2 only for d = 2: every edge of a cycle qualifies, none of a
    # denser regular graph does
    assert len(find_full_deficiency_pairs(cycle(5))) == 5
    assert find_full_deficiency_pairs(petersen()) == []
