"""Exact chromatic-index search against known values and brute-force facts."""

import math

import pytest
from hypothesis import given, settings

import edgecritic.solver as solver
from conftest import (
    assert_proper,
    class_two_graphs,
    corpus_hosts,
    is_critical_by_deletion,
    small_graphs,
    solve_recursively,
)
from edgecritic.coloring import PartialEdgeColoring
from edgecritic.graph6 import emit_graph6, parse_graph6
from edgecritic.graphs import (
    GraphError,
    complete,
    complete_bipartite,
    complete_minus_matching,
    cube,
    cycle,
    make_graph,
    petersen,
    petersen_minus_vertex,
    prism,
)
from edgecritic.lemmas import lemma_records
from edgecritic.solver import (
    SearchBudgetExceeded,
    chromatic_index,
    critical_edge_report,
    enumerate_colorings,
    find_coloring,
    find_delta_coloring,
    vizing_color,
)
from edgecritic.verifier import SplitInstance, check_split_instance

KNOWN_INDEX = {
    "k4": (complete(4), 3),
    "k5": (complete(5), 5),
    "k6": (complete(6), 5),
    "k8": (complete(8), 7),
    "k6-pm": (complete_minus_matching(6), 4),  # the octahedron: class 1
    "c5": (cycle(5), 3),
    "c6": (cycle(6), 2),
    "petersen": (petersen(), 4),
    "petersen-v": (petersen_minus_vertex(), 4),
    "k33": (complete_bipartite(3, 3), 3),
    "prism": (prism(), 3),
    "cube": (cube(), 3),
}


@pytest.mark.parametrize("name", sorted(KNOWN_INDEX))
def test_chromatic_index_known(name):
    g, chi = KNOWN_INDEX[name]
    assert chromatic_index(g) == chi


def test_chromatic_index_edgeless():
    for n in (0, 1, 3):
        assert chromatic_index(make_graph(n, [])) == 0


def test_find_coloring_basic():
    col = find_coloring(complete_bipartite(3, 3), 3)
    assert col is not None and col.is_full() and col.k == 3
    assert_proper(col)
    assert find_coloring(cycle(5), 2) is None
    assert find_coloring(complete(4), 2) is None  # degree bound alone refutes


def test_find_coloring_hole():
    col = find_coloring(cycle(5), 2, hole=(1, 0))
    assert col is not None
    assert col.uncolored == (0, 1)
    assert_proper(col)
    with pytest.raises(GraphError):
        find_coloring(cycle(5), 2, hole=(0, 2))


def test_hole_searches_do_not_depend_on_search_order():
    # the host's search plan is cached and shared by its hole searches; it
    # carries nothing from one search to the next
    for g in corpus_hosts():
        delta = g.max_degree()
        edges = g.sorted_edges()
        forward = [find_coloring(g, delta, hole=e) for e in edges]
        backward = [find_coloring(g, delta, hole=e) for e in reversed(edges)]
        assert forward == backward[::-1], g
        for e, found in zip(edges, forward):
            solver._search_plan.cache_clear()
            assert find_coloring(g, delta, hole=e) == found, (g, e)


def test_find_delta_coloring():
    assert find_delta_coloring(cycle(5)) is None
    col = find_delta_coloring(cube())
    assert col is not None and col.k == 3 and col.is_full()


ENUMERATION_COUNTS = [
    (complete(3), 3, None, 6),
    (cycle(4), 2, None, 2),
    (complete_bipartite(3, 3), 3, None, 12),
    (prism(), 3, None, 6),
    (cube(), 3, None, 24),
    (complete(6), 5, None, 720),
    (petersen_minus_vertex(), 3, (0, 1), 42),
]


@pytest.mark.parametrize("g,k,hole,count", ENUMERATION_COUNTS)
def test_enumeration_counts(g, k, hole, count):
    # one coloring per renaming: a coloring with j colors stands for the
    # perm(k, j) colorings that rename its colors into the palette
    cols = list(enumerate_colorings(g, k, hole=hole))
    texts = set()
    for col in cols:
        assert_proper(col)
        assert col.uncolored == hole
        texts.add(col.to_text())
    assert len(texts) == len(cols)  # pairwise distinct
    assert sum(math.perm(k, len({c for _, c in col.colored_items()})) for col in cols) == count


def _first_by_reference(g, k, hole):
    for assign in solve_recursively(g, k, hole, enumerate_all=False):
        return PartialEdgeColoring(g, k, assign, hole).to_text()
    return None


def test_search_matches_the_recursive_reference_on_the_corpus():
    # the base searches at max degree and one more, and every hole search
    for g in corpus_hosts():
        delta = g.max_degree()
        searches = [(delta, None), (delta + 1, None)] + [(delta, e) for e in g.sorted_edges()]
        for k, hole in searches:
            found = find_coloring(g, k, hole=hole)
            text = None if found is None else found.to_text()
            assert text == _first_by_reference(g, k, hole), (g, k, hole)


@pytest.mark.parametrize("g,k,hole,count", ENUMERATION_COUNTS)
def test_enumeration_matches_the_recursive_reference(g, k, hole, count):
    # the stream is the first member of each renaming class of every
    # coloring, in the reference's order; the reference yields each
    # assignment in its edge order, so naming the colors by first appearance
    # gives the class
    want, classes = [], set()
    for assign in solve_recursively(g, k, hole, enumerate_all=True):
        names = {}
        renaming_class = tuple(names.setdefault(c, len(names)) for c in assign.values())
        if renaming_class not in classes:
            classes.add(renaming_class)
            want.append(PartialEdgeColoring(g, k, assign, hole).to_text())
    assert [col.to_text() for col in enumerate_colorings(g, k, hole=hole)] == want


def test_enumeration_deterministic():
    first = [c.to_text() for c in enumerate_colorings(prism(), 3)]
    second = [c.to_text() for c in enumerate_colorings(prism(), 3)]
    assert first == second


def test_enumeration_bad_hole():
    with pytest.raises(GraphError):
        list(enumerate_colorings(cycle(4), 2, hole=(0, 2)))


def test_budget_exhaustion_raises():
    # K8's 6,240 one-factorizations outlast the 512-node clock stride
    with pytest.raises(SearchBudgetExceeded):
        list(enumerate_colorings(complete(8), 7, budget_ms=1e-6))


def split_instance(base, budget):
    return SplitInstance(f"{emit_graph6(base)} v=0 A=1 B=2,3", emit_graph6(base),
                         find_delta_coloring(base).to_text(), 0, (1,), (2, 3), budget)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.0, -5.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_every_budgeted_call_refuses_a_bad_budget(budget):
    # a NaN deadline would never fire; the one rule refuses it before any work.
    # A split check may make no search: propagation certifies every edge of
    # the K4 split, and the paw, which is not regular, is skipped. So a split
    # meets the rule when its instance is built
    paw = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    for call in (lambda: find_coloring(petersen(), 3, budget_ms=budget),
                 lambda: list(lemma_records(petersen(), budget)),
                 lambda: critical_edge_report(petersen(), budget),
                 lambda: split_instance(complete(4), budget),
                 lambda: split_instance(paw, budget)):
        with pytest.raises(GraphError, match="budget_ms must be finite and above 0"):
            call()
    assert [check_split_instance(split_instance(g, None)).verdict
            for g in (complete(4), paw)] == ["pass", "skipped"]
    assert solver.check_budget(None) is None and solver.check_budget(1e-6) == 1e-6


def test_no_budget_means_no_deadline():
    # a None budget must finish regardless of wall time
    assert chromatic_index(complete(6)) == 5


# ------------------------------------------------------------ criticality

def test_critical_edges_of_odd_cycle():
    g = cycle(5)
    assert all(is_critical_by_deletion(g, e) for e in g.sorted_edges())
    ok, crit = critical_edge_report(g)
    assert ok and crit == g.sorted_edges()


def test_class_one_graph_is_never_critical():
    g = cycle(6)
    assert not is_critical_by_deletion(g, (0, 1))
    ok, crit = critical_edge_report(g)
    assert not ok and crit == []


def test_petersen_not_edge_critical():
    # class 2, but removing one edge still leaves a class 2 graph
    ok, crit = critical_edge_report(petersen())
    assert not ok and crit == []


def test_petersen_minus_vertex_is_edge_critical():
    g = petersen_minus_vertex()
    ok, crit = critical_edge_report(g)
    assert ok and len(crit) == g.edge_count() == 12


def assert_report_matches_definition(g):
    ok, crit = critical_edge_report(g)
    assert crit == [e for e in g.sorted_edges() if is_critical_by_deletion(g, e)]
    class2 = chromatic_index(g) > g.max_degree()
    assert ok == (g.is_connected() and class2 and len(crit) == g.edge_count())


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_critical_report_matches_per_edge_decisions(g):
    # the report slides holes on class-2 hosts and uses the degree argument
    # on class-1 ones; deleting each edge alone agrees
    assert_report_matches_definition(g)


@settings(max_examples=60, deadline=None)
@given(class_two_graphs())
def test_critical_report_matches_definition_on_class_two_hosts(g):
    assert_report_matches_definition(g)


def test_critical_report_on_edgeless_graph():
    for n in (0, 1, 3):
        assert critical_edge_report(make_graph(n, [])) == (False, [])


def test_vizing_color_on_edgeless_graph():
    for n in (0, 1, 3):
        phi = vizing_color(make_graph(n, []))
        assert phi.k == 1 and phi.is_full() and not list(phi.colored_items())


@pytest.mark.parametrize("g, crit, searches", [
    (complete(4), [], 1),
    (cube(), [], 1),
    (complete_bipartite(1, 3), [(0, 1), (0, 2), (0, 3)], 4),
], ids=["k4", "cube", "k13"])
def test_class_one_report_searches_each_edge_once(monkeypatch, g, crit, searches):
    # one class decision; G - e can lose a colour only when e covers every
    # max-degree vertex, and each such edge gets one (delta - 1)-colour search
    calls = []

    def counting(graph, k, hole=None, budget_ms=None):
        calls.append((k, hole))
        return find_coloring(graph, k, hole=hole, budget_ms=budget_ms)
    monkeypatch.setattr(solver, "find_coloring", counting)
    assert critical_edge_report(g) == (False, crit)
    delta = g.max_degree()
    assert calls == [(delta, None)] + [(delta - 1, e) for e in crit]
    assert len(calls) == searches


# ------------------------------------------------------------ constructive

@pytest.mark.parametrize("name", sorted(KNOWN_INDEX))
def test_vizing_color_named(name):
    g, _ = KNOWN_INDEX[name]
    col = vizing_color(g)
    assert col.k == g.max_degree() + 1
    assert col.is_full()
    assert_proper(col)


@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_vizing_color_random(g):
    col = vizing_color(g)
    assert col.k == g.max_degree() + 1
    assert col.is_full()
    assert_proper(col)


def test_vizing_color_scans_the_fan_past_its_first_vertex_after_a_flip():
    # after the path flip the freed color is not missing at the fan's first
    # vertex, so the prefix scan reads later spokes; the smallest such graph
    # among 20,000 seeded random graphs on 3-9 vertices
    g = parse_graph6("Fnm~W")
    assert (g.n, g.edge_count(), g.max_degree()) == (7, 17, 5)
    col = vizing_color(g)
    assert col.k == 6 and col.is_full()
    assert_proper(col)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6))
def test_solver_agrees_with_spare_color_bound(g):
    chi = chromatic_index(g)
    assert chi in (g.max_degree(), g.max_degree() + 1)
    if chi == g.max_degree():
        assert find_delta_coloring(g) is not None
    else:
        assert find_delta_coloring(g) is None
