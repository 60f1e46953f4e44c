"""Lemma checkers: pass/skip/fail/undecided on hand-pinned instances.

The live normalized-kite instance is synthetic: sweep hosts always carry
exactly two sub-max-degree vertices, while the normalized shape needs three,
so the chain-route checks are driven by a class-1 host built for the shape
and by corrupted colorings on a genuinely overfull host.
"""

import pytest
from hypothesis import given, settings

import edgecritic.lemmas as lemmas
import edgecritic.solver as solver
from conftest import (
    class_two_graphs,
    corpus_hosts,
    find_short_kites,
    small_graph_corpus,
    unchecked_coloring,
)
from edgecritic.coloring import PartialEdgeColoring
from edgecritic.graph6 import emit_graph6, parse_graph6
from edgecritic.graphs import (
    complete,
    cycle,
    edge_key,
    make_graph,
    vertex_split,
)
from edgecritic.lemmas import (
    check_deficiency_pair,
    check_kierstead,
    check_kite,
    check_multifan,
    check_parity,
    check_vizing_adjacency,
    lemma_records,
)
from edgecritic.records import VerificationRecord, tally_verdicts
from edgecritic.solver import (
    SearchBudgetExceeded,
    find_coloring,
    find_delta_coloring,
    vizing_color,
)
from edgecritic.structures import (
    build_maximal_multifan,
    enumerate_kierstead_paths,
    find_full_deficiency_pairs,
    kites_with_head,
    multifan_violation,
)
from edgecritic.verifier import SweepConfig, plan_instances

KITE = (0, 1, 2, 3, 4, 5)  # (apex, rim1, rim2, hub, tail1, tail2)


def case_one_instance():
    """Class-1 host whose anchored coloring satisfies every normalized-kite
    hypothesis at KITE with labels (1, 2, 3, 4)."""
    g = make_graph(7, [(0, 1), (0, 2), (1, 3), (1, 5), (1, 6), (2, 3),
                       (3, 4), (3, 5), (4, 5), (4, 6)])
    phi = PartialEdgeColoring(g, 4, {
        (0, 2): 1, (1, 3): 3, (1, 5): 2, (1, 6): 4, (2, 3): 4,
        (3, 4): 2, (3, 5): 1, (4, 5): 3, (4, 6): 1}, uncolored=(0, 1))
    return g, phi


def overfull_host():
    """Overfull, class 2, max degree 4; corrupted colorings on it drive the
    chain-route failure branches."""
    return make_graph(7, [(0, 1), (0, 2), (1, 3), (1, 5), (1, 6), (2, 3),
                          (2, 6), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)])


# ------------------------------------------------------------ simple checkers

def test_vizing_adjacency_passes_on_critical_hosts():
    for g in (cycle(5), cycle(7)):
        for e in g.sorted_edges():
            rec = check_vizing_adjacency(g, *e, find_coloring(g, 2, hole=e), 2)
            assert rec.lemma == "vizing-adjacency"
            assert rec.verdict == "pass", (e, rec.witness)


def test_vizing_adjacency_skips_class_one():
    rec = check_vizing_adjacency(cycle(6), 0, 1, find_coloring(cycle(6), 2, hole=(0, 1)), 1)
    assert rec.verdict == "skipped"
    assert rec.hypotheses == {"class2": False, "critical_edge": False}


def test_vizing_adjacency_undecided_on_budget():
    # the caller's class search ran out of budget
    rec = check_vizing_adjacency(cycle(5), 0, 1, None, SearchBudgetExceeded("out of time"))
    assert rec.verdict == "undecided"
    assert rec.hypotheses == {}
    assert rec.conclusion is None


def test_vizing_adjacency_fails_on_a_path_called_class_two():
    # P3 is class 1; called class 2, its end edge 0-1 is taken as critical
    # while 0 has no max-degree neighbour besides 1
    p3 = make_graph(3, [(0, 1), (1, 2)])
    rec = check_vizing_adjacency(p3, 0, 1, find_coloring(p3, 2, hole=(0, 1)), 2)
    assert rec.hypotheses == {"class2": True, "critical_edge": True}
    assert rec.verdict == "fail"
    assert rec.witness == {"vertex": 0, "other": 1, "needed": 1, "found": 0}


def test_parity_checker():
    good = check_parity(vizing_color(cycle(5)))
    assert good.lemma == "parity-census" and good.verdict == "pass"

    holed = find_coloring(cycle(5), 2, hole=(0, 1))
    assert check_parity(holed).verdict == "skipped"

    flat = unchecked_coloring(cycle(5), 3, {e: 1 for e in cycle(5).edges}, None)
    bad = check_parity(flat)
    assert bad.verdict == "fail"
    assert bad.witness == {"color": 1, "missing_at": 0}


def test_multifan_passes_on_critical_host():
    phi = find_coloring(cycle(5), 2, hole=(0, 1))
    fan = (0, 1)
    rec = check_multifan(phi, fan, 2)
    assert rec.lemma == "multifan-elementary"
    assert rec.verdict == "pass"


def test_multifan_fails_on_corrupted_coloring():
    bad = unchecked_coloring(
        cycle(5), 2, {(0, 4): 2, (1, 2): 2, (2, 3): 1, (3, 4): 2}, (0, 1))
    rec = check_multifan(bad, (0, 1), 2)
    assert rec.verdict == "fail"
    assert rec.witness == {"part": "elementary", "u": 0, "v": 1, "color": 1}


def test_multifan_fails_linkage_on_a_path_called_class_two():
    # the path 2-0-1-3 with the hole 0-1: the fan (0, 1) is elementary, but
    # the (2, 1)-chain from 0 is 0-2 and never reaches the leaf 1
    phi = PartialEdgeColoring(make_graph(4, [(0, 1), (0, 2), (1, 3)]), 2,
                              {(0, 2): 1, (1, 3): 2}, (0, 1))
    rec = check_multifan(phi, (0, 1), 2)
    assert rec.verdict == "fail"
    assert rec.witness == {"part": "linked", "leaf": 1, "alpha": 2, "beta": 1}


def test_multifan_skips_when_not_anchored():
    full = vizing_color(cycle(5))  # spare-color palette, no hole
    rec = check_multifan(full, (0, 1), 2)
    assert rec.verdict == "skipped"
    assert rec.hypotheses["anchored_delta_coloring"] is False


def test_kierstead_passes_on_critical_host():
    phi = find_coloring(cycle(5), 2, hole=(0, 1))
    paths = enumerate_kierstead_paths(phi)
    assert paths
    for p in paths:
        rec = check_kierstead(phi, p, 2)
        assert rec.lemma == "kierstead-path"
        assert rec.verdict == "pass", (p, rec.witness)


def test_kierstead_fails_elementary_on_a_tree_called_class_two():
    # the path 0-1-2-3 with the hole 0-1 in a tree of max degree 3 at 3; the
    # inner vertices sit below it, and 0 and 1 both miss 2
    tree = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
    phi = PartialEdgeColoring(tree, 3, {(1, 2): 1, (2, 3): 2, (3, 4): 1, (3, 5): 3}, (0, 1))
    rec = check_kierstead(phi, (0, 1, 2, 3), 2)
    assert rec.verdict == "fail"
    assert rec.witness == {"part": "elementary", "u": 0, "v": 1, "color": 2}


def test_kierstead_tail_overlap_fails_on_corrupted_coloring():
    h = overfull_host()
    bad = unchecked_coloring(h, 4, {
        (0, 2): 1, (1, 3): 3, (1, 5): 2, (1, 6): 4, (2, 3): 4, (2, 6): 3,
        (2, 4): 1, (3, 4): 2, (3, 5): 1, (4, 5): 1, (4, 6): 1, (5, 6): 2}, (0, 1))
    rec = check_kierstead(bad, (0, 1, 3, 4), 2)
    assert rec.verdict == "fail"
    assert rec.witness == {"part": "tail-overlap", "colors": [3, 4]}


def test_deficiency_checkers_on_split_host():
    host = vertex_split(complete(4), 0, (1,), (2, 3))
    for pair in ((0, 1), (0, 4)):
        phi = find_coloring(host, host.max_degree(), hole=pair)
        assert [r.verdict for r in check_deficiency_pair(host, pair, phi, 2)] == ["pass"] * 2


def test_degree_counting_checkers_need_evidence_of_the_hole():
    host = vertex_split(complete(4), 0, (1,), (2, 3))
    pair = (0, 1)
    other_hole = find_coloring(host, host.max_degree(), hole=(0, 4))
    for rec in (check_vizing_adjacency(host, 0, 1, None, 2),
                check_vizing_adjacency(host, 0, 1, other_hole, 2),
                *check_deficiency_pair(host, pair, None, 2),
                *check_deficiency_pair(host, pair, other_hole, 2)):
        assert rec.verdict == "skipped"
        assert rec.hypotheses["class2"] is True
        assert rec.hypotheses["critical_edge"] is False
    # a hole search that ran out is no evidence either way
    ran_out = SearchBudgetExceeded("out of time")
    for rec in (check_vizing_adjacency(host, 0, 1, ran_out, 2),
                *check_deficiency_pair(host, pair, ran_out, 2)):
        assert rec.verdict == "undecided"
        assert rec.hypotheses["class2"] is True
        assert "critical_edge" not in rec.hypotheses
    # on a class-1 host no edge is critical, whatever the search did
    rec = check_vizing_adjacency(cycle(6), 0, 1, ran_out, 1)
    assert rec.verdict == "skipped"
    assert rec.hypotheses == {"class2": False, "critical_edge": False}


def test_deficiency_checkers_skip_bad_hypotheses():
    for rec in check_deficiency_pair(cycle(5), (0, 2), None, 2):
        assert rec.verdict == "skipped"
        assert rec.hypotheses["adjacent"] is False
    _, rec = check_deficiency_pair(cycle(5), (0, 1), find_coloring(cycle(5), 2, hole=(0, 1)), 2)
    assert rec.verdict == "skipped"
    assert rec.hypotheses["degree_bound"] is False


def test_both_pair_records_judge_one_pair_on_every_corpus_pair():
    # the single-subdelta record adds degree_bound to the pair's own
    # hypotheses; the class ones follow only once all of those hold
    pairs = 0
    for g in corpus_hosts():
        delta = g.max_degree()
        host_class = 1 if find_delta_coloring(g) is not None else 2
        bound = 4 * delta >= 3 * (g.n - 1)
        for pair in find_full_deficiency_pairs(g):
            phi = find_coloring(g, delta, hole=pair)
            degrees, subdelta = check_deficiency_pair(g, pair, phi, host_class)
            assert (degrees.lemma, subdelta.lemma) == ("deficiency-pair-degrees",
                                                       "single-subdelta")
            assert degrees.instance_id == subdelta.instance_id == \
                f"{emit_graph6(g)} pair={pair[0]},{pair[1]}"
            own = dict(list(degrees.hypotheses.items())[:2])
            assert own == {"adjacent": True, "full_deficiency": True}
            if bound:
                assert subdelta.hypotheses == {**degrees.hypotheses, "degree_bound": True}
            else:
                assert subdelta.hypotheses == {**own, "degree_bound": False}
            pairs += 1
    assert pairs == 109


@pytest.mark.parametrize("edges, pair, witness", [
    # the path 2-1-0-3: the pair's neighbor 2 is below max degree
    ([(0, 1), (0, 3), (1, 2)], (0, 1),
     {"part": "neighbor-degree", "vertex": 2, "degree": 1}),
    # a diamond with tips 0 and 3 and a pendant vertex 4 at 0, two steps from 1-3
    ([(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3)], (1, 3),
     {"part": "distance-two", "vertex": 4, "degree": 1}),
    # K4 on 1..4, vertex 0 joined to 1 and 2, a pendant vertex 5 at 0; both
    # pair ends are below max degree 4, so 0 at distance two must reach it
    ([(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], (3, 4),
     {"part": "distance-two-strong", "vertex": 0, "degree": 3}),
    # K3,3 on {0, 1, 2} | {3, 4, 5} with its edge 0-5 moved to a new vertex 6:
    # odd order, and 6 is the one vertex off the pair below max degree
    ([(0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)], (1, 5),
     {"part": "odd-order-lonely-vertex", "vertex": 6}),
], ids=["neighbor-degree", "distance-two", "distance-two-strong", "odd-order-lonely-vertex"])
def test_deficiency_pair_violation_witnesses(edges, pair, witness):
    # the checker judges the evidence it is given: called class 2 and handed a
    # max-degree coloring of the host minus the pair, the pair is critical
    host = make_graph(max(map(max, edges)) + 1, edges)
    phi = find_coloring(host, host.max_degree(), hole=pair)
    rec, _ = check_deficiency_pair(host, pair, phi, 2)
    assert rec.hypotheses == {"adjacent": True, "full_deficiency": True,
                              "class2": True, "critical_edge": True}
    assert rec.verdict == "fail"
    assert rec.witness == witness


def test_no_vertex_beyond_distance_two_reaches_the_deficiency_floor():
    # why check_deficiency_pair has no "d(x) >= n - |N(a) | N(b)|" clause:
    # only distance-two vertices could ever meet it
    pairs = 0
    for g in small_graph_corpus(9):
        for a, b in find_full_deficiency_pairs(g):
            near = g.neighbors(a) | g.neighbors(b)
            two = {w for x in near for w in g.neighbors(x)} - near
            floor = g.n - len(near)
            assert all(g.degree(x) < floor for x in set(range(g.n)) - near - two), \
                (emit_graph6(g), a, b)
            pairs += 1
    assert pairs == 1072


# ------------------------------------------------------------ normalized kite

def test_case_one_hypotheses_all_hold():
    g, phi = case_one_instance()
    rec, _ = check_kite(phi, KITE, 1)
    assert rec.lemma == "short-kite-degree"
    # the shape holds but the host is class 1, so the claim is vacuous here
    assert rec.verdict == "skipped"
    assert rec.hypotheses["class2"] is False
    for name in ("kite_in_graph", "anchored_delta_coloring",
                 "kierstead_through_rim1", "kierstead_through_rim2",
                 "tail_missing_within_ends"):
        assert rec.hypotheses[name] is True, name


def test_case_one_chain_route_skips_on_class_one_host():
    g, phi = case_one_instance()
    _, rec = check_kite(phi, KITE, 1)
    assert rec.lemma == "kite-chain-route"
    assert rec.verdict == "skipped"
    assert rec.hypotheses["class2"] is False
    for name in ("tails_share_one_missing", "rim1_normalized",
                 "four_distinct_colors", "labels_missing_at_apex"):
        assert rec.hypotheses[name] is True, name


def test_short_kite_degree_fails_on_pendant_tails():
    # the kite alone, hub 3 of max degree 4 and both tails pendant; every
    # twin-path hypothesis holds, but the route shape does not
    host = make_graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)])
    phi = PartialEdgeColoring(host, 4, {(0, 2): 1, (1, 3): 2, (2, 3): 3, (3, 4): 4, (3, 5): 1},
                              (0, 1))
    degree, route = check_kite(phi, KITE, 2)
    assert degree.verdict == "fail"
    assert degree.witness == {"tail_degrees": [1, 1], "max_degree": 4}
    assert route.verdict == "skipped"


def test_chain_route_passes_when_the_chain_meets_the_hub_first():
    # labels (1, 2, 3, 4); the (4, 3)-chain from tail2 is 5-2-3-1-7, which
    # crosses hub-rim1 from the hub
    host = make_graph(9, [(0, 1), (0, 2), (1, 3), (1, 6), (1, 7), (2, 3), (2, 5),
                          (3, 4), (3, 5), (4, 6), (4, 8), (5, 8)])
    phi = PartialEdgeColoring(host, 4, {
        (0, 2): 1, (1, 3): 3, (1, 6): 2, (1, 7): 4, (2, 3): 4, (2, 5): 3,
        (3, 4): 2, (3, 5): 1, (4, 6): 1, (4, 8): 3, (5, 8): 2}, (0, 1))
    degree, route = check_kite(phi, KITE, 2)
    assert all(route.hypotheses.values())
    assert route.verdict == "pass" and route.witness is None
    assert degree.verdict == "fail"
    assert degree.witness == {"tail_degrees": [3, 3], "max_degree": 4}


def slid_off_the_kite(phi):
    """phi with its hole 0-1 colored 3 and the edge 1-3 uncolored in its place."""
    assign = dict(phi.colored_items())
    assign[(0, 1)] = 3
    del assign[(1, 3)]
    return PartialEdgeColoring(phi.graph, phi.k, assign, (1, 3))


def test_kite_records_skip_off_the_normalized_shape():
    g, phi = case_one_instance()
    swapped_tails = (0, 1, 2, 3, 5, 4)
    _, route = check_kite(phi, swapped_tails, 1)
    assert route.verdict == "skipped"
    assert route.hypotheses["rim1_normalized"] is False
    # with the hole slid off the kite, neither record is anchored
    moved = slid_off_the_kite(phi)
    for rec in check_kite(moved, KITE, 1):
        assert rec.verdict == "skipped"
        assert rec.hypotheses["anchored_delta_coloring"] is False


def test_auxiliary_hole_slide_keeps_a_fan():
    g, phi = case_one_instance()
    moved = slid_off_the_kite(phi)
    assert moved.uncolored == (1, 3)
    assert moved.color_of(0, 1) == 3
    assert multifan_violation(moved, (3, 1, 5)) is None


def off_chain_coloring():
    """A corrupted coloring of the overfull host whose tail2 chain misses hub-rim1."""
    return unchecked_coloring(overfull_host(), 4, {
        (0, 2): 1, (1, 3): 3, (1, 5): 2, (1, 6): 4, (2, 3): 4, (2, 6): 3,
        (2, 4): 1, (3, 4): 2, (3, 5): 1, (4, 5): 3, (4, 6): 1, (5, 6): 2}, (0, 1))


def test_chain_route_fails_when_edge_off_chain():
    _, rec = check_kite(off_chain_coloring(), KITE, 2)
    assert rec.verdict == "fail"
    assert rec.witness == {"part": "edge-off-chain", "chain": [5, 4]}


def test_chain_route_fails_on_wrong_order():
    h = overfull_host()
    phi = unchecked_coloring(h, 4, {
        (0, 2): 1, (1, 3): 4, (1, 5): 2, (1, 6): 3, (2, 3): 3, (2, 6): 2,
        (2, 4): 4, (3, 4): 2, (3, 5): 1, (4, 5): 1, (4, 6): 4, (5, 6): 4}, (0, 1))
    _, rec = check_kite(phi, KITE, 2)
    assert rec.verdict == "fail"
    assert rec.witness == {"part": "order", "chain": [5, 6, 1, 3, 2, 4]}


# ------------------------------------------------------------ battery

def test_battery_on_c5():
    records = list(lemma_records(cycle(5)))
    assert len(records) == 36
    assert tally_verdicts(records) == {"pass": 31, "fail": 0, "skipped": 5,
                                       "undecided": 0}
    # the only vacuous claims are the degree-bounded ones
    for rec in records:
        if rec.verdict == "skipped":
            assert rec.lemma == "single-subdelta"
            assert rec.hypotheses["degree_bound"] is False


def test_battery_on_class_one_host_never_fails():
    tally = tally_verdicts(lemma_records(cycle(6)))
    assert tally["fail"] == 0 and tally["undecided"] == 0
    assert tally["pass"] >= 1  # the parity census still runs


def test_battery_deterministic():
    a = [r.to_json_line() for r in lemma_records(cycle(5))]
    b = [r.to_json_line() for r in lemma_records(cycle(5))]
    assert a == b


KITE_HYPOTHESES = lemmas._kite_hypotheses  # unwrapped, for the call log below


def kite_checker_calls(monkeypatch):
    """Route the battery's kite checker through a call log."""
    calls = []

    def logged(coloring, kite, host_class, _check=lemmas.check_kite):
        calls.append((coloring, kite))
        return _check(coloring, kite, host_class)
    monkeypatch.setattr(lemmas, "check_kite", logged)
    return calls


def test_battery_drops_vacuous_kite_records_by_default(monkeypatch):
    host = make_graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)])
    # checked one by one, every kite of this host comes out skipped
    kites = find_short_kites(host)
    assert kites
    host_class = battery_evidence(host)[0]
    for kite in kites:
        phi = find_coloring(host, host.max_degree(), hole=kite[:2])
        assert [rec.verdict for rec in check_kite(phi, kite, host_class)] == ["skipped",
                                                                             "skipped"]
    calls = kite_checker_calls(monkeypatch)
    lean = list(lemma_records(host))
    kite_lemmas = {"short-kite-degree", "kite-chain-route"}
    assert all(r.lemma not in kite_lemmas for r in lean)
    # no kite of this host meets the kite hypotheses, so none is checked
    assert calls == []


def battery_evidence(graph):
    """The battery's evidence, each piece searched for: the host's class, an
    optimal coloring of the host (the battery builds a class-2 host's by
    Vizing's construction instead), and a max-degree coloring (or None) of
    the host minus each edge."""
    delta = graph.max_degree()
    full = find_delta_coloring(graph)
    host_class = 1 if full is not None else 2
    if full is None:
        full = find_coloring(graph, delta + 1)
    return host_class, full, {e: find_coloring(graph, delta, hole=e)
                              for e in graph.sorted_edges()}


def searched_census(graph):
    """The parity census on the optimal coloring that `battery_evidence`
    searched for: the reference for the battery's census record."""
    return check_parity(battery_evidence(graph)[1])


def refuse_search(*args, **kwargs):
    raise AssertionError("a lemma checker searched for a coloring")


def reference_battery(graph, host_class, full, holes):
    """The battery with the full kite loop, on the evidence of
    `battery_evidence`: every kite anchored at the hole goes through the kite
    checker, and skipped kite records are dropped. Every search is refused,
    so the checkers judge only what they are handed."""
    records = [check_parity(full)]
    anchored_kites = {}
    for kite in find_short_kites(graph):
        anchored_kites.setdefault(edge_key(*kite[:2]), []).append(kite)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_solve", refuse_search)
        for e, phi in holes.items():
            records.append(check_vizing_adjacency(graph, *e, phi, host_class))
            if phi is None:
                continue
            for center in e:
                records.append(check_multifan(phi, build_maximal_multifan(phi, center),
                                              host_class))
            for path in enumerate_kierstead_paths(phi):
                records.append(check_kierstead(phi, path, host_class))
            for kite in anchored_kites.get(e, ()):
                for rec in check_kite(phi, kite, host_class):
                    if rec.verdict != "skipped":
                        records.append(rec)
        for pair in find_full_deficiency_pairs(graph):
            phi = holes[pair]
            records += check_deficiency_pair(graph, pair, phi, host_class)
    return records


def assert_battery_matches_reference(graph):
    want = [r.to_json_line() for r in reference_battery(graph, *battery_evidence(graph))]
    with pytest.MonkeyPatch.context() as mp:
        calls = kite_checker_calls(mp)
        records = list(lemma_records(graph))
    assert [r.to_json_line() for r in records] == want
    # the reference shares the id helper, so check the ids on their own
    assert all(r.instance_id.startswith(emit_graph6(graph) + " ") for r in records)
    for phi, kite in calls:
        heads = set(enumerate_kierstead_paths(phi))
        assert (kite[0], kite[1], kite[3], kite[4]) in heads, kite
    return calls


def theorem_range_splits():
    return [vertex_split(parse_graph6(inst.base_graph6),
                         inst.vertex, inst.part_a, inst.part_b)
            for inst in plan_instances(SweepConfig())]


@settings(max_examples=40, deadline=None)
@given(class_two_graphs(min_n=6, min_m=9))
def test_battery_matches_reference_on_class_two_hosts(g):
    # dense enough that nearly every drawn host has kites for the filter to drop
    assert_battery_matches_reference(g)


def test_battery_matches_reference_on_kite_hosts():
    hosts = [complete(6), make_graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)])]
    splits = theorem_range_splits()
    assert len(splits) == 11
    calls = 0
    for g in hosts + splits:
        calls += len(assert_battery_matches_reference(g))
    assert calls > 0  # some kites reach the checkers


def test_checkers_judge_given_evidence_without_searching(monkeypatch):
    host = parse_graph6(r"Fj\|w")  # a theorem-range split with kites and pairs
    want = [r.to_json_line() for r in lemma_records(host)]
    evidence = battery_evidence(host)
    monkeypatch.setattr(solver, "_solve", refuse_search)
    records = reference_battery(host, *evidence)
    assert [r.to_json_line() for r in records] == want
    route = check_kite(off_chain_coloring(), KITE, 2)[1]
    assert route.verdict == "fail"
    # every public checker ran to a verdict on the evidence it was given
    assert {r.lemma for r in records + [route] if r.conclusion is not None} == {
        "parity-census", "vizing-adjacency", "multifan-elementary", "kierstead-path",
        "short-kite-degree", "kite-chain-route", "deficiency-pair-degrees",
        "single-subdelta"}


def test_battery_computes_kite_hypotheses_once_per_kite(monkeypatch):
    computed = []

    def logged(coloring, kite):
        computed.append((coloring, kite))  # holds the coloring, so ids stay unique
        return KITE_HYPOTHESES(coloring, kite)
    monkeypatch.setattr(lemmas, "_kite_hypotheses", logged)
    kite_records = 0
    for g in [complete(6)] + theorem_range_splits():
        del computed[:]
        records = list(lemma_records(g))
        keys = [(id(phi), kite) for phi, kite in computed]
        assert len(set(keys)) == len(keys), emit_graph6(g)
        kite_records += sum(r.lemma in ("short-kite-degree", "kite-chain-route")
                            for r in records)
    assert kite_records > 0  # some kites pass the gate and reach both checkers


def test_battery_searches_each_hole_once(monkeypatch):
    g = vertex_split(complete(4), 0, (1,), (2, 3))
    assert find_full_deficiency_pairs(g)  # the pair records need hole searches too
    searched = []

    def logged(graph, k, hole=None, budget_ms=None):
        searched.append(hole)
        return find_coloring(graph, k, hole=hole, budget_ms=budget_ms)
    monkeypatch.setattr(lemmas, "find_coloring", logged)
    emitted = []

    def emit(graph):
        emitted.append(graph)
        return emit_graph6(graph)
    monkeypatch.setattr(lemmas, "emit_graph6", emit)
    lemmas._host_graph6.cache_clear()
    records = list(lemma_records(g))
    # the host is class 2, and its census coloring is built, not searched
    assert searched == g.sorted_edges()
    assert emitted == [g] and len(records) > 1
    assert records[0].to_json_line() == searched_census(g).to_json_line()


def test_battery_makes_one_max_degree_search_per_host(monkeypatch):
    searched = []

    def logged(graph, k, hole=None, budget_ms=None):
        searched.append((k, hole))
        return find_coloring(graph, k, hole=hole, budget_ms=budget_ms)
    monkeypatch.setattr(lemmas, "find_coloring", logged)
    monkeypatch.setattr(solver, "find_coloring", logged)
    # the class decision is the only search of the whole host: on a class-1
    # host (C6) its coloring is the census coloring, and on a class-2 host
    # (C5) Vizing's construction builds the census coloring
    for g in (cycle(5), cycle(6)):
        del searched[:]
        records = list(lemma_records(g))
        assert [k for k, hole in searched if hole is None] == [2], emit_graph6(g)
        assert records[0].to_json_line() == searched_census(g).to_json_line()


def test_battery_makes_no_spare_color_search_on_the_corpus(monkeypatch):
    ks = []

    def counted(graph, k, hole, budget, _solve=solver._solve):
        ks.append(k)
        return _solve(graph, k, hole, budget)
    class_two = 0
    for g in corpus_hosts():
        want = searched_census(g).to_json_line()
        del ks[:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_solve", counted)
            records = list(lemma_records(g))
        assert g.max_degree() + 1 not in ks, emit_graph6(g)
        assert records[0].to_json_line() == want
        class_two += records[0].instance_id.endswith(f" k={g.max_degree() + 1}")
    assert class_two == 39


def test_battery_leaves_an_edge_undecided_when_its_hole_search_runs_out(monkeypatch):
    g = parse_graph6(r"Fj\|w")  # class 2, with kites and a full-deficiency pair at 0-1
    want = list(lemma_records(g))
    iid = emit_graph6(g) + " e=0-1"
    start = next(i for i, r in enumerate(want) if r.instance_id == iid)
    end = next(i for i, r in enumerate(want)
               if i > start and r.lemma in ("vizing-adjacency", "deficiency-pair-degrees"))
    assert end - start > 3  # fans, paths and kites anchored at the hole
    expect = want[:start] + [VerificationRecord("vizing-adjacency", iid, {"class2": True})]
    for rec in want[end:]:
        if rec.instance_id == emit_graph6(g) + " pair=0,1":
            hyp = {k: v for k, v in rec.hypotheses.items() if k != "critical_edge"}
            rec = VerificationRecord(rec.lemma, rec.instance_id, hyp)
        expect.append(rec)

    def boom(graph, k, hole=None, budget_ms=None):
        if hole == (0, 1):
            raise SearchBudgetExceeded("out of time")
        return find_coloring(graph, k, hole=hole, budget_ms=budget_ms)
    monkeypatch.setattr(lemmas, "find_coloring", boom)
    got = list(lemma_records(g))
    assert [r.to_json_line() for r in got] == [r.to_json_line() for r in expect]
    assert tally_verdicts(got)["undecided"] == 3


def test_battery_leaves_parity_undecided_when_the_full_search_runs_out(monkeypatch):
    g = cycle(5)
    want = list(lemma_records(g))

    # with the class decision out of budget, no claim that needs it is decided,
    # and the parity census, whose coloring that search finds, is undecided too
    def out_of_time(graph, budget_ms=None):
        raise SearchBudgetExceeded("out of time")
    monkeypatch.setattr(lemmas, "find_delta_coloring", out_of_time)
    got = list(lemma_records(g))
    assert got[0].instance_id == "Dhc k=?"
    assert len(got) == len(want)
    assert {r.verdict for r in got} == {"undecided", "skipped"}


def test_battery_builds_only_the_kites_it_checks(monkeypatch):
    built = []

    def counted(*args, _real=lemmas.kites_with_head):
        kites = _real(*args)
        built.extend(kites)
        return kites
    monkeypatch.setattr(lemmas, "kites_with_head", counted)
    calls = kite_checker_calls(monkeypatch)
    total = 0
    for g in corpus_hosts():
        start = len(calls)
        records = list(lemma_records(g))
        # every kite checked keeps its short-kite-degree record
        kept = [r.instance_id for r in records if r.lemma == "short-kite-degree"]
        assert kept == [emit_graph6(g) + " kite=" + ",".join(map(str, kite))
                        for _, kite in calls[start:]], emit_graph6(g)
        total += len(kept)
    # every kite built is checked: the battery lists no kite of the host whose
    # rim paths are not both Kierstead paths of the hole
    assert len(built) == len(calls) == total == 3094


def _role(kite):
    apex, rim1, rim2, hub, tail1, tail2 = kite
    return (hub, rim1, rim2, apex, tail1, tail2)


def admissible_reference(phi):
    """The kites at the hole of phi that pass both kierstead_through_rim
    hypotheses, from `kites_with_head` over every four-vertex head that starts
    with the hole, in role order."""
    g = phi.graph
    a, b = phi.uncolored
    out = []
    for v0, v1 in ((a, b), (b, a)):
        for v2 in sorted(g.neighbors(v1)):
            for v3 in sorted(g.neighbors(v2)):
                for kite in kites_with_head(g, (v0, v1, v2, v3)):
                    hyp = KITE_HYPOTHESES(phi, kite)[0]
                    if hyp["kierstead_through_rim1"] and hyp["kierstead_through_rim2"]:
                        out.append(kite)
    return sorted(out, key=_role)


def test_battery_checks_exactly_the_admissible_kites(monkeypatch):
    calls = kite_checker_calls(monkeypatch)
    colorings = []

    def logged(graph, k, hole=None, budget_ms=None):
        found = find_coloring(graph, k, hole=hole, budget_ms=budget_ms)
        if hole is not None and found is not None:
            colorings.append(found)
        return found
    monkeypatch.setattr(lemmas, "find_coloring", logged)
    checked = 0
    for g in corpus_hosts() + [parse_graph6(r"Fj\|w"), parse_graph6("HY|vzyT")]:
        del calls[:], colorings[:]
        list(lemma_records(g))
        assert colorings
        at = {}
        for phi, kite in calls:
            at.setdefault(id(phi), []).append(kite)
        for phi in colorings:
            assert at.pop(id(phi), []) == admissible_reference(phi), (emit_graph6(g), phi.uncolored)
        assert not at  # every checked kite sits at a hole coloring of the battery
        checked += len(calls)
    assert checked > 3094  # the two splits add their kites to the corpus's


def test_battery_decides_the_class_once_when_it_runs_out(monkeypatch):
    g = parse_graph6(r"Fj\|w")  # class 2, every record of it passes
    want = list(lemma_records(g))
    assert {r.verdict for r in want} == {"pass"}
    attempts = []

    def out_of_time(graph, budget_ms=None):
        attempts.append(graph)
        raise SearchBudgetExceeded("out of time")
    monkeypatch.setattr(lemmas, "find_delta_coloring", out_of_time)
    got = list(lemma_records(g))
    assert attempts == [g]
    # every claim needs the class, so each record is left undecided with the
    # checker's own hypotheses
    expect = [VerificationRecord("parity-census", emit_graph6(g) + " k=?")]
    expect += [VerificationRecord(r.lemma, r.instance_id,
                                  {k: v for k, v in r.hypotheses.items()
                                   if k not in ("class2", "critical_edge")})
               for r in want[1:]]
    assert [r.to_json_line() for r in got] == [r.to_json_line() for r in expect]
    assert len(got) == 213


def test_battery_builds_one_search_plan_per_host():
    for g in corpus_hosts():
        solver._search_plan.cache_clear()
        list(lemma_records(g))
        assert solver._search_plan.cache_info().misses == 1, emit_graph6(g)
