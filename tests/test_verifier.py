"""Sweep planning, per-instance checks, log resume, and the 9-vertex hunt."""

import hashlib
import itertools

import networkx as nx
import pytest

import edgecritic.solver as solver
import edgecritic.verifier as verifier
from conftest import (
    all_automorphisms,
    assert_proper,
    published_sha256,
    regular_classes,
    split_orbits_from_every_vertex,
)
from edgecritic.coloring import ColoringError, coloring_from_text, elementary_violation
from edgecritic.graph6 import emit_graph6, parse_graph6
from edgecritic.enumeration import enumerate_regular_graphs
from edgecritic.graphs import (
    GraphError,
    canonical_mask,
    complete,
    complete_minus_matching,
    edge_key,
    is_overfull,
    make_graph,
    petersen,
    petersen_minus_vertex,
    vertex_split,
)
from edgecritic.records import RecordError, VerificationRecord, read_records
from edgecritic.solver import (
    SearchBudgetExceeded,
    chromatic_index,
    find_coloring,
    find_delta_coloring,
    vizing_color,
)
from edgecritic.structures import kierstead_violation
from edgecritic.verifier import (
    SplitInstance,
    SweepConfig,
    check_split_instance,
    inherit_split_coloring,
    plan_instances,
    reproduce_nonelementary_path,
    run_sweep,
)

THEOREM_IDS = [
    "C~ v=0 A=1 B=2,3",
    "E~~w v=0 A=1 B=2,3,4,5",
    "E~~w v=0 A=1,2 B=3,4,5",
    "G]~v~w v=0 A=2 B=3,4,5,6,7",
    "G]~v~w v=0 A=2,3 B=4,5,6,7",
    "G]~v~w v=0 A=2,3,4 B=5,6,7",
    "G]~v~w v=0 A=2,3,4,6 B=5,7",
    "G]~v~w v=0 A=2,4,6 B=3,5,7",
    "G~~~~{ v=0 A=1 B=2,3,4,5,6,7",
    "G~~~~{ v=0 A=1,2 B=3,4,5,6,7",
    "G~~~~{ v=0 A=1,2,3 B=4,5,6,7",
]

CUBIC_M6_IDS = [
    "C~ v=0 A=1 B=2,3",
    "EFz_ v=0 A=3 B=4,5",
    "ELv_ v=0 A=3 B=4,5",
    "ELv_ v=0 A=3,4 B=5",
]


def k4_instance(text=None):
    return SplitInstance(
        instance_id="C~ v=0 A=1 B=2,3",
        base_graph6="C~",
        base_coloring_text=text or find_delta_coloring(complete(4)).to_text(),
        vertex=0, part_a=(1,), part_b=(2, 3),
        budget_ms=None)


# ------------------------------------------------------------------- config

def test_config_validation_errors():
    # every rule is checked when the config is built, so no invalid one exists
    with pytest.raises(GraphError, match="unknown sweep mode"):
        SweepConfig(mode="exhaustive")
    with pytest.raises(GraphError, match="explicit degree tuple"):
        SweepConfig(mode="custom")
    for mode in ("theorem", "conjecture"):
        with pytest.raises(GraphError, match="only in custom mode"):
            SweepConfig(mode=mode, degrees=(3,))
    for bad in (2, 7):
        with pytest.raises(GraphError, match="even number >= 4"):
            SweepConfig(m_max=bad)
    with pytest.raises(GraphError, match="above 10"):
        SweepConfig(m_max=12)
    for jobs in (0, -3):
        with pytest.raises(GraphError, match="jobs must be at least 1"):
            SweepConfig(jobs=jobs)
    # a degree outside 2..m_max-1 has no base to split, so it would plan nothing
    for m_max, degrees in ((8, (99,)), (8, (3, 8)), (6, (0,)), (6, (1, 3))):
        with pytest.raises(GraphError, match=rf"degrees must lie in 2\.\.{m_max - 1}"):
            SweepConfig(m_max=m_max, mode="custom", degrees=degrees)
    for m_max in (4, 6, 8, 10):
        assert plan_instances(SweepConfig(m_max=m_max, mode="custom", degrees=(2, m_max - 1)))
    for budget in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(GraphError, match="budget_ms must be finite and above 0"):
            SweepConfig(budget_ms=budget)
    SweepConfig(budget_ms=None)
    SweepConfig()
    SweepConfig(m_max=10)
    SweepConfig(m_max=10, mode="conjecture")


def full_group_split_orbits(base):
    """Split orbits mapped through the whole listed automorphism group."""
    auts = all_automorphisms(base)
    seen = set()
    reps = []
    for v in range(base.n):
        nbrs = sorted(base.neighbors(v))
        if len(nbrs) < 2:
            continue
        rest = nbrs[1:]
        for pick in range(1 << len(rest)):
            a = [nbrs[0]] + [w for i, w in enumerate(rest) if pick >> i & 1]
            b = [w for i, w in enumerate(rest) if not pick >> i & 1]
            if not b:
                continue
            key = (v, tuple(a), tuple(b))
            if key in seen:
                continue
            orbit = set()
            for p in auts:
                pv = p[v]
                pa, pb = verifier._normalize_parts(base.neighbors(pv),
                                                   (p[w] for w in a), (p[w] for w in b))
                orbit.add((pv, pa, pb))
            seen |= orbit
            reps.append(min(orbit))
    return sorted(reps)


def test_split_orbits_match_full_group_through_order_eight():
    count = 0
    for m in range(1, 9):
        for d in range(m):
            if m * d % 2:
                continue
            for base in regular_classes(m, d):  # connected or not
                assert verifier._split_orbits(base) == full_group_split_orbits(base), \
                    emit_graph6(base)
                count += 1
    assert count == 48


def test_split_orbits_match_every_vertex_closure_at_order_ten():
    # d = 3 bases have few automorphisms, so their vertex orbits have
    # representatives other than 0, which take Schreier generators
    count = 0
    for d in (3, 7, 8, 9):
        for base in regular_classes(10, d):
            if base.is_connected():
                assert verifier._split_orbits(base) == split_orbits_from_every_vertex(base), \
                    emit_graph6(base)
                count += 1
    assert count == 19 + 5 + 1 + 1


def test_planning_sweep_m8_maps_few_split_choices(monkeypatch):
    calls = []
    real = verifier._normalize_parts
    monkeypatch.setattr(verifier, "_normalize_parts", lambda *a: calls.append(1) or real(*a))
    assert len(plan_instances(SweepConfig(m_max=8, mode="conjecture"))) == 107
    assert len(calls) <= 1000


def test_order_ten_plan_is_one_split_per_class_and_passes_without_search(monkeypatch):
    plan = plan_instances(SweepConfig(m_max=10))
    assert len(plan) == 23
    assert [p.instance_id for p in plan[:11]] == THEOREM_IDS
    order_ten = plan[11:]
    reps = [canonical_mask(vertex_split(parse_graph6(inst.base_graph6),
                                        inst.vertex, inst.part_a, inst.part_b))
            for inst in order_ten]
    assert len(set(reps)) == len(reps) == 12
    # oracle: every unreduced split is isomorphic to exactly one representative
    unreduced = 0
    for base in (complete(10), complete_minus_matching(10)):
        for v in range(base.n):
            least, *rest = sorted(base.neighbors(v))
            for r in range(len(rest)):
                for more in itertools.combinations(rest, r):
                    a = (least, *more)
                    b = tuple(w for w in rest if w not in more)
                    g = vertex_split(base, v, a, b)
                    assert reps.count(canonical_mask(g)) == 1, (emit_graph6(base), v, a)
                    unreduced += 1
    assert unreduced == 3820

    # every search of the package, by any name, runs through solver._solve
    searched = []
    real = solver._solve
    monkeypatch.setattr(solver, "_solve", lambda *a, **kw: searched.append(a[2])
                        or real(*a, **kw))
    for inst in plan:
        assert check_split_instance(inst).verdict == "pass", inst.instance_id
        assert searched == [], inst.instance_id


def test_order_ten_theorem_log_is_pinned(tmp_path):
    # the library writes the published CLI log, and order 8 is its prefix
    short, full = tmp_path / "m8.jsonl", tmp_path / "m10.jsonl"
    list(run_sweep(SweepConfig(m_max=8), log_path=str(short)))
    records = list(run_sweep(SweepConfig(m_max=10), log_path=str(full)))
    assert len(records) == 23 and all(r.verdict == "pass" for r in records)
    lines = full.read_bytes().splitlines(keepends=True)
    assert b"".join(lines[:11]) == short.read_bytes()
    assert hashlib.sha256(full.read_bytes()).hexdigest() == published_sha256("theorem1-m10")


def test_degree_selection_by_mode():
    theorem = SweepConfig(mode="theorem")
    assert [theorem.degree_wanted(*md) for md in
            ((4, 3), (4, 2), (6, 5), (6, 4), (8, 6), (8, 5))] == \
        [True, False, True, False, True, False]
    conj = SweepConfig(mode="conjecture")
    assert [conj.degree_wanted(*md) for md in
            ((4, 2), (6, 2), (6, 3), (8, 2), (8, 3))] == \
        [True, False, True, False, True]
    custom = SweepConfig(mode="custom", degrees=(3, 5))
    assert [custom.degree_wanted(6, d) for d in (2, 3, 4, 5)] == \
        [False, True, False, True]


# --------------------------------------------------------------------- plan

def test_theorem_plan_is_pinned():
    plan = plan_instances(SweepConfig())
    assert [p.instance_id for p in plan] == THEOREM_IDS
    assert plan == plan_instances(SweepConfig())


def test_minimal_plan():
    assert [p.instance_id for p in plan_instances(SweepConfig(m_max=4))] == \
        ["C~ v=0 A=1 B=2,3"]


def test_cubic_plan_is_pinned():
    plan = plan_instances(SweepConfig(m_max=6, mode="custom", degrees=(3,)))
    assert [p.instance_id for p in plan] == CUBIC_M6_IDS
    wide = plan_instances(SweepConfig(m_max=8, mode="custom", degrees=(3,)))
    assert len(wide) == 23
    assert [p.instance_id for p in wide[:4]] == CUBIC_M6_IDS
    assert "G@Umf? v=0 A=5,6 B=7" in {p.instance_id for p in wide}


def test_plan_ignores_the_check_budget(monkeypatch):
    # the base searches run without a budget, so the plan is the same on every
    # machine and `budget_ms` bounds only the checks' searches
    real = verifier.find_delta_coloring

    def no_budget(graph, budget_ms=None):
        if budget_ms is not None:
            raise SearchBudgetExceeded("over budget")
        return real(graph)

    monkeypatch.setattr(verifier, "find_delta_coloring", no_budget)
    tight = plan_instances(SweepConfig(m_max=8, budget_ms=1.0))
    free = plan_instances(SweepConfig(m_max=8, budget_ms=None))
    assert [(p.instance_id, p.base_coloring_text) for p in tight] == \
        [(p.instance_id, p.base_coloring_text) for p in free]
    assert {p.budget_ms for p in tight} == {1.0}


def test_planned_instances_are_well_formed():
    for inst in plan_instances(SweepConfig()):
        base = parse_graph6(inst.base_graph6)
        nbrs = base.neighbors(inst.vertex)
        a, b = set(inst.part_a), set(inst.part_b)
        assert a and b and not a & b and a | b == set(nbrs)
        assert min(nbrs) in a
        assert inst.part_a == tuple(sorted(a))
        assert inst.part_b == tuple(sorted(b))
        phi = coloring_from_text(base, inst.base_coloring_text)
        assert phi.is_full() and phi.k == base.max_degree()
        assert_proper(phi)


def test_plan_covers_every_split_up_to_isomorphism():
    # brute force all (vertex, bipartition) splits of each base and match
    # against the planned representatives
    plan = plan_instances(SweepConfig())
    by_base: dict[str, list] = {}
    for inst in plan:
        base = parse_graph6(inst.base_graph6)
        g = vertex_split(base, inst.vertex, inst.part_a, inst.part_b)
        by_base.setdefault(inst.base_graph6, []).append(
            nx.Graph(sorted(g.edges)))
    for g6, reps in by_base.items():
        base = parse_graph6(g6)
        for v in range(base.n):
            nbrs = sorted(base.neighbors(v))
            for r in range(1, len(nbrs)):
                for a in itertools.combinations(nbrs, r):
                    b = tuple(w for w in nbrs if w not in a)
                    g = vertex_split(base, v, a, b)
                    gx = nx.Graph(sorted(g.edges))
                    assert any(nx.is_isomorphic(gx, rep) for rep in reps), \
                        (g6, v, a)


# ---------------------------------------------------------------- instances

def test_inherit_split_coloring():
    base = complete(4)
    phi = find_delta_coloring(base)
    inherited = inherit_split_coloring(phi, 0, (1,), (2, 3))
    assert inherited.graph == vertex_split(base, 0, (1,), (2, 3))
    assert inherited.uncolored == (0, 4)
    assert_proper(inherited)
    assert not inherited.missing(0) & inherited.missing(4)
    assert inherited.missing(0) | inherited.missing(4) == {1, 2, 3}


def test_inherited_split_edges_keep_the_colors_of_their_base_edges(monkeypatch):
    # every split of the largest published plan: each split edge is read back
    # to the base edge it came from (twin -> v), once each
    monkeypatch.setattr(verifier, "enumerate_regular_graphs", regular_classes)
    plan = plan_instances(SweepConfig(m_max=10, mode="conjecture"))
    assert len(plan) == 6640
    for g6, insts in itertools.groupby(plan, key=lambda inst: inst.base_graph6):
        insts = list(insts)
        base = parse_graph6(g6)
        phi = coloring_from_text(base, insts[0].base_coloring_text)
        for inst in insts:
            v, twin = inst.vertex, base.n
            inherited = inherit_split_coloring(phi, v, inst.part_a, inst.part_b)
            assert inherited.graph == vertex_split(base, v, inst.part_a, inst.part_b)
            assert inherited.uncolored == (v, twin)
            origins = []
            for (p, q), c in inherited.colored_items():
                origin = edge_key(p, v if q == twin else q)
                assert c == phi.color_of(*origin), (inst.instance_id, p, q)
                origins.append(origin)
            assert sorted(origins) == base.sorted_edges()


def test_inherit_requires_full_base_coloring():
    holed = find_coloring(complete(4), 3, hole=(0, 1))
    with pytest.raises(ColoringError, match="must be full"):
        inherit_split_coloring(holed, 0, (1,), (2, 3))


def test_split_instance_passes_on_k4():
    rec = check_split_instance(k4_instance())
    assert rec.lemma == "split-delta-critical"
    assert rec.verdict == "pass"
    assert rec.conclusion is True and rec.witness is None
    assert rec.hypotheses == {"base_class1": True, "base_connected": True,
                              "base_regular": True}


def test_sweep_m8_builds_each_split_graph_once(monkeypatch):
    calls = []
    real = verifier.vertex_split
    monkeypatch.setattr(verifier, "vertex_split", lambda *a: calls.append(1) or real(*a))
    assert len(list(run_sweep(SweepConfig(m_max=8, mode="conjecture")))) == 107
    assert len(calls) == 107


def test_split_instance_refuses_a_holed_base_coloring():
    base = make_graph(3, [(0, 1), (1, 2)])
    inst = SplitInstance(instance_id="test v=1 A=0 B=2", base_graph6=emit_graph6(base),
                         base_coloring_text=find_coloring(base, 2, hole=(0, 1)).to_text(),
                         vertex=1, part_a=(0,), part_b=(2,),
                         budget_ms=None)
    with pytest.raises(ColoringError, match="must be full"):
        check_split_instance(inst)


def test_split_of_order8_circulant_is_not_critical():
    # the one sweep failure: this base admits a split that is overfull and
    # class 2 yet keeps a non-critical edge, so the record must say fail
    base = parse_graph6("G@Umf?")
    text = find_delta_coloring(base).to_text()
    inst = SplitInstance(instance_id="G@Umf? v=0 A=5,6 B=7",
                         base_graph6="G@Umf?", base_coloring_text=text,
                         vertex=0, part_a=(5, 6), part_b=(7,),
                         budget_ms=None)
    rec = check_split_instance(inst)
    assert rec.verdict == "fail"
    assert rec.witness == {"check": "edge-critical", "graph6": "H@UmbA@",
                           "edge": [3, 4]}

    g = vertex_split(base, 0, (5, 6), (7,))
    assert emit_graph6(g) == "H@UmbA@"
    assert is_overfull(g) and chromatic_index(g) == 4
    assert find_coloring(g, 3, hole=(3, 4)) is None
    # same fact through the deletion route: losing (3, 4) keeps it class 2
    assert find_coloring(make_graph(g.n, g.edges - {edge_key(3, 4)}), 3) is None

    sibling = SplitInstance(instance_id="G@Umf? v=0 A=5 B=6,7",
                            base_graph6="G@Umf?", base_coloring_text=text,
                            vertex=0, part_a=(5,), part_b=(6, 7),
                            budget_ms=None)
    assert check_split_instance(sibling).verdict == "pass"


def search_only_record(inst):
    """The record of a planned split with every edge decided by its own search."""
    base = parse_graph6(inst.base_graph6)
    g = vertex_split(base, inst.vertex, inst.part_a, inst.part_b)
    hyp = {"base_class1": True, "base_connected": True, "base_regular": True}
    for e in g.sorted_edges():
        if find_coloring(g, g.max_degree(), hole=e) is None:
            witness = {"check": "edge-critical", "graph6": emit_graph6(g), "edge": list(e)}
            return VerificationRecord(verifier.SPLIT_LEMMA, inst.instance_id, hyp, False, witness)
    return VerificationRecord(verifier.SPLIT_LEMMA, inst.instance_id, hyp, True)


def test_split_checks_match_search_only_reference():
    plan = (plan_instances(SweepConfig(m_max=8, mode="custom", degrees=(3,)))
            + plan_instances(SweepConfig(m_max=8)))
    assert len(plan) == 23 + 11
    for inst in plan:
        assert check_split_instance(inst) == search_only_record(inst), inst.instance_id
    assert sum(search_only_record(inst).verdict == "fail" for inst in plan) == 1


def test_k10_split_is_certified_without_search(monkeypatch):
    k10 = complete(10)
    inst = SplitInstance(instance_id="I~~~~~~~w v=0 A=1,2,3,4 B=5,6,7,8,9",
                         base_graph6=emit_graph6(k10),
                         base_coloring_text=find_delta_coloring(k10).to_text(),
                         vertex=0, part_a=(1, 2, 3, 4), part_b=(5, 6, 7, 8, 9),
                         budget_ms=None)
    calls = []
    monkeypatch.setattr(solver, "_solve", lambda *a, **kw: calls.append(a))
    assert check_split_instance(inst).verdict == "pass"
    assert calls == []


def split_instance_of(base, text, v, part_a, part_b):
    return SplitInstance(instance_id=f"{emit_graph6(base)} v={v}", base_graph6=emit_graph6(base),
                         base_coloring_text=text, vertex=v, part_a=part_a, part_b=part_b,
                         budget_ms=None)


def two_disjoint_k4s():
    return make_graph(8, [(off + i, off + j) for off in (0, 4)
                          for i, j in itertools.combinations(range(4), 2)])


# each base breaks one hypothesis of the conjecture; judged as if it held,
# every one of them would be a fail
OFF_HYPOTHESIS_SPLITS = {
    "P3": (lambda: make_graph(3, [(0, 1), (1, 2)]), find_delta_coloring, 1, (0,), (2,),
           "base_regular"),
    "K4-spare-color": (lambda: complete(4), vizing_color, 0, (1,), (2, 3), "base_class1"),
    "two-disjoint-K4s": (two_disjoint_k4s, find_delta_coloring, 0, (1,), (2, 3),
                         "base_connected"),
    "petersen-4-colors": (petersen, vizing_color, 0, (1,), (4, 5), "base_class1"),
}


@pytest.mark.parametrize("case", sorted(OFF_HYPOTHESIS_SPLITS))
def test_split_instance_skips_a_base_off_the_hypotheses(case, monkeypatch):
    build, color, v, part_a, part_b, broken = OFF_HYPOTHESIS_SPLITS[case]
    base = build()
    inst = split_instance_of(base, color(base).to_text(), v, part_a, part_b)

    def boom(*a, **kw):
        raise AssertionError("a skipped split must not be checked")

    monkeypatch.setattr(verifier, "split_certificate_violation", boom)
    monkeypatch.setattr(solver, "_solve", boom)
    rec = check_split_instance(inst)
    assert rec.verdict == "skipped"
    assert rec.conclusion is None and rec.witness is None
    assert [h for h, ok in rec.hypotheses.items() if not ok] == [broken]


def test_split_instance_raises_on_a_bad_partition_before_the_hypotheses():
    # the base is disconnected, so a good partition would be skipped
    base = two_disjoint_k4s()
    inst = split_instance_of(base, find_delta_coloring(base).to_text(), 0, (1,), (2,))
    with pytest.raises(GraphError, match="partition the neighborhood"):
        check_split_instance(inst)


def test_split_instance_fail_and_undecided_on_solver_outcomes(monkeypatch):
    # a proper coloring of the other split, (v, B, A): the coloring core
    # accepts it, but certcheck rebuilds the split from (v, A, B) and refuses it
    real = verifier.inherit_split_coloring
    monkeypatch.setattr(verifier, "inherit_split_coloring", lambda phi, v, a, b: real(phi, v, b, a))
    rec = check_split_instance(k4_instance())
    assert rec.verdict == "fail"
    assert rec.witness["check"] == "split-edge-certificate"
    assert "not an edge of the split graph" in rec.witness["reason"]
    monkeypatch.undo()

    def boom(*a, **kw):
        raise SearchBudgetExceeded("over budget")

    # a hole search runs out: propagation reaches only its seed, so the
    # first other edge is searched
    inst = k4_instance()
    monkeypatch.setattr(solver, "propagate_certificates", lambda phi: {phi.uncolored: phi})
    monkeypatch.setattr(solver, "find_coloring", boom)
    rec = check_split_instance(inst)
    assert rec.verdict == "undecided"
    assert rec.conclusion is None and rec.witness is None


def overfull_sets_less_each_edge(g) -> dict:
    """For each edge e, every odd vertex set S (a bit mask) of g - e spanning
    more than D(|S| - 1)/2 edges of g - e, D its max degree; by brute force."""
    adj = [sum(1 << w for w in g.neighbors(u)) for u in range(g.n)]
    spans = {s: sum((adj[u] & s).bit_count() for u in range(g.n) if s >> u & 1) // 2
             for s in range(1 << g.n) if s.bit_count() % 2 and s.bit_count() >= 3}
    found = {}
    for u, v in g.edges:
        delta = max(g.degree(w) - (w in (u, v)) for w in range(g.n))
        both = 1 << u | 1 << v
        found[(u, v)] = [s for s, m in spans.items()
                         if m - ((s & both) == both) > delta * (s.bit_count() - 1) // 2]
    return found


def test_no_split_less_an_edge_has_an_overfull_subgraph():
    # so a non-critical edge e leaves G* - e class 2 with no overfull
    # subgraph, which the Overfull Conjecture forbids when 3D > |V(G*)|
    plans = [SweepConfig(m_max=8, mode="conjecture"),
             SweepConfig(m_max=8, mode="custom", degrees=(2, 3))]
    splits = {inst.instance_id: inst for cfg in plans for inst in plan_instances(cfg)}
    pairs = 0
    for inst in splits.values():
        found = overfull_sets_less_each_edge(
            vertex_split(parse_graph6(inst.base_graph6), inst.vertex, inst.part_a, inst.part_b))
        assert all(sets == [] for sets in found.values()), inst.instance_id
        pairs += len(found)
    # the 107 + 26 planned splits share 24 cubic and C4 splits
    assert (len(splits), pairs) == (109, 1866)
    # the known fail less its non-critical edge is the Petersen graph less a vertex
    fail = parse_graph6("H@UmbA@")
    less = make_graph(fail.n, [e for e in fail.edges if e != (3, 4)])
    assert canonical_mask(less) == canonical_mask(petersen_minus_vertex())
    # a base whose odd side {0, 1, 2, 8, 9} has a cut of 2 < D = 4 keeps K5 - e
    split = vertex_split(parse_graph6("Iw?Ww~g{?"), 0, (1,), (2, 8, 9))
    found = overfull_sets_less_each_edge(split)
    assert sum(sets != [] for sets in found.values()) == 12


# -------------------------------------------------------------------- sweep

def cubic_m6_config(jobs=1):
    return SweepConfig(m_max=6, mode="custom", degrees=(3,), jobs=jobs,
                       budget_ms=None)


def test_sweep_records_and_log(tmp_path):
    log = tmp_path / "sweep.jsonl"
    records = list(run_sweep(cubic_m6_config(), log_path=str(log)))
    assert [r.instance_id for r in records] == CUBIC_M6_IDS
    assert all(r.verdict == "pass" for r in records)
    assert list(read_records(str(log))) == records

    again = tmp_path / "again.jsonl"
    list(run_sweep(cubic_m6_config(), log_path=str(again)))
    assert again.read_bytes() == log.read_bytes()


def test_sweep_resume_finishes_interrupted_log(tmp_path):
    log = tmp_path / "full.jsonl"
    records = list(run_sweep(cubic_m6_config(), log_path=str(log)))
    whole = log.read_bytes()

    part = tmp_path / "part.jsonl"
    lines = whole.splitlines(keepends=True)
    part.write_bytes(b"".join(lines[:2]))
    resumed = list(run_sweep(cubic_m6_config(), log_path=str(part), resume=True))
    assert part.read_bytes() == whole
    assert resumed == records


def test_sweep_resume_reads_the_log_once(tmp_path, monkeypatch):
    log = tmp_path / "part.jsonl"
    records = list(run_sweep(cubic_m6_config(), log_path=str(log)))
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:2]))
    reads = []

    def counting(path):
        reads.append(path)
        return read_records(path)
    monkeypatch.setattr(verifier, "read_records", counting)
    assert list(run_sweep(cubic_m6_config(), log_path=str(log), resume=True)) == records
    assert reads == [str(log)]


def test_sweep_resume_drops_torn_last_line(tmp_path):
    config = SweepConfig(m_max=6)
    log = tmp_path / "full.jsonl"
    records = list(run_sweep(config, log_path=str(log)))
    whole = log.read_bytes()
    assert whole.count(b"\n") == len(records) >= 3

    # a crash mid-write leaves the last line cut short, with no newline
    torn = tmp_path / "torn.jsonl"
    for cut in (len(whole) - 1, len(whole) - 20, whole.index(b"\n") // 2):
        torn.write_bytes(whole[:cut])
        resumed = list(run_sweep(config, log_path=str(torn), resume=True))
        assert torn.read_bytes() == whole
        assert resumed == records

    # a damaged line that did end in a newline is still refused
    lines = whole.splitlines(keepends=True)
    torn.write_bytes(lines[0] + lines[1][:30] + b"\n")
    with pytest.raises(RecordError, match=r"torn\.jsonl:2: malformed record line"):
        list(run_sweep(config, log_path=str(torn), resume=True))


class _CountedReads:
    """A file whose reads are tallied in `read_bytes`."""

    def __init__(self, fh):
        self._fh, self.read_bytes = fh, 0

    def read(self, size=-1):
        data = self._fh.read(size)
        self.read_bytes += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_drop_torn_line_reads_back_only_to_the_last_newline(tmp_path, monkeypatch):
    # a 4-byte block makes a torn line span several blocks; cuts inside the
    # 9-byte first line leave a log with no newline at all
    block = 4
    monkeypatch.setattr(verifier, "_TAIL_BLOCK", block)
    opened = []

    def counted_open(*args):
        opened.append(_CountedReads(open(*args)))
        return opened[-1]
    monkeypatch.setattr(verifier, "open", counted_open, raising=False)
    whole = b"".join(b"%d" % i * i + b"\n" for i in (9, 1, 3, 7, 2, 8))
    log = tmp_path / "log.jsonl"
    for cut in range(len(whole) + 1):
        log.write_bytes(whole[:cut])
        verifier._drop_torn_line(str(log))
        kept = whole[:cut].rfind(b"\n") + 1
        assert log.read_bytes() == whole[:kept], cut
        assert opened.pop().read_bytes <= cut - kept + block, cut


def test_sweep_resume_needs_a_log():
    with pytest.raises(GraphError, match="resume needs a log path"):
        list(run_sweep(cubic_m6_config(), resume=True))
    with pytest.raises(GraphError, match="resume needs a log path"):
        list(run_sweep(cubic_m6_config(), log_path="", resume=True))


def test_sweep_resume_rejects_foreign_log(tmp_path):
    log = tmp_path / "log.jsonl"
    records = list(run_sweep(cubic_m6_config(), log_path=str(log)))

    lines = log.read_text().splitlines(keepends=True)
    log.write_text(lines[1] + lines[0])
    with pytest.raises(RecordError, match="record 1 is"):
        list(run_sweep(cubic_m6_config(), log_path=str(log), resume=True))

    log.write_text("".join(lines) + lines[-1])
    with pytest.raises(RecordError, match="more records than planned"):
        list(run_sweep(cubic_m6_config(), log_path=str(log), resume=True))

    log.write_text(lines[0] + "definitely not json\n")
    with pytest.raises(RecordError, match=r"log\.jsonl:2: "):
        list(run_sweep(cubic_m6_config(), log_path=str(log), resume=True))


def test_sweep_parallel_matches_serial(tmp_path):
    serial = list(run_sweep(cubic_m6_config()))
    log = tmp_path / "par.jsonl"
    parallel = list(run_sweep(cubic_m6_config(jobs=2), log_path=str(log)))
    assert parallel == serial
    assert list(read_records(str(log))) == serial


def base_of(rec):
    return rec.instance_id.split(" v=")[0]


def test_sweep_plans_each_base_only_when_its_records_are_wanted(tmp_path, monkeypatch):
    config = SweepConfig(m_max=8, mode="conjecture")
    plan = plan_instances(config)
    first = plan[0].base_graph6
    per_base = sum(inst.base_graph6 == first for inst in plan)
    enumerated, planned, checked = [], [], []

    def enumerate_classes(m, d, _enumerate=enumerate_regular_graphs):
        enumerated.append((m, d))
        return _enumerate(m, d)

    def plan(base, budget_ms, _plan=verifier._base_instances):
        planned.append(emit_graph6(base))
        return _plan(base, budget_ms)

    def check(inst, _check=verifier.check_split_instance):
        checked.append(inst.instance_id)
        if len(checked) > per_base:
            raise RuntimeError("halt")
        return _check(inst)
    monkeypatch.setattr(verifier, "enumerate_regular_graphs", enumerate_classes)
    monkeypatch.setattr(verifier, "_base_instances", plan)
    monkeypatch.setattr(verifier, "check_split_instance", check)
    log = tmp_path / "cut.jsonl"
    records = run_sweep(config, log_path=str(log))
    assert [base_of(rec) for rec in itertools.islice(records, per_base)] == [first] * per_base
    assert planned == [first] and enumerated == [(4, 2)]
    assert len(log.read_text().splitlines()) == per_base
    with pytest.raises(RuntimeError, match="halt"):
        next(records)
    # the check that raised belongs to the second base; no later base was planned
    assert len(planned) == 2 and checked[-1].startswith(planned[1] + " ")
    assert len(log.read_text().splitlines()) == per_base


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_resume_restarts_at_a_base_boundary_inside_a_base_and_at_a_torn_line(
        tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    log = tmp_path / "full.jsonl"
    records = list(run_sweep(SweepConfig(), log_path=str(log)))
    whole = log.read_bytes()
    lines = whole.splitlines(keepends=True)
    # the first split of the first base after the first with more than one split
    i = next(i for i in range(1, len(records) - 1)
             if base_of(records[i - 1]) != base_of(records[i]) == base_of(records[i + 1]))
    boundary = len(b"".join(lines[:i]))
    inside = boundary + len(lines[i])
    torn = inside + len(lines[i + 1]) // 2
    cut = tmp_path / "cut.jsonl"
    for end in (boundary, inside, torn):
        cut.write_bytes(whole[:end])
        resumed = list(run_sweep(SweepConfig(jobs=jobs), log_path=str(cut), resume=True))
        assert cut.read_bytes() == whole, end
        assert resumed == records, end


def test_sweep_jobs_keep_a_constant_window_of_futures(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor
    submitted = []
    real_submit = ProcessPoolExecutor.submit

    def submit(self, fn, *args):
        submitted.append(emit_graph6(args[0]))
        return real_submit(self, fn, *args)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    log = tmp_path / "m8.jsonl"
    # how many bases were submitted when each record arrived, and its base's place
    seen, place = [], []
    for rec in run_sweep(SweepConfig(m_max=8, mode="conjecture", jobs=2), log_path=str(log)):
        seen.append(len(submitted))
        place.append(submitted.index(base_of(rec)))
    assert len(seen) == 107 and len(submitted) == len(set(submitted)) == 22
    window = verifier._WINDOW_PER_WORKER * 2
    assert window < 22
    assert seen[0] == window
    assert all(count <= i + window for i, count in zip(place, seen))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == published_sha256("sweep-m8")


def test_sweep_starts_no_more_workers_than_instances(monkeypatch):
    # a fork-started pool launches all its workers at the first submit
    import concurrent.futures
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    serial = list(run_sweep(cubic_m6_config()))
    # the cubic sweep through order 6 has three bases; one CPU, or an unknown
    # count, runs serially and starts no pool
    for cpus, jobs, workers in ((64, 5000, [3]), (2, 5000, [2]), (64, 2, [2]),
                                (1, 2, []), (None, 2, [])):
        started.clear()
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: cpus)
        assert list(run_sweep(cubic_m6_config(jobs=jobs))) == serial
        assert started == workers, (cpus, jobs)


# ------------------------------------------------------------- 9-vertex hunt

def test_nonelementary_path_witness_is_pinned():
    rec = reproduce_nonelementary_path()
    assert rec.lemma == "nonelementary-kierstead-witness"
    assert rec.instance_id == "HheA@GU exhaustive"
    assert rec.verdict == "pass"
    assert rec.hypotheses == {"host_class2": True}
    w = rec.witness
    assert w["edge"] == [0, 4]
    assert w["path"] == [4, 0, 1, 6]
    assert w["shared_color"] == 2
    assert w["shared_between"] == [4, 6]
    assert w["inner_degrees"] == [3, 3]

    # replay the witness from scratch
    host = petersen_minus_vertex()
    assert emit_graph6(host) == "HheA@GU"
    phi = coloring_from_text(host, w["coloring"])
    assert_proper(phi)
    assert phi.uncolored == tuple(w["edge"])
    path = tuple(w["path"])
    assert kierstead_violation(phi, path) is None
    assert elementary_violation(phi, path) == (4, 6, 2)
    assert [host.degree(v) for v in w["path"][1:3]] == w["inner_degrees"]


def test_nonelementary_path_skip_and_undecided(monkeypatch):
    monkeypatch.setattr(verifier, "find_delta_coloring", lambda g, b=None: vizing_color(g))
    rec = reproduce_nonelementary_path()
    assert rec.verdict == "skipped"
    assert rec.hypotheses == {"host_class2": False}

    monkeypatch.setattr(verifier, "find_delta_coloring", lambda g, b=None: None)

    def boom(*a, **kw):
        raise SearchBudgetExceeded("over budget")
    monkeypatch.setattr(verifier, "enumerate_colorings", boom)
    rec = reproduce_nonelementary_path()
    assert rec.verdict == "undecided"
