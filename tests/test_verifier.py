"""Sweep planning, per-instance checks, log resume, and the 9-vertex hunt."""

import hashlib
import itertools

import networkx as nx
import pytest

import edgecritic.solver as solver
import edgecritic.verifier as verifier
from conftest import assert_proper, split_orbits_from_every_vertex
from edgecritic.coloring import ColoringError, coloring_from_text, elementary_violation
from edgecritic.graph6 import emit_graph6, parse_graph6
from edgecritic.enumeration import enumerate_regular_graphs
from edgecritic.graphs import (
    GraphError,
    automorphisms,
    canonical_mask,
    complete,
    complete_minus_matching,
    is_overfull,
    make_graph,
    petersen_minus_vertex,
    split_spec,
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
    with pytest.raises(GraphError, match="unknown sweep mode"):
        SweepConfig(mode="exhaustive").validate()
    with pytest.raises(GraphError, match="explicit degree tuple"):
        SweepConfig(mode="custom").validate()
    for mode in ("theorem", "conjecture"):
        with pytest.raises(GraphError, match="only in custom mode"):
            SweepConfig(mode=mode, degrees=(3,)).validate()
    for bad in (2, 7):
        with pytest.raises(GraphError, match="even number >= 4"):
            SweepConfig(m_max=bad).validate()
    with pytest.raises(GraphError, match="above 10"):
        SweepConfig(m_max=12).validate()
    for jobs in (0, -3):
        with pytest.raises(GraphError, match="jobs must be at least 1"):
            SweepConfig(jobs=jobs).validate()
    for budget in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(GraphError, match="budget_ms must be finite and above 0"):
            SweepConfig(budget_ms=budget).validate()
    SweepConfig(budget_ms=None).validate()
    SweepConfig().validate()
    SweepConfig(m_max=10).validate()
    SweepConfig(m_max=10, mode="conjecture").validate()


def full_group_split_orbits(base):
    """Split orbits mapped through the whole listed automorphism group."""
    auts = automorphisms(base)
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
            for base in enumerate_regular_graphs(m, d):  # connected or not
                assert verifier._split_orbits(base) == full_group_split_orbits(base), \
                    emit_graph6(base)
                count += 1
    assert count == 48


def test_split_orbits_match_every_vertex_closure_at_order_ten():
    # d = 3 bases have few automorphisms, so their vertex orbits have
    # representatives other than 0, which take Schreier generators
    count = 0
    for d in (3, 7, 8, 9):
        for base in enumerate_regular_graphs(10, d):
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
                                        split_spec(inst.vertex, inst.part_a, inst.part_b)))
            for inst in order_ten]
    assert len(set(reps)) == len(reps) == 12
    # oracle: every unreduced split is isomorphic to exactly one representative
    unreduced = 0
    for base in (complete(10), complete_minus_matching(10)):
        for v in base.vertices():
            least, *rest = sorted(base.neighbors(v))
            for r in range(len(rest)):
                for more in itertools.combinations(rest, r):
                    a = (least, *more)
                    b = tuple(w for w in rest if w not in more)
                    g = vertex_split(base, split_spec(v, a, b))
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
    short, full = tmp_path / "m8.jsonl", tmp_path / "m10.jsonl"
    run_sweep(SweepConfig(m_max=8), log_path=str(short))
    records = run_sweep(SweepConfig(m_max=10), log_path=str(full))
    assert len(records) == 23 and all(r.verdict == "pass" for r in records)
    lines = full.read_bytes().splitlines(keepends=True)
    assert b"".join(lines[:11]) == short.read_bytes()
    assert hashlib.sha256(full.read_bytes()).hexdigest() == \
        "584631ee2c97da30264a7f27347d7a59c3f5e9c59f5da2b558decb2474fca721"


def test_order_ten_degree_seven_slice_is_pinned(tmp_path):
    # K8 and the five 7-regular classes on 10 vertices; the representatives
    # are canonical, so any correct enumerator gives these bytes
    log = tmp_path / "d7.jsonl"
    records = run_sweep(SweepConfig(m_max=10, mode="custom", degrees=(7,)),
                        log_path=str(log))
    assert len(records) == 125 and all(r.verdict == "pass" for r in records)
    assert hashlib.sha256(log.read_bytes()).hexdigest() == \
        "e99f01b16c68d112ecc44ccd80b0ea37a1bc661fbe3fa974d52f7f0066ece2e9"


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
        g = vertex_split(base, split_spec(inst.vertex, inst.part_a, inst.part_b))
        by_base.setdefault(inst.base_graph6, []).append(
            nx.Graph(sorted(g.edges)))
    for g6, reps in by_base.items():
        base = parse_graph6(g6)
        for v in base.vertices():
            nbrs = sorted(base.neighbors(v))
            for r in range(1, len(nbrs)):
                for a in itertools.combinations(nbrs, r):
                    b = tuple(w for w in nbrs if w not in a)
                    g = vertex_split(base, split_spec(v, a, b))
                    gx = nx.Graph(sorted(g.edges))
                    assert any(nx.is_isomorphic(gx, rep) for rep in reps), \
                        (g6, v, a)


# ---------------------------------------------------------------- instances

def test_inherit_split_coloring():
    base = complete(4)
    phi = find_delta_coloring(base)
    spec = split_spec(0, (1,), (2, 3))
    inherited = inherit_split_coloring(phi, spec)
    assert inherited.graph == vertex_split(base, spec)
    assert inherited.uncolored == (0, 4)
    assert_proper(inherited)
    assert not inherited.missing(0) & inherited.missing(4)
    assert inherited.missing(0) | inherited.missing(4) == {1, 2, 3}


def test_inherit_requires_full_base_coloring():
    holed = find_coloring(complete(4), 3, hole=(0, 1))
    with pytest.raises(ColoringError, match="must be full"):
        inherit_split_coloring(holed, split_spec(0, (1,), (2, 3)))


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
    assert len(run_sweep(SweepConfig(m_max=8, mode="conjecture"))) == 107
    assert len(calls) == 107


def test_split_instance_refuses_holed_base_coloring_before_overfull_test():
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

    g = vertex_split(base, split_spec(0, (5, 6), (7,)))
    assert emit_graph6(g) == "H@UmbA@"
    assert is_overfull(g) and chromatic_index(g) == 4
    assert find_coloring(g, 3, hole=(3, 4)) is None
    # same fact through the deletion route: losing (3, 4) keeps it class 2
    assert find_coloring(g.delete_edge(3, 4), 3) is None

    sibling = SplitInstance(instance_id="G@Umf? v=0 A=5 B=6,7",
                            base_graph6="G@Umf?", base_coloring_text=text,
                            vertex=0, part_a=(5,), part_b=(6, 7),
                            budget_ms=None)
    assert check_split_instance(sibling).verdict == "pass"


def search_only_record(inst):
    """The record of a planned split with every edge decided by its own search."""
    base = parse_graph6(inst.base_graph6)
    g = vertex_split(base, split_spec(inst.vertex, inst.part_a, inst.part_b))
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


def test_split_instance_fails_when_not_overfull():
    base = make_graph(3, [(0, 1), (1, 2)])
    inst = SplitInstance(instance_id="test v=1 A=0 B=2", base_graph6=emit_graph6(base),
                         base_coloring_text=find_delta_coloring(base).to_text(),
                         vertex=1, part_a=(0,), part_b=(2,),
                         budget_ms=None)
    rec = check_split_instance(inst)
    assert rec.verdict == "fail"
    assert rec.witness["check"] == "overfull"
    assert rec.hypotheses["base_regular"] is False


def test_split_instance_fails_on_oversized_palette():
    text = vizing_color(complete(4)).to_text()  # one spare color too many
    rec = check_split_instance(k4_instance(text=text))
    assert rec.verdict == "fail"
    assert rec.witness["check"] == "inherited-missing-partition"
    assert rec.hypotheses["base_class1"] is False


def test_split_instance_fail_and_undecided_on_solver_outcomes(monkeypatch):
    # a proper coloring of the other split, (v, B, A): the coloring core
    # accepts it, but certcheck rebuilds the split from (v, A, B) and refuses it
    real = verifier.inherit_split_coloring
    monkeypatch.setattr(verifier, "inherit_split_coloring", lambda phi, spec: real(
        phi, split_spec(spec.vertex, spec.part_b, spec.part_a)))
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


# -------------------------------------------------------------------- sweep

def cubic_m6_config(jobs=1):
    return SweepConfig(m_max=6, mode="custom", degrees=(3,), jobs=jobs,
                       budget_ms=None)


def test_sweep_records_and_log(tmp_path):
    log = tmp_path / "sweep.jsonl"
    records = run_sweep(cubic_m6_config(), log_path=str(log))
    assert [r.instance_id for r in records] == CUBIC_M6_IDS
    assert all(r.verdict == "pass" for r in records)
    assert list(read_records(str(log))) == records

    again = tmp_path / "again.jsonl"
    run_sweep(cubic_m6_config(), log_path=str(again))
    assert again.read_bytes() == log.read_bytes()


def test_sweep_resume_finishes_interrupted_log(tmp_path):
    log = tmp_path / "full.jsonl"
    records = run_sweep(cubic_m6_config(), log_path=str(log))
    whole = log.read_bytes()

    part = tmp_path / "part.jsonl"
    lines = whole.splitlines(keepends=True)
    part.write_bytes(b"".join(lines[:2]))
    resumed = run_sweep(cubic_m6_config(), log_path=str(part), resume=True)
    assert part.read_bytes() == whole
    assert resumed == records


def test_sweep_resume_reads_the_log_once(tmp_path, monkeypatch):
    log = tmp_path / "part.jsonl"
    records = run_sweep(cubic_m6_config(), log_path=str(log))
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:2]))
    reads = []

    def counting(path):
        reads.append(path)
        return read_records(path)
    monkeypatch.setattr(verifier, "read_records", counting)
    assert run_sweep(cubic_m6_config(), log_path=str(log), resume=True) == records
    assert reads == [str(log)]


def test_sweep_resume_drops_torn_last_line(tmp_path):
    config = SweepConfig(m_max=6)
    log = tmp_path / "full.jsonl"
    records = run_sweep(config, log_path=str(log))
    whole = log.read_bytes()
    assert whole.count(b"\n") == len(records) >= 3

    # a crash mid-write leaves the last line cut short, with no newline
    torn = tmp_path / "torn.jsonl"
    for cut in (len(whole) - 1, len(whole) - 20, whole.index(b"\n") // 2):
        torn.write_bytes(whole[:cut])
        resumed = run_sweep(config, log_path=str(torn), resume=True)
        assert torn.read_bytes() == whole
        assert resumed == records

    # a damaged line that did end in a newline is still refused
    lines = whole.splitlines(keepends=True)
    torn.write_bytes(lines[0] + lines[1][:30] + b"\n")
    with pytest.raises(RecordError, match=r"torn\.jsonl:2: malformed record line"):
        run_sweep(config, log_path=str(torn), resume=True)


def test_sweep_resume_rejects_foreign_log(tmp_path):
    log = tmp_path / "log.jsonl"
    records = run_sweep(cubic_m6_config(), log_path=str(log))

    lines = log.read_text().splitlines(keepends=True)
    log.write_text(lines[1] + lines[0])
    with pytest.raises(RecordError, match="record 1 is"):
        run_sweep(cubic_m6_config(), log_path=str(log), resume=True)

    log.write_text("".join(lines) + lines[-1])
    with pytest.raises(RecordError, match="more records than planned"):
        run_sweep(cubic_m6_config(), log_path=str(log), resume=True)

    log.write_text(lines[0] + "definitely not json\n")
    with pytest.raises(RecordError, match=r"log\.jsonl:2: "):
        run_sweep(cubic_m6_config(), log_path=str(log), resume=True)


def test_sweep_parallel_matches_serial(tmp_path):
    serial = run_sweep(cubic_m6_config())
    log = tmp_path / "par.jsonl"
    parallel = run_sweep(cubic_m6_config(jobs=2), log_path=str(log))
    assert parallel == serial
    assert list(read_records(str(log))) == serial


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

        def map(self, fn, items, chunksize=1):
            return map(fn, items)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    serial = run_sweep(cubic_m6_config())
    assert run_sweep(cubic_m6_config(jobs=5000)) == serial
    assert started == [len(CUBIC_M6_IDS)]
    assert run_sweep(cubic_m6_config(jobs=2)) == serial
    assert started == [len(CUBIC_M6_IDS), 2]


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
