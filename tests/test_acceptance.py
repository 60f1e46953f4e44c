"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with -s to watch the lines stream; every criterion re-derives its
expectations from scratch (independent oracles, fresh sweeps, fixed seeds).
"""

import contextlib
import random
import time

from conftest import assert_proper, corpus_hosts, random_graph, small_graph_corpus
from edgecritic.coloring import (
    ImproperColoringError,
    LinkageError,
    coloring_from_text,
    elementary_violation,
    kempe_swap,
    recolor_edge,
    subchain_swap,
)
from edgecritic.graphs import cycle, petersen_minus_vertex
from edgecritic.lemmas import lemma_records
from edgecritic.records import tally_verdicts
from edgecritic.solver import (
    chromatic_index,
    critical_edge_report,
    find_coloring,
    find_delta_coloring,
    vizing_color,
)
from edgecritic.structures import (
    find_full_deficiency_pairs,
    kierstead_violation,
)
from edgecritic.verifier import (
    SweepConfig,
    reproduce_nonelementary_path,
    run_sweep,
)


@contextlib.contextmanager
def criterion(n: int, blurb: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL  {blurb}")
        raise
    print(f"criterion {n}: PASS  {blurb}")


def test_criterion_1_high_degree_range_verified():
    with criterion(1, "every high-degree split through order 8 checks out"):
        start = time.monotonic()
        records = list(run_sweep(SweepConfig(m_max=8, budget_ms=None)))
        tally = tally_verdicts(records)
        assert len(records) == 11
        assert tally["fail"] == 0 and tally["undecided"] == 0
        assert tally["pass"] == 11
        assert time.monotonic() - start <= 1800


def test_criterion_2_cubic_sweep_isolates_the_counterexample():
    with criterion(2, "cubic sweep: one non-critical split, the rest pass"):
        start = time.monotonic()
        records = list(run_sweep(SweepConfig(m_max=8, mode="custom", degrees=(3,),
                                             budget_ms=None)))
        failing = [r.instance_id for r in records if r.verdict == "fail"]
        assert failing == ["G@Umf? v=0 A=5,6 B=7"]
        assert tally_verdicts(records) == {"pass": 22, "fail": 1,
                                           "skipped": 0, "undecided": 0}
        for base, count in (("EFz_", 1), ("ELv_", 2), ("G?]uf?", 1)):
            mine = [r for r in records if r.instance_id.startswith(base + " ")]
            assert len(mine) == count
            assert all(r.verdict == "pass" for r in mine)
        assert time.monotonic() - start <= 300


def test_criterion_3_nonelementary_witness_reproduces():
    with criterion(3, "exhaustive 9-vertex hunt finds the shared-color path"):
        start = time.monotonic()
        rec = reproduce_nonelementary_path()
        assert rec.verdict == "pass"
        w = rec.witness
        host = petersen_minus_vertex()
        phi = coloring_from_text(host, w["coloring"])
        assert_proper(phi)
        assert phi.uncolored == tuple(w["edge"])
        path = tuple(w["path"])
        assert kierstead_violation(phi, path) is None
        shared = elementary_violation(phi, path)
        assert shared is not None
        assert shared[2] == w["shared_color"]
        assert sorted(shared[:2]) == sorted(w["shared_between"])
        assert time.monotonic() - start <= 120


def test_criterion_4_named_critical_graphs():
    with criterion(4, "the 9-vertex remnant and odd cycles are fully critical"):
        host = petersen_minus_vertex()
        assert chromatic_index(host) == 4
        ok, crit = critical_edge_report(host)
        assert ok is True
        assert crit == host.sorted_edges() and len(crit) == 12
        for k in (5, 7, 9):
            g = cycle(k)
            assert chromatic_index(g) == 3
            ok, crit = critical_edge_report(g)
            assert ok is True and crit == g.sorted_edges()


def test_criterion_5_lemma_battery_over_the_corpus():
    with criterion(5, "adjacency lemmas hold on all 42 corpus hosts"):
        hosts = corpus_hosts()
        assert len(hosts) == 42
        total = {"pass": 0, "fail": 0, "skipped": 0, "undecided": 0}
        for g in hosts:
            for verdict, n in tally_verdicts(lemma_records(g)).items():
                total[verdict] += n
        assert total["fail"] == 0 and total["undecided"] == 0
        assert total["pass"] > 1000


def test_criterion_6_solver_agrees_with_plain_backtracking():
    with criterion(6, "max-degree colorability matches an independent search"):

        def plain_backtrack_colorable(g, k):
            edges = g.sorted_edges()
            used = [set() for _ in range(g.n)]

            def go(i):
                if i == len(edges):
                    return True
                u, v = edges[i]
                for c in range(1, k + 1):
                    if c in used[u] or c in used[v]:
                        continue
                    used[u].add(c)
                    used[v].add(c)
                    if go(i + 1):
                        return True
                    used[u].discard(c)
                    used[v].discard(c)
                return False

            return go(0)

        def agree(g):
            phi = find_delta_coloring(g)
            assert (phi is not None) == plain_backtrack_colorable(
                g, g.max_degree()), g
            if phi is not None:
                assert_proper(phi)
                assert phi.is_full() and phi.k == g.max_degree()

        corpus = small_graph_corpus(8)
        assert len(corpus) == 242
        for g in corpus:
            agree(g)
        rng = random.Random(60731)
        for _ in range(1000):
            g = random_graph(rng)
            if g.edges:
                agree(g)


def test_criterion_7_recoloring_soundness():
    with criterion(7, "10,000 random recolorings stay proper; "
                      "deficiency pairs split the palette"):
        rng = random.Random(40923)
        done = {"kempe": 0, "subchain": 0, "recolor": 0}
        while sum(done.values()) < 10_000:
            g = random_graph(rng)
            if not g.edges:
                continue
            phi = vizing_color(g)
            assert_proper(phi)
            for _ in range(40):
                if sum(done.values()) >= 10_000:
                    break
                kind = rng.choice(("kempe", "subchain", "recolor"))
                x = rng.randrange(g.n)
                alpha, beta = rng.sample(range(1, phi.k + 1), 2)
                if kind == "kempe":
                    once = kempe_swap(phi, x, alpha, beta)
                    assert_proper(once)
                    assert kempe_swap(once, x, alpha, beta) == phi
                    phi = once
                elif kind == "subchain":
                    y = rng.choice([w for w in range(g.n) if w != x])
                    # interior targets must refuse rather than hand back a
                    # clashing coloring
                    try:
                        phi = subchain_swap(phi, x, y, alpha, beta)
                        assert_proper(phi)
                    except (LinkageError, ImproperColoringError):
                        pass
                else:
                    u, v = rng.choice(g.sorted_edges())
                    free = sorted(phi.missing(u) & phi.missing(v))
                    if free:
                        phi = recolor_edge(phi, u, v, rng.choice(free))
                        assert_proper(phi)
                done[kind] += 1
        assert all(n > 1000 for n in done.values())

        instances = 0
        for g in small_graph_corpus(8):
            if not g.is_connected() or find_delta_coloring(g) is not None:
                continue
            ok, _ = critical_edge_report(g)
            if not ok:
                continue
            delta = g.max_degree()
            for u, v in find_full_deficiency_pairs(g):
                holed = find_coloring(g, delta, hole=(u, v))
                assert holed is not None
                ma, mb = holed.missing(u), holed.missing(v)
                assert not ma & mb
                assert len(ma | mb) == delta
                instances += 1
        assert instances >= 10


def test_criterion_8_sweeps_are_reproducible(tmp_path):
    with criterion(8, "repeat runs are byte-identical, parallel agrees"):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        records = list(run_sweep(SweepConfig(m_max=8, budget_ms=None), str(first)))
        list(run_sweep(SweepConfig(m_max=8, budget_ms=None), str(second)))
        assert first.read_bytes() == second.read_bytes()
        parallel = list(run_sweep(SweepConfig(m_max=8, budget_ms=None, jobs=2)))
        assert parallel == records
