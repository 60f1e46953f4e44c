"""Adjacency-lemma oracles.

Each checker evaluates one published statement on one concrete instance and
returns a VerificationRecord through `records.judge`, the verdict rule of the
sweep's split records too. Hypotheses are recorded as named booleans and never
assumed: a false hypothesis skips the instance, and a solver-budget exhaustion
leaves the conclusion undecided.
Checkers judge the evidence they are given and make no solver call: the
caller hands each one the host's class decision and, where the claim needs
it, the coloring its own search found.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .coloring import (
    PartialEdgeColoring,
    are_linked,
    elementary_violation,
    kempe_chain,
    parity_census,
)
from .graph6 import emit_graph6
from .graphs import Edge, Graph, edge_key
from .records import VerificationRecord, judge
from .solver import SearchBudgetExceeded, find_coloring, find_delta_coloring, vizing_color
from .structures import (
    build_maximal_multifan,
    enumerate_kierstead_paths,
    find_full_deficiency_pairs,
    kierstead_violation,
    kite_violation,
    kites_with_head,
    multifan_violation,
)


@lru_cache(maxsize=1)
def _host_graph6(graph: Graph) -> str:
    """The host's graph6, emitted once for all the records of one host."""
    return emit_graph6(graph)


def _ids(graph: Graph, tag: str) -> str:
    return f"{_host_graph6(graph)} {tag}"


def _anchored(coloring: PartialEdgeColoring, hole) -> bool:
    return (hole is not None and coloring.k == coloring.graph.max_degree()
            and coloring.uncolored == edge_key(*hole))


def _hole_colorable(graph: Graph, hole, evidence) -> bool | None:
    """Whether the caller's evidence is a max-degree coloring of the host minus
    the hole; None when it is the SearchBudgetExceeded of a search that ran out."""
    if isinstance(evidence, SearchBudgetExceeded):
        return None
    return (evidence is not None and evidence.graph == graph
            and _anchored(evidence, hole))


def _gate(name: str, iid: str, hyp: dict[str, bool], critical, violation) -> VerificationRecord:
    """The one road from a checker's evidence to its record.

    `hyp` holds the checker's own hypotheses. Once they all hold, `critical`,
    unless None, is a (host_class, colorable) pair that adds the class2
    hypothesis and critical_edge: on a class-2 host the hole is critical
    exactly when the host minus it is max-degree colorable. `host_class` is
    the caller's class decision; the gate makes no search. A class search
    that ran out of budget leaves the claim undecided, and so does a hole
    search that ran out (colorable None) on a class-2 host. The rest is
    `judge`: a false hypothesis skips the claim, otherwise `violation()`
    decides it.
    """
    if critical is not None and all(hyp.values()):
        host_class, colorable = critical
        if isinstance(host_class, SearchBudgetExceeded):
            return VerificationRecord(name, iid, hyp, None)
        class2 = host_class == 2
        if class2 and colorable is None:
            return VerificationRecord(name, iid, {**hyp, "class2": True}, None)
        hyp = {**hyp, "class2": class2, "critical_edge": class2 and colorable}
    return judge(name, iid, hyp, violation)


# ---------------------------------------------------------------------------
# Checkers that need hole criticality take `host_class`, the caller's class
# decision: 1, 2, or the SearchBudgetExceeded of a class search that ran out.
#
# degree-counting statements; each takes the max-degree coloring of the host
# minus the checked edge that the caller searched for: None when there is
# none, the SearchBudgetExceeded when the search ran out


def check_vizing_adjacency(graph: Graph, u: int, v: int,
                           hole_coloring: PartialEdgeColoring | SearchBudgetExceeded | None,
                           host_class: int | SearchBudgetExceeded
                           ) -> VerificationRecord:
    """A critical edge forces many max-degree neighbors at both endpoints."""
    delta = graph.max_degree()

    def violation():
        for x, y in ((u, v), (v, u)):
            need = delta - graph.degree(y) + 1
            have = sum(1 for w in graph.neighbors(x)
                       if w != y and graph.degree(w) == delta)
            if have < need:
                return {"vertex": x, "other": y, "needed": need, "found": have}
        return None

    return _gate("vizing-adjacency", _ids(graph, f"e={u}-{v}"), {},
                 (host_class, _hole_colorable(graph, (u, v), hole_coloring)), violation)


def check_deficiency_pair(graph: Graph, pair: Edge,
                          hole_coloring: PartialEdgeColoring | SearchBudgetExceeded | None,
                          host_class: int | SearchBudgetExceeded
                          ) -> tuple[VerificationRecord, VerificationRecord]:
    """Both full-deficiency statements on one critical edge whose ends' degrees
    sum to max degree + 2.

    deficiency-pair-degrees: the degree structure around the pair.
    single-subdelta: with max degree at least 3(n-1)/4, at most one outside
    vertex sits one below it.
    """
    a, b = pair
    delta = graph.max_degree()
    iid = _ids(graph, f"pair={a},{b}")
    hyp = {"adjacent": graph.has_edge(a, b),
           "full_deficiency": graph.degree(a) + graph.degree(b) == delta + 2}
    critical = (host_class, _hole_colorable(graph, pair, hole_coloring))

    def degrees_violation():
        both_low = graph.degree(a) < delta and graph.degree(b) < delta
        # the pair is adjacent, so near holds a and b
        near = graph.neighbors(a) | graph.neighbors(b)
        for x in sorted(near - {a, b}):
            if graph.degree(x) != delta:
                return {"part": "neighbor-degree", "vertex": x, "degree": graph.degree(x)}
        two = {w for x in near for w in graph.neighbors(x)} - near
        # no "d(x) >= n - |near|" clause: x at distance >= 3 has x and its
        # neighbours outside near, so d(x) + 1 <= n - |near|
        for x in sorted(two):
            d = graph.degree(x)
            if d < delta - 1:
                return {"part": "distance-two", "vertex": x, "degree": d}
            if both_low and d != delta:
                return {"part": "distance-two-strong", "vertex": x, "degree": d}
        if graph.n % 2 == 1:
            low = [x for x in range(graph.n)
                   if x not in (a, b) and graph.degree(x) < delta]
            if len(low) == 1:
                return {"part": "odd-order-lonely-vertex", "vertex": low[0]}
        return None

    def subdelta_violation():
        nearly = [x for x in range(graph.n)
                  if x not in (a, b) and graph.degree(x) == delta - 1]
        return {"vertices": nearly} if len(nearly) > 1 else None

    return (_gate("deficiency-pair-degrees", iid, hyp, critical, degrees_violation),
            _gate("single-subdelta", iid,
                  {**hyp, "degree_bound": 4 * delta >= 3 * (graph.n - 1)},
                  critical, subdelta_violation))


# ---------------------------------------------------------------------------
# coloring statements; an anchored coloring is its own evidence of hole
# criticality, so only the host's class is handed over


def check_parity(coloring: PartialEdgeColoring) -> VerificationRecord:
    """In a full coloring, each color is missing at n-parity many vertices."""
    g = coloring.graph

    def violation():
        for c, count in parity_census(coloring).items():
            if count % 2 != g.n % 2:
                return {"color": c, "missing_at": count}
        return None

    return _gate("parity-census", _ids(g, f"k={coloring.k}"),
                 {"full_coloring": coloring.is_full()}, None, violation)


def check_multifan(coloring: PartialEdgeColoring, fan: tuple[int, ...],
                   host_class: int | SearchBudgetExceeded) -> VerificationRecord:
    """The multifan fan = (r, s_1, ..., s_p), whose (r, s_1) is the hole, is
    elementary and r is chain-linked to each leaf."""
    g = coloring.graph
    r, *leaves = fan
    hyp = {"valid_multifan": multifan_violation(coloring, fan) is None,
           "anchored_delta_coloring": _anchored(coloring, coloring.uncolored)}

    def violation():
        bad = elementary_violation(coloring, fan)
        if bad is not None:
            return {"part": "elementary", "u": bad[0], "v": bad[1], "color": bad[2]}
        for alpha in sorted(coloring.missing(r)):
            for s in leaves:
                for beta in sorted(coloring.missing(s)):
                    if beta != alpha and not are_linked(coloring, r, s, alpha, beta):
                        return {"part": "linked", "leaf": s, "alpha": alpha, "beta": beta}
        return None

    return _gate("multifan-elementary", _ids(g, f"fan={r}:{','.join(map(str, leaves))}"),
                 hyp, (host_class, True), violation)


def check_kierstead(coloring: PartialEdgeColoring, vs: tuple[int, ...],
                    host_class: int | SearchBudgetExceeded) -> VerificationRecord:
    """Four-vertex path: low inner degree forces elementarity; tail overlap is at most one."""
    g = coloring.graph
    hyp = {"valid_kierstead_path": kierstead_violation(coloring, vs) is None,
           "four_vertices": len(vs) == 4,
           "anchored_delta_coloring": _anchored(coloring, coloring.uncolored)}

    def violation():
        if min(g.degree(vs[1]), g.degree(vs[2])) < g.max_degree():
            bad = elementary_violation(coloring, vs)
            if bad is not None:
                return {"part": "elementary", "u": bad[0], "v": bad[1], "color": bad[2]}
        miss = coloring.missing_mask
        overlap = miss(vs[3]) & (miss(vs[0]) | miss(vs[1]))
        if overlap & (overlap - 1):
            return {"part": "tail-overlap",
                    "colors": [c for c in sorted(coloring.missing(vs[3])) if overlap >> c & 1]}
        return None

    return _gate("kierstead-path", _ids(g, "path=" + "-".join(map(str, vs))),
                 hyp, (host_class, True), violation)


# ---------------------------------------------------------------------------
# short-kite statements


def _kite_hypotheses(coloring: PartialEdgeColoring, kite: tuple[int, ...]
                     ) -> tuple[dict[str, bool], dict[str, bool], tuple[int, int, int, int]]:
    """The short-kite hypotheses, the case-one hypotheses that extend them,
    and the case-one (base, gamma, delta, eta) color labels.

    The normalized case-one state: rim1 misses exactly one color, which also
    sits on apex-rim2 and hub-tail2; both tails miss the same single color;
    the four named colors are distinct and all missing at the apex.
    """
    a, b, c, u, x, y = kite
    miss = coloring.missing_mask
    hyp = {"kite_in_graph": kite_violation(coloring.graph, kite) is None,
           "anchored_delta_coloring": _anchored(coloring, (a, b))}
    if all(hyp.values()):
        hyp["kierstead_through_rim1"] = kierstead_violation(coloring, (a, b, u, x)) is None
        hyp["kierstead_through_rim2"] = kierstead_violation(coloring, (b, a, c, u, y)) is None
        hyp["tail_missing_within_ends"] = (miss(x) | miss(y)) & ~(miss(a) | miss(b)) == 0
    kite_hyp = dict(hyp)
    if all(hyp.values()):
        mb, mx, my = miss(b), miss(x), miss(y)
        hyp["tails_share_one_missing"] = mx == my and mx.bit_count() == 1
        # a color c is the one color missing at rim1 when 1 << c == mb
        hyp["rim1_normalized"] = (1 << coloring.color_of(a, c) == mb
                                  == 1 << coloring.color_of(u, y))
    labels = (0, 0, 0, 0)
    if all(hyp.values()):
        labels = (mb.bit_length() - 1, coloring.color_of(u, x), coloring.color_of(b, u),
                  mx.bit_length() - 1)
        hyp["four_distinct_colors"] = len(set(labels)) == 4
        hyp["labels_missing_at_apex"] = all(miss(a) >> color & 1 for color in labels[1:])
    return kite_hyp, hyp, labels


def check_kite(coloring: PartialEdgeColoring, kite: tuple[int, ...],
               host_class: int | SearchBudgetExceeded
               ) -> tuple[VerificationRecord, VerificationRecord]:
    """Both short-kite statements on one kite (apex, rim1, rim2, hub, tail1,
    tail2) anchored at the hole (apex, rim1).

    short-kite-degree: under the twin-path hypotheses one kite tail must reach
    max degree. kite-chain-route: in the normalized shape, the two-color chain
    from tail2 crosses the hub-rim1 edge, hub first.
    """
    g = coloring.graph
    _, b, _, u, x, y = kite
    iid = _ids(g, "kite=" + ",".join(map(str, kite)))
    kite_hyp, route_hyp, (_, _, delt, eta) = _kite_hypotheses(coloring, kite)
    critical = (host_class, True)

    def tail_violation():
        dx, dy = g.degree(x), g.degree(y)
        if max(dx, dy) != g.max_degree():
            return {"tail_degrees": [dx, dy], "max_degree": g.max_degree()}
        return None

    def route_violation():
        # tail2 misses eta, so its chain is a path listed from it
        vs, edges, _ = kempe_chain(coloring, y, eta, delt)
        if edge_key(u, b) not in edges:
            return {"part": "edge-off-chain", "chain": list(vs)}
        if vs.index(u) > vs.index(b):
            return {"part": "order", "chain": list(vs)}
        return None

    return (_gate("short-kite-degree", iid, kite_hyp, critical, tail_violation),
            _gate("kite-chain-route", iid, route_hyp, critical, route_violation))


# ---------------------------------------------------------------------------
# whole-graph battery

# kites are checked ascending by role, hub first
_ROLE_ORDER = itemgetter(3, 1, 2, 0, 4, 5)


def lemma_records(graph: Graph, budget_ms: float | None = None) -> Iterator[VerificationRecord]:
    """Every checker on every structure of one host, each record yielded as
    soon as it is judged, in a deterministic order: the parity census, then
    each edge's records in edge order, then the deficiency-pair records, the
    only ones held until the end.

    The battery makes every search and hands the checkers their evidence.
    Each edge is searched once for a coloring of the host minus it; that
    coloring anchors the coloring-based checks and decides hole criticality
    for the degree-counting ones. Skipped records are kept, except those of
    kites: the kites checked at a hole are only those whose two rim paths are
    Kierstead paths of its coloring, each built from the Kierstead path that
    heads it (apex, rim1, hub, tail1), and their skipped records are dropped,
    so the flood of hypothesis-failing kite labelings on dense hosts never
    reaches the output. A search that runs out of budget leaves its claims
    undecided and is not retried: the class decision, made once for the
    host, every claim that needs the class and the parity census; a hole
    search, the degree-counting records of its edge, whose coloring-based
    checks then do not run.
    """
    delta = graph.max_degree()
    # the one max-degree search of the whole host decides its class, which
    # every checker is handed; on a class-1 host it is the census coloring
    # too, and on a class-2 host Vizing's construction builds that coloring
    try:
        full = find_delta_coloring(graph, budget_ms)
    except SearchBudgetExceeded as exc:
        host_class = exc
        yield VerificationRecord("parity-census", _ids(graph, "k=?"), {}, None)
    else:
        host_class = 1 if full is not None else 2
        yield check_parity(vizing_color(graph) if full is None else full)
    # the pair records come after every edge's records, in edge order
    pairs = set(find_full_deficiency_pairs(graph))
    pair_records = []
    for e in graph.sorted_edges():
        try:
            phi = find_coloring(graph, delta, hole=e, budget_ms=budget_ms)
        except SearchBudgetExceeded as exc:
            phi = exc
        yield check_vizing_adjacency(graph, *e, phi, host_class)
        if e in pairs:
            pair_records += check_deficiency_pair(graph, e, phi, host_class)
        if not isinstance(phi, PartialEdgeColoring):
            continue
        for center in e:
            yield check_multifan(phi, build_maximal_multifan(phi, center), host_class)
        paths = enumerate_kierstead_paths(phi)
        for path in paths:
            yield check_kierstead(phi, path, host_class)
        # each path heads the kites whose rim1 path it is; any other kite at
        # the hole fails a kierstead_through_rim hypothesis, so its records
        # would only be dropped
        kites = sorted((kite for path in paths
                        for kite in kites_with_head(graph, path, phi)),
                       key=_ROLE_ORDER)
        for kite in kites:
            for rec in check_kite(phi, kite, host_class):
                if rec.verdict != "skipped":
                    yield rec
    yield from pair_records

