"""Adjacency-lemma oracles.

Each checker evaluates one published statement on one concrete instance and
returns a VerificationRecord. Hypotheses are recorded as named booleans and
never assumed: a false hypothesis skips the instance instead of asserting
anything, and a solver-budget exhaustion leaves the conclusion undecided.
"""

from __future__ import annotations

from functools import lru_cache

from .coloring import (
    ColoringError,
    PartialEdgeColoring,
    are_linked,
    elementary_violation,
    kempe_chain,
    parity_census,
)
from .graph6 import emit_graph6
from .graphs import Graph, distance, edge_key
from .recolor import (
    ColorEdge,
    RecolorEdge,
    SlideUncolored,
    Step,
    SwapRay,
    SwapSubchain,
)
from .records import VerificationRecord
from .solver import SearchBudgetExceeded, classify_cached, find_coloring
from .structures import (
    FullDeficiencyPair,
    KiersteadPath,
    Multifan,
    ShortKite,
    kierstead_violation,
    kite_violation,
    multifan_violation,
)


@lru_cache(maxsize=1)
def _host_graph6(graph: Graph) -> str:
    """The host's graph6, emitted once for all the records of one host."""
    return emit_graph6(graph)


def _ids(graph: Graph, tag: str) -> str:
    return f"{_host_graph6(graph)} {tag}"


def _critical_hypotheses(graph: Graph, hole, budget_ms, colorable) -> dict[str, bool]:
    """class-2 and hole-criticality hypotheses shared by the adjacency lemmas.

    `colorable`, unless None, says for every edge whether the host minus that
    edge has a max-degree coloring, so no search repeats.
    """
    hyp = {"class2": classify_cached(graph, budget_ms) == 2}
    if hyp["class2"] and colorable is not None:
        hyp["critical_edge"] = colorable[hole]
    elif hyp["class2"]:
        hyp["critical_edge"] = find_coloring(
            graph, graph.max_degree(), hole=hole, budget_ms=budget_ms) is not None
    else:
        hyp["critical_edge"] = False
    return hyp


def _anchored(coloring: PartialEdgeColoring, hole) -> bool:
    return (coloring.k == coloring.graph.max_degree()
            and coloring.uncolored == edge_key(*hole))


def _witnessed_hypotheses(graph: Graph, budget_ms) -> dict[str, bool]:
    """An anchored coloring already certifies hole criticality; only the
    class decision still needs the solver."""
    hyp = {"class2": classify_cached(graph, budget_ms) == 2}
    hyp["critical_edge"] = hyp["class2"]
    return hyp


# ---------------------------------------------------------------------------
# degree-counting statements


def check_vizing_adjacency(graph: Graph, u: int, v: int,
                           budget_ms: float | None = None) -> VerificationRecord:
    """A critical edge forces many max-degree neighbors at both endpoints."""
    return _vizing_adjacency(graph, u, v, budget_ms, None)


def _vizing_adjacency(graph, u, v, budget_ms, colorable) -> VerificationRecord:
    name = "vizing-adjacency"
    iid = _ids(graph, f"e={u}-{v}")
    delta = graph.max_degree()
    try:
        hyp = _critical_hypotheses(graph, (u, v), budget_ms, colorable)
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, {}, None)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    witness = None
    ok = True
    for x, y in ((u, v), (v, u)):
        need = delta - graph.degree(y) + 1
        have = sum(1 for w in graph.neighbors(x)
                   if w != y and graph.degree(w) == delta)
        if have < need:
            ok = False
            witness = {"vertex": x, "other": y, "needed": need, "found": have}
            break
    return VerificationRecord(name, iid, hyp, ok, witness)


def check_deficiency_pair(graph: Graph, pair: FullDeficiencyPair,
                          budget_ms: float | None = None) -> VerificationRecord:
    """Degree structure around a critical edge whose ends have full deficiency."""
    return _deficiency_pair(graph, pair, budget_ms, None)


def _deficiency_pair(graph, pair, budget_ms, colorable) -> VerificationRecord:
    name = "deficiency-pair-degrees"
    a, b = pair.u, pair.v
    iid = _ids(graph, f"pair={a},{b}")
    delta = graph.max_degree()
    hyp = {"adjacent": graph.has_edge(a, b),
           "full_deficiency": graph.degree(a) + graph.degree(b) == delta + 2}
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    try:
        hyp.update(_critical_hypotheses(graph, (a, b), budget_ms, colorable))
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, hyp, None)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)

    both_low = graph.degree(a) < delta and graph.degree(b) < delta
    ring = (graph.neighbors(a) | graph.neighbors(b)) - {a, b}
    for x in sorted(ring):
        if graph.degree(x) != delta:
            return VerificationRecord(name, iid, hyp, False,
                                      {"part": "neighbor-degree", "vertex": x,
                                       "degree": graph.degree(x)})
    floor = graph.n - len(graph.neighbors(a) | graph.neighbors(b))
    for x in range(graph.n):
        if x in (a, b):
            continue
        d = graph.degree(x)
        at_two = distance(graph, x, {a, b}) == 2
        big = d >= floor
        if at_two or big:
            part = "distance-two" if at_two else "large-degree"
            if d < delta - 1:
                return VerificationRecord(name, iid, hyp, False,
                                          {"part": part, "vertex": x, "degree": d})
            if both_low and d != delta:
                return VerificationRecord(name, iid, hyp, False,
                                          {"part": part + "-strong", "vertex": x,
                                           "degree": d})
    if graph.n % 2 == 1:
        low = [x for x in range(graph.n)
               if x not in (a, b) and graph.degree(x) < delta]
        if len(low) == 1:
            return VerificationRecord(name, iid, hyp, False,
                                      {"part": "odd-order-lonely-vertex",
                                       "vertex": low[0]})
    return VerificationRecord(name, iid, hyp, True)


def check_single_subdelta(graph: Graph, pair: FullDeficiencyPair,
                          budget_ms: float | None = None) -> VerificationRecord:
    """With max degree at least 3(n-1)/4, at most one outside vertex sits one below it."""
    return _single_subdelta(graph, pair, budget_ms, None)


def _single_subdelta(graph, pair, budget_ms, colorable) -> VerificationRecord:
    name = "single-subdelta"
    a, b = pair.u, pair.v
    iid = _ids(graph, f"pair={a},{b}")
    delta = graph.max_degree()
    hyp = {"adjacent": graph.has_edge(a, b),
           "full_deficiency": graph.degree(a) + graph.degree(b) == delta + 2,
           "degree_bound": 4 * delta >= 3 * (graph.n - 1)}
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    try:
        hyp.update(_critical_hypotheses(graph, (a, b), budget_ms, colorable))
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, hyp, None)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    nearly = [x for x in range(graph.n)
              if x not in (a, b) and graph.degree(x) == delta - 1]
    if len(nearly) > 1:
        return VerificationRecord(name, iid, hyp, False, {"vertices": nearly})
    return VerificationRecord(name, iid, hyp, True)


# ---------------------------------------------------------------------------
# coloring statements


def check_parity(coloring: PartialEdgeColoring) -> VerificationRecord:
    """In a full coloring, each color is missing at n-parity many vertices."""
    name = "parity-census"
    g = coloring.graph
    iid = _ids(g, f"k={coloring.k}")
    hyp = {"full_coloring": coloring.is_full()}
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    for c, count in parity_census(coloring).items():
        if count % 2 != g.n % 2:
            return VerificationRecord(name, iid, hyp, False,
                                      {"color": c, "missing_at": count})
    return VerificationRecord(name, iid, hyp, True)


def check_multifan(coloring: PartialEdgeColoring, fan: Multifan,
                   budget_ms: float | None = None) -> VerificationRecord:
    """Multifan vertices are elementary and center/leaf pairs are chain-linked."""
    name = "multifan-elementary"
    g = coloring.graph
    r = fan.center
    iid = _ids(g, f"fan={r}:{','.join(map(str, fan.leaves))}")
    hyp = {"valid_multifan": multifan_violation(coloring, fan) is None,
           "anchored_delta_coloring": (coloring.uncolored is not None
                                       and _anchored(coloring, coloring.uncolored))}
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    try:
        hyp.update(_witnessed_hypotheses(g, budget_ms))
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, hyp, None)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    bad = elementary_violation(coloring, fan.vertex_set())
    if bad is not None:
        return VerificationRecord(name, iid, hyp, False,
                                  {"part": "elementary", "u": bad[0], "v": bad[1],
                                   "color": bad[2]})
    for alpha in sorted(coloring.missing(r)):
        for s in fan.leaves:
            for beta in sorted(coloring.missing(s)):
                if beta == alpha:
                    continue
                if not are_linked(coloring, r, s, alpha, beta):
                    return VerificationRecord(
                        name, iid, hyp, False,
                        {"part": "linked", "leaf": s, "alpha": alpha, "beta": beta})
    return VerificationRecord(name, iid, hyp, True)


def check_kierstead(coloring: PartialEdgeColoring, path: KiersteadPath,
                    budget_ms: float | None = None) -> VerificationRecord:
    """Four-vertex path: low inner degree forces elementarity; tail overlap is at most one."""
    name = "kierstead-path"
    g = coloring.graph
    vs = path.vertices
    iid = _ids(g, "path=" + "-".join(map(str, vs)))
    hyp = {"valid_kierstead_path": kierstead_violation(coloring, path) is None,
           "four_vertices": len(vs) == 4,
           "anchored_delta_coloring": (coloring.uncolored is not None
                                       and _anchored(coloring, coloring.uncolored))}
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    try:
        hyp.update(_witnessed_hypotheses(g, budget_ms))
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, hyp, None)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    delta = g.max_degree()
    if min(g.degree(vs[1]), g.degree(vs[2])) < delta:
        bad = elementary_violation(coloring, vs)
        if bad is not None:
            return VerificationRecord(name, iid, hyp, False,
                                      {"part": "elementary", "u": bad[0],
                                       "v": bad[1], "color": bad[2]})
    overlap = coloring.missing(vs[3]) & (coloring.missing(vs[0]) | coloring.missing(vs[1]))
    if len(overlap) > 1:
        return VerificationRecord(name, iid, hyp, False,
                                  {"part": "tail-overlap",
                                   "colors": sorted(overlap)})
    return VerificationRecord(name, iid, hyp, True)


# ---------------------------------------------------------------------------
# short-kite statements


def _kite_hypotheses(coloring: PartialEdgeColoring, kite: ShortKite) -> dict[str, bool]:
    g = coloring.graph
    a, b, c = kite.apex, kite.rim1, kite.rim2
    u, x, y = kite.hub, kite.tail1, kite.tail2
    hyp = {"kite_in_graph": kite_violation(g, kite) is None,
           "anchored_delta_coloring": _anchored(coloring, (a, b))}
    if not all(hyp.values()):
        return hyp
    hyp["kierstead_through_rim1"] = kierstead_violation(
        coloring, KiersteadPath((a, b, u, x))) is None
    hyp["kierstead_through_rim2"] = kierstead_violation(
        coloring, KiersteadPath((b, a, c, u, y))) is None
    tails = coloring.missing_mask(x) | coloring.missing_mask(y)
    ends = coloring.missing_mask(a) | coloring.missing_mask(b)
    hyp["tail_missing_within_ends"] = tails & ~ends == 0
    return hyp


def check_short_kite(coloring: PartialEdgeColoring, kite: ShortKite,
                     budget_ms: float | None = None) -> VerificationRecord:
    """Under the twin-path hypotheses one kite tail must reach max degree."""
    return _short_kite(coloring, kite, budget_ms, _kite_hypotheses(coloring, kite))


def _short_kite(coloring, kite, budget_ms, kite_hyp) -> VerificationRecord:
    name = "short-kite-degree"
    g = coloring.graph
    iid = _ids(g, "kite=" + ",".join(map(str, kite.vertex_set())))
    hyp = dict(kite_hyp)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    try:
        hyp.update(_witnessed_hypotheses(g, budget_ms))
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, hyp, None)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    delta = g.max_degree()
    dx, dy = g.degree(kite.tail1), g.degree(kite.tail2)
    if max(dx, dy) != delta:
        return VerificationRecord(name, iid, hyp, False,
                                  {"tail_degrees": [dx, dy], "max_degree": delta})
    return VerificationRecord(name, iid, hyp, True)


def _case_one_labels(coloring: PartialEdgeColoring, kite: ShortKite, kite_hyp: dict[str, bool]
                     ) -> tuple[dict[str, bool], tuple[int, int, int, int]]:
    """Hypothesis booleans and the (base, gamma, delta, eta) color labels.

    `kite_hyp` is `_kite_hypotheses(coloring, kite)`; the result extends a copy.

    The normalized state: rim1 misses exactly one color, which also sits on
    apex-rim2 and hub-tail2; both tails miss the same single color; the four
    named colors are distinct and all missing at the apex.
    """
    a, b, c = kite.apex, kite.rim1, kite.rim2
    u, x, y = kite.hub, kite.tail1, kite.tail2
    hyp = dict(kite_hyp)
    if not all(hyp.values()):
        return hyp, (0, 0, 0, 0)
    mb = sorted(coloring.missing(b))
    mx = sorted(coloring.missing(x))
    my = sorted(coloring.missing(y))
    hyp["tails_share_one_missing"] = mx == my and len(mx) == 1
    hyp["rim1_normalized"] = (len(mb) == 1
                              and coloring.color_of(a, c) == mb[0]
                              and coloring.color_of(u, y) == mb[0])
    if not all(hyp.values()):
        return hyp, (0, 0, 0, 0)
    base = mb[0]
    gamma = coloring.color_of(u, x)
    delt = coloring.color_of(b, u)
    eta = mx[0]
    labels = (base, gamma, delt, eta)
    hyp["four_distinct_colors"] = len(set(labels)) == 4
    hyp["labels_missing_at_apex"] = {gamma, delt, eta} <= coloring.missing(a)
    return hyp, labels


def check_kite_chain_route(coloring: PartialEdgeColoring, kite: ShortKite,
                           budget_ms: float | None = None) -> VerificationRecord:
    """The two-color chain from tail2 crosses the hub-rim1 edge, hub first."""
    return _kite_chain_route(coloring, kite, budget_ms, _kite_hypotheses(coloring, kite))


def _kite_chain_route(coloring, kite, budget_ms, kite_hyp) -> VerificationRecord:
    name = "kite-chain-route"
    g = coloring.graph
    iid = _ids(g, "kite=" + ",".join(map(str, kite.vertex_set())))
    hyp, labels = _case_one_labels(coloring, kite, kite_hyp)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    try:
        hyp.update(_witnessed_hypotheses(g, budget_ms))
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, hyp, None)
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    _, _, delt, eta = labels
    u, b, y = kite.hub, kite.rim1, kite.tail2
    chain = kempe_chain(coloring, y, eta, delt)
    vs = chain.vertices
    if chain.is_cycle or vs[0] != y:
        return VerificationRecord(name, iid, hyp, False,
                                  {"part": "chain-shape", "is_cycle": chain.is_cycle})
    if edge_key(u, b) not in chain.edges:
        return VerificationRecord(name, iid, hyp, False,
                                  {"part": "edge-off-chain",
                                   "chain": list(vs)})
    if vs.index(u) > vs.index(b):
        return VerificationRecord(name, iid, hyp, False,
                                  {"part": "order", "chain": list(vs)})
    return VerificationRecord(name, iid, hyp, True)


def build_contradiction_script(coloring: PartialEdgeColoring,
                               kite: ShortKite) -> list[Step]:
    """The five-step rewrite that would finish a full coloring of the host.

    On a genuinely class-2 host the executor must reject it partway; reaching
    the end would certify the host class 1 and refute the input assumption.
    """
    hyp, labels = _case_one_labels(coloring, kite, _kite_hypotheses(coloring, kite))
    bad = [k for k, v in hyp.items() if not v]
    if bad:
        raise ColoringError(f"instance not in normalized shape: {', '.join(bad)}")
    base, gamma, delt, eta = labels
    a, b = kite.apex, kite.rim1
    u, x, y = kite.hub, kite.tail1, kite.tail2
    return [
        RecolorEdge(edge_key(u, x), gamma, eta),
        SwapSubchain(u, y, eta, delt),
        RecolorEdge(edge_key(u, b), delt, base),
        SwapRay(u, y, base, gamma),
        ColorEdge(edge_key(a, b), delt),
    ]


def swap_rims_script(coloring: PartialEdgeColoring,
                     kite: ShortKite) -> tuple[list[Step], ShortKite]:
    """Move the hole from apex-rim1 to apex-rim2 and exchange the rim roles."""
    a, b, c = kite.apex, kite.rim1, kite.rim2
    if coloring.uncolored != edge_key(a, b):
        raise ColoringError(f"hole is {coloring.uncolored}, not ({a}, {b})")
    steps: list[Step] = [SlideUncolored(edge_key(a, c))]
    relabeled = ShortKite(apex=a, rim1=c, rim2=b, hub=kite.hub,
                          tail1=kite.tail1, tail2=kite.tail2)
    return steps, relabeled


# ---------------------------------------------------------------------------
# whole-graph battery


def lemma_battery(graph: Graph, budget_ms: float | None = None) -> list[VerificationRecord]:
    """Every checker on every structure of one host, deterministic order.

    Each edge is searched once for a coloring of the host minus it; that
    coloring anchors the coloring-based checks and decides hole criticality
    for the degree-counting ones. Skipped records are kept, except those of
    kites: a kite anchored at the hole is checked only when every kite
    hypothesis holds, so the flood of hypothesis-failing kite labelings on
    dense hosts is never checked at all.
    """
    from .structures import (
        build_maximal_multifan,
        enumerate_kierstead_paths,
        find_full_deficiency_pairs,
        find_short_kites,
    )

    records = []
    delta = graph.max_degree()
    # the cached class decision is the one max-degree search; the checkers reuse it
    k = delta + 1 if graph.edges and classify_cached(graph, budget_ms) == 2 else delta
    full = find_coloring(graph, k, budget_ms=budget_ms)
    if full is not None:
        records.append(check_parity(full))
    anchored_kites: dict = {}
    for kite in find_short_kites(graph):
        anchored_kites.setdefault(edge_key(kite.apex, kite.rim1), []).append(kite)
    colorable = {}
    for e in graph.sorted_edges():
        phi = find_coloring(graph, delta, hole=e, budget_ms=budget_ms)
        colorable[e] = phi is not None
        records.append(_vizing_adjacency(graph, *e, budget_ms, colorable))
        if phi is None:
            continue
        for center in e:
            fan = build_maximal_multifan(phi, center)
            records.append(check_multifan(phi, fan, budget_ms=budget_ms))
        paths = enumerate_kierstead_paths(phi)
        for path in paths:
            records.append(check_kierstead(phi, path, budget_ms=budget_ms))
        # phi is proper, so a kite's head is one of these paths exactly when
        # its kierstead_through_rim1 hypothesis holds
        heads = {path.vertices for path in paths}
        for kite in anchored_kites.get(e, ()):
            if (kite.apex, kite.rim1, kite.hub, kite.tail1) not in heads:
                continue
            kite_hyp = _kite_hypotheses(phi, kite)
            if not all(kite_hyp.values()):
                continue
            for rec in (_short_kite(phi, kite, budget_ms, kite_hyp),
                        _kite_chain_route(phi, kite, budget_ms, kite_hyp)):
                if rec.verdict != "skipped":
                    records.append(rec)
    for pair in find_full_deficiency_pairs(graph):
        records.append(_deficiency_pair(graph, pair, budget_ms, colorable))
        records.append(_single_subdelta(graph, pair, budget_ms, colorable))
    return records
