"""Exact chromatic-index decisions plus a constructive max-degree+1 coloring.

The decision search is exhaustive backtracking over a static edge order
(decreasing endpoint degree sum). Candidate colors are bitmask intersections
of endpoint availability. A color class is a matching of at most floor(n/2)
edges, which refutes overfull hosts at the root; inside the search,
properness alone keeps each class within that cap, because a class of
floor(n/2) edges leaves no two vertices that both miss its color. Color
symmetry is always broken: the first edge takes color 1 and each step opens
at most one fresh color, so the search meets one coloring per renaming of
the colors.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

from .coloring import MutableColoring, PartialEdgeColoring, propagate_certificates
from .graphs import Edge, Graph, GraphError, edge_key


class SearchBudgetExceeded(Exception):
    """The time budget ran out before the search reached a verdict."""


def check_budget(budget_ms: float | None) -> float | None:
    """The one budget rule, returning the budget it accepts: None for no
    budget, else finite and above 0 ms (a NaN deadline never fires)."""
    if budget_ms is not None and not 0 < budget_ms < math.inf:
        raise GraphError(f"budget_ms must be finite and above 0, not {budget_ms}")
    return budget_ms


@lru_cache(maxsize=1)
def _search_plan(graph: Graph) -> tuple[list[Edge], list[list[Edge]]]:
    """The static edge order (decreasing endpoint degree sum) and, for each
    edge, the later edges that share an end with it. One plan serves every
    search of the host, which only reads it; a hole search leaves the hole
    out of both."""
    edges = sorted(graph.edges, key=lambda e: (-(graph.degree(e[0]) + graph.degree(e[1])), e))
    return edges, [[f for f in edges[i + 1:] if f[0] in e or f[1] in e]
                   for i, e in enumerate(edges)]


def _solve(graph: Graph, k: int, hole: Edge | None, budget: float | None):
    """Yield full assignments (edge -> color) extending the hole, one per color renaming.

    One iterative depth-first search: depth i keeps edge i's untried
    candidate colors in `cands[i]` and the color it holds in `chosen[i]`,
    which backing up into depth i frees again. `budget` is the time budget in
    ms (None for none); its deadline is checked every 512 nodes.
    """
    check_budget(budget)
    if hole is not None and hole not in graph.edges:
        raise GraphError(f"hole edge {hole} not in graph")
    m = len(graph.edges) - (hole is not None)
    cap = graph.n // 2
    if k * cap < m:
        return
    if graph.max_degree() > k and any(graph.degree(v) - (hole is not None and v in hole) > k
                                     for v in range(graph.n)):
        return
    edges, incident_later = _search_plan(graph)
    if hole is not None:
        h = edges.index(hole)
        edges = edges[:h] + edges[h + 1:]
        incident_later = ([[f for f in fs if f != hole] for fs in incident_later[:h]]
                          + incident_later[h + 1:])
    if m == 0:
        yield {}
        return
    deadline = None if budget is None else time.monotonic() + budget / 1000.0
    avail = [(1 << (k + 1)) - 2] * graph.n
    chosen = [0] * m
    cands = [0] * m
    # top[i] is the highest color on edges 0..i-1: edge i may open at most
    # one fresh color, so the first edge takes color 1
    top = [0] * m
    cand = 2
    u, v = edges[0]
    i = nodes = 0
    while True:
        while cand:
            low = cand & -cand
            cand ^= low
            avail[u] ^= low
            avail[v] ^= low
            for a, b in incident_later[i]:
                if not avail[a] & avail[b]:
                    break
            else:
                break  # every later edge at u or v keeps a color: take low
            avail[u] |= low
            avail[v] |= low
        else:
            # depth i is exhausted: back up one depth and free its color
            i -= 1
            if i < 0:
                return
            u, v = edges[i]
            low = 1 << chosen[i]
            avail[u] |= low
            avail[v] |= low
            cand = cands[i]
            continue
        nodes += 1
        if not nodes & 511 and deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetExceeded("time budget exceeded")
        chosen[i] = c = low.bit_length() - 1
        if i + 1 == m:
            yield dict(zip(edges, chosen))
            avail[u] |= low
            avail[v] |= low
            continue
        cands[i] = cand
        t = top[i + 1] = max(top[i], c)
        i += 1
        u, v = edges[i]
        cand = avail[u] & avail[v] & ((2 << min(k, t + 1)) - 1)


def find_coloring(graph: Graph, k: int, hole: Edge | None = None,
                  budget_ms: float | None = None) -> PartialEdgeColoring | None:
    """A proper k-coloring of the host minus the hole edge, or None if none exists."""
    return next(enumerate_colorings(graph, k, hole, budget_ms), None)


def enumerate_colorings(graph: Graph, k: int, hole: Edge | None = None,
                        budget_ms: float | None = None):
    """One proper k-coloring of the host minus the hole per renaming of the
    colors, deterministic order: the member in which colors first appear in
    increasing order along the search's edge order."""
    hole = edge_key(*hole) if hole is not None else None
    for assign in _solve(graph, k, hole, budget_ms):
        yield PartialEdgeColoring(graph, k, assign, hole)


def find_delta_coloring(graph: Graph, budget_ms: float | None = None) -> PartialEdgeColoring | None:
    """A proper coloring with exactly max-degree colors, or None."""
    return find_coloring(graph, graph.max_degree(), budget_ms=budget_ms)


def chromatic_index(graph: Graph, budget_ms: float | None = None) -> int:
    delta = graph.max_degree()
    return delta if find_delta_coloring(graph, budget_ms) is not None else delta + 1


def critical_edge_report(graph: Graph, budget_ms: float | None = None) -> tuple[bool, list[Edge]]:
    """(is the graph edge-critical, list of its critical edges).

    An edge is critical when deleting it lowers the chromatic index.
    Edge-critical means connected, class 2, and every edge critical.
    """
    if find_delta_coloring(graph, budget_ms) is None:
        # class 2: an edge is critical iff the rest is max-degree-colorable
        crit = [e for e, cert in hole_colorings(graph, budget_ms=budget_ms) if cert is not None]
        return graph.is_connected() and len(crit) == graph.edge_count(), crit
    # class 1: G - e keeps max degree delta, and so chromatic index delta,
    # unless e covers every max-degree vertex; then it drops iff G - e is
    # (delta - 1)-colorable
    delta = graph.max_degree()
    tops = {v for v in range(graph.n) if graph.degree(v) == delta}
    crit = [e for e in graph.sorted_edges() if tops <= set(e)
            and find_coloring(graph, delta - 1, hole=e, budget_ms=budget_ms) is not None]
    return False, crit


def hole_colorings(graph: Graph, seed: PartialEdgeColoring | None = None,
                   budget_ms: float | None = None):
    """Yield (edge, max-degree coloring of the graph minus that edge, or None).

    Edges come in sorted order. Colorings are propagated from the seed, a
    coloring with one uncolored edge, and again from every coloring the
    solver has to find for an edge that no propagation reached; None means
    the search proved that edge has no such coloring. Its callers meet the
    budget rule before it runs: a split check when its `SplitInstance` is
    built, `critical_edge_report` in its class decision.
    """
    delta = graph.max_degree()
    certified = propagate_certificates(seed) if seed is not None else {}
    for e in graph.sorted_edges():
        if e not in certified:
            found = find_coloring(graph, delta, hole=e, budget_ms=budget_ms)
            if found is not None:
                certified.update(propagate_certificates(found))
        yield e, certified.get(e)


# ---------------------------------------------------------------------------
# constructive coloring with one spare color


def vizing_color(graph: Graph) -> PartialEdgeColoring:
    """A proper edge coloring using at most max-degree+1 colors.

    Edges are inserted one at a time. Each insertion builds a maximal fan at
    one endpoint; either some fan vertex shares a missing color with the
    center (rotate and color), or a two-color path inversion frees the fan
    tail's color at the center, after which a valid fan prefix is rotated.
    """
    k = graph.max_degree() + 1
    core = MutableColoring(graph.n, k)
    slot, missing = core.slot, core.missing

    def insert(u, v0):
        fan = [v0]
        in_fan = {v0}
        mu = missing(u)
        while True:
            last = fan[-1]
            ml = missing(last)
            common = mu & ml
            if common:
                rotate(u, fan, len(fan) - 1)
                c = (common & -common).bit_length() - 1
                core.set(u, fan[-1], c)
                return
            ext = None
            rest = ml
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                w = slot[u].get(c)
                if w is not None and w not in in_fan:
                    ext = w
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)
        c = (mu & -mu).bit_length() - 1
        md = missing(fan[-1])
        d = (md & -md).bit_length() - 1
        core.flip(u, d, c)
        # d is now missing at u; find a fan prefix that still accepts it
        target = 1 << d
        for i, t in enumerate(fan):
            if i > 0:
                fc = core.col[edge_key(u, fan[i])]
                if not missing(fan[i - 1]) & (1 << fc):
                    break
            if missing(t) & target:
                rotate(u, fan, i)
                core.set(u, fan[i], d)
                return
        raise AssertionError("fan recoloring failed to land a color")

    def rotate(u, fan, upto):
        for j in range(1, upto + 1):
            core.set(u, fan[j - 1], core.clear(u, fan[j]))

    for u, v in sorted(graph.edges):
        insert(u, v)
    return PartialEdgeColoring(graph, k, core.col)
