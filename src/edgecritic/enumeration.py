"""Exhaustive small-graph enumeration with exact isomorphism rejection."""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    Graph,
    GraphError,
    canonical_mask,
    graph_from_mask,
    make_graph,
)


@lru_cache(maxsize=None)
def enumerate_regular_graphs(m: int, d: int) -> tuple[Graph, ...]:
    """Every d-regular simple graph on m vertices, one canonical representative
    per isomorphism class, in increasing canonical-mask order.

    Double-edge switches (ab, cd -> ac, bd) connect all labelled d-regular
    graphs on m vertices (Taylor, "Constrained switchings in graphs", 1981),
    and a switch of a relabelled graph is a relabelled switch, so one
    breadth-first search over canonical masks, started from a circulant,
    reaches every class. Above degree (m-1)/2 the classes are the
    complements of those of degree m-1-d.
    """
    if m < 1:
        raise GraphError(f"order must be positive, got {m}")
    if not 0 <= d < m:
        raise GraphError(f"degree {d} out of range for order {m}")
    if (m * d) % 2:
        raise GraphError(f"parity violation: m*d = {m * d} is odd")
    if 2 * d > m - 1:
        full = (1 << m * (m - 1) // 2) - 1
        seen = {canonical_mask(graph_from_mask(m, full ^ g.triangle_mask()))
                for g in enumerate_regular_graphs(m, m - 1 - d)}
        return tuple(graph_from_mask(m, mask) for mask in sorted(seen))
    # i ~ i +- 1..d//2, plus the antipode when d is odd
    offsets = [*range(1, d // 2 + 1), *([m // 2] if d % 2 else [])]
    seen = {canonical_mask(make_graph(m, [(i, (i + k) % m) for i in range(m) for k in offsets]))}
    frontier = list(seen)
    for mask in frontier:
        g = graph_from_mask(m, mask)
        edges = g.sorted_edges()
        for i, (a, b) in enumerate(edges):
            for c, e in edges[i + 1:]:
                if len({a, b, c, e}) < 4:
                    continue
                for f, h in (((a, c), (b, e)), ((a, e), (b, c))):
                    if not (g.has_edge(*f) or g.has_edge(*h)):
                        key = canonical_mask(make_graph(m, g.edges - {(a, b), (c, e)} | {f, h}))
                        if key not in seen:
                            seen.add(key)
                            frontier.append(key)
    return tuple(graph_from_mask(m, mask) for mask in sorted(seen))


def enumerate_small_graphs(max_edges: int, max_support: int = 7) -> list[Graph]:
    """Every isomorphism class with 1..max_edges edges, no isolated vertices,
    and at most max_support vertices. Deterministic order."""
    seed = make_graph(2, [(0, 1)])
    seen = {(2, seed.triangle_mask())}
    frontier = [seed]
    out = [seed]
    for _ in range(1, max_edges):
        nxt = []
        for g in frontier:
            for child in _one_more_edge(g, max_support):
                key = (child.n, canonical_mask(child))
                if key not in seen:
                    seen.add(key)
                    canon = graph_from_mask(*key)
                    nxt.append(canon)
                    out.append(canon)
        frontier = nxt
    out.sort(key=lambda g: (g.edge_count(), g.n, g.triangle_mask()))
    return out


def _one_more_edge(g: Graph, max_support: int):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                yield make_graph(g.n, g.edges | {(u, v)})
    if g.n + 1 <= max_support:
        for v in range(g.n):
            yield make_graph(g.n + 1, g.edges | {(v, g.n)})
    if g.n + 2 <= max_support:
        yield make_graph(g.n + 2, g.edges | {(g.n, g.n + 1)})
