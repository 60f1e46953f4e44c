"""Exhaustive small-graph enumeration with exact isomorphism rejection."""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import (
    Graph,
    GraphError,
    canonical_mask,
    graph_from_mask,
    make_graph,
)

_ENUM_LIMIT = 8


def _labeled_regular(m: int, d: int):
    """All d-regular labeled graphs on m vertices with N(0) = {1..d}.

    Every isomorphism class has a labeling of this shape, so canonical
    deduplication of this stream covers all classes.
    """
    need = [d] * m
    adj = [set() for _ in range(m)]

    def connect(u, v):
        adj[u].add(v)
        adj[v].add(u)
        need[u] -= 1
        need[v] -= 1

    def disconnect(u, v):
        adj[u].remove(v)
        adj[v].remove(u)
        need[u] += 1
        need[v] += 1

    for w in range(1, d + 1):
        connect(0, w)

    def rec(v):
        if v == m:
            if all(x == 0 for x in need):
                yield make_graph(m, {(u, w) for u in range(m) for w in adj[u] if u < w})
            return
        if need[v] == 0:
            yield from rec(v + 1)
            return
        candidates = [w for w in range(v + 1, m) if need[w] > 0]
        if len(candidates) < need[v]:
            return
        for chosen in itertools.combinations(candidates, need[v]):
            for w in chosen:
                connect(v, w)
            yield from rec(v + 1)
            for w in chosen:
                disconnect(v, w)

    yield from rec(1)


@lru_cache(maxsize=None)
def enumerate_regular_graphs(m: int, d: int) -> tuple[Graph, ...]:
    """Every d-regular simple graph on m vertices, one canonical representative
    per isomorphism class, in increasing canonical-mask order.

    Above order 8 the labeled stream grows too fast for the general degrees,
    so only d = m-1 and d = m-2 are accepted there; their class is unique (the
    complement is empty or a perfect matching) and the stream is short.
    """
    if m < 1:
        raise GraphError(f"order must be positive, got {m}")
    if not 0 <= d < m:
        raise GraphError(f"degree {d} out of range for order {m}")
    if (m * d) % 2:
        raise GraphError(f"parity violation: m*d = {m * d} is odd")
    if m > _ENUM_LIMIT and d < m - 2:
        raise GraphError(f"enumeration above order {_ENUM_LIMIT} supports only degrees m-1 and m-2")
    seen = set()
    for g in _labeled_regular(m, d):
        seen.add(canonical_mask(g))
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
