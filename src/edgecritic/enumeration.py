"""Exhaustive regular-graph enumeration with exact isomorphism rejection."""

from __future__ import annotations

import itertools

from .graphs import (
    Edge,
    Graph,
    GraphError,
    automorphism_generators,
    canonical_mask,
    edge_key,
    graph_from_mask,
    make_graph,
    orbit_closure,
)


def enumerate_regular_graphs(m: int, d: int) -> tuple[Graph, ...]:
    """Every d-regular simple graph on m vertices, one canonical representative
    per isomorphism class, in increasing canonical-mask order.

    Double-edge switches (ab, cd -> ac, bd) connect all labelled d-regular
    graphs on m vertices (Taylor, "Constrained switchings in graphs", 1981),
    and a switch of a relabelled graph is a relabelled switch, so one
    breadth-first search over canonical masks, started from a circulant,
    reaches every class. An automorphism of g maps each switch s of g to a
    switch of g whose graph is the relabelled graph of s, with the same
    canonical mask, so one switch per Aut(g)-orbit is canonicalised.
    """
    if m < 1:
        raise GraphError(f"order must be positive, got {m}")
    if not 0 <= d < m:
        raise GraphError(f"degree {d} out of range for order {m}")
    if (m * d) % 2:
        raise GraphError(f"parity violation: m*d = {m * d} is odd")
    # i ~ i +- 1..d//2, plus the antipode when d is odd
    offsets = [*range(1, d // 2 + 1), *([m // 2] if d % 2 else [])]
    seen = {canonical_mask(make_graph(m, [(i, (i + k) % m) for i in range(m) for k in offsets]))}
    frontier = list(seen)
    pairs = list(itertools.combinations(range(m), 2))
    for mask in frontier:
        g = graph_from_mask(m, mask)
        # each generator as a map of vertex pairs, so relabelling a switch is four lookups
        relabel = [{(u, v): edge_key(p[u], p[v]) for u, v in pairs}.__getitem__
                   for p in automorphism_generators(g)]
        done: set[frozenset[Edge]] = set()
        for switch in _switches(g):
            if switch not in done:
                orbit_closure(switch, relabel, _image, done)
                key = canonical_mask(make_graph(m, g.edges ^ switch))
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
    return tuple(graph_from_mask(m, mask) for mask in sorted(seen))


def _switches(g: Graph):
    """Every double-edge switch of g, as the set of the four edges it toggles:
    the two it removes are edges of g, the two it adds are not."""
    edges = g.sorted_edges()
    for i, (a, b) in enumerate(edges):
        for c, e in edges[i + 1:]:
            if len({a, b, c, e}) < 4:
                continue
            for f, h in (((a, c), edge_key(b, e)), ((a, e), edge_key(b, c))):
                if not (f in g.edges or h in g.edges):
                    yield frozenset(((a, b), (c, e), f, h))


def _image(relabel, switch: frozenset[Edge]) -> frozenset[Edge]:
    return frozenset(map(relabel, switch))

