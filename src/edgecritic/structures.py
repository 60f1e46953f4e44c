"""Fan-style structures anchored at an uncolored edge, and their validators."""

from __future__ import annotations

from .coloring import ColoringError, PartialEdgeColoring
from .graphs import Edge, Graph, edge_key


# ---------------------------------------------------------------------------
# validators (each returns a reason string, or None when valid)


def multifan_violation(coloring: PartialEdgeColoring, fan: tuple[int, ...]) -> str | None:
    """Why fan = (r, s_1, ..., s_p) is not a multifan at center r: (r, s_1) must
    be the hole and each later spoke's color missing at an earlier leaf."""
    g = coloring.graph
    if coloring.uncolored is None:
        return "no uncolored edge"
    if len(fan) < 2:
        return "empty leaf sequence"
    if len(set(fan)) != len(fan):
        return "vertices repeat"
    r, *leaves = fan
    if edge_key(r, leaves[0]) != coloring.uncolored:
        return "first spoke is not the uncolored edge"
    union = 0
    for i, s in enumerate(leaves):
        if not g.has_edge(r, s):
            return f"missing spoke ({r}, {s})"
        # the leaves are distinct, so only the first spoke is the hole
        if i > 0:
            c = coloring.color_of(r, s)
            if not union & (1 << c):
                return f"color {c} of spoke ({r}, {s}) not missing at any earlier leaf"
        union |= coloring.missing_mask(s)
    return None


def kierstead_violation(coloring: PartialEdgeColoring, vs: tuple[int, ...]) -> str | None:
    """Why vs = v_0..v_p is not a Kierstead path: a path whose first edge is
    the hole and each of whose later edges has a color missing at a strictly
    earlier vertex."""
    g = coloring.graph
    if coloring.uncolored is None:
        return "no uncolored edge"
    if len(vs) < 2:
        return "too short"
    if len(set(vs)) != len(vs):
        return "vertices repeat"
    if edge_key(vs[0], vs[1]) != coloring.uncolored:
        return "first edge is not the uncolored edge"
    # the vertices are distinct, so every edge after the first is colored
    adj, core = g.adj, coloring._core
    col, present, full = core.col, core.present, core.full
    union = 0
    a = vs[0]
    for i, b in enumerate(vs[1:]):
        if b not in adj[a]:
            return f"missing edge ({a}, {b})"
        union |= full & ~present[a]
        if i:
            c = col[(a, b) if a < b else (b, a)]
            if not union >> c & 1:
                return f"color {c} of edge ({a}, {b}) not missing at any earlier vertex"
        a = b
    return None


def kite_violation(graph: Graph, kite: tuple[int, ...]) -> str | None:
    """Why kite = (apex, rim1, rim2, hub, tail1, tail2) is not a short kite of
    the host: six distinct vertices, the four-cycle apex-rim1-hub-rim2 and
    the pendant edges hub-tail1 and hub-tail2."""
    if len(set(kite)) != 6:
        return "vertices repeat"
    a, b, c, u, x, y = kite
    adj, n = graph.adj, graph.n
    # as in has_edge, an id outside the host ends no edge
    for p, q in ((a, b), (b, u), (u, c), (c, a), (u, x), (u, y)):
        if not (0 <= p < n and q in adj[p]):
            return f"missing edge {edge_key(p, q)}"
    return None


# ---------------------------------------------------------------------------
# builders and enumerators


def build_maximal_multifan(coloring: PartialEdgeColoring, center: int) -> tuple[int, ...]:
    """Greedy maximal multifan (center, s_1, ..., s_p) at one endpoint of the hole.

    Scans candidate spokes by ascending leaf id and admits the first whose
    color is missing somewhere in the current fan, restarting until stable.
    """
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge to anchor a multifan")
    if center not in coloring.uncolored:
        raise ColoringError(f"vertex {center} is not an endpoint of the uncolored edge")
    a, b = coloring.uncolored
    first = b if center == a else a
    fan = [center, first]
    chosen = {first, center}
    union = coloring.missing_mask(first)
    grew = True
    while grew:
        grew = False
        for w in sorted(coloring.graph.neighbors(center)):
            if w in chosen:
                continue
            c = coloring.color_of(center, w)
            if c and union & (1 << c):
                fan.append(w)
                chosen.add(w)
                union |= coloring.missing_mask(w)
                grew = True
                break
    return tuple(fan)


def enumerate_kierstead_paths(coloring: PartialEdgeColoring) -> list[tuple[int, int, int, int]]:
    """All four-vertex Kierstead paths starting with the hole, both orientations."""
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge to anchor a Kierstead path")
    g = coloring.graph
    a, b = coloring.uncolored
    out = []
    for v0, v1 in ((a, b), (b, a)):
        m0 = coloring.missing_mask(v0)
        for v2 in sorted(g.neighbors(v1)):
            if v2 in (v0, v1):
                continue
            c12 = coloring.color_of(v1, v2)
            if not (c12 and m0 & (1 << c12)):
                continue
            m01 = m0 | coloring.missing_mask(v1)
            for v3 in sorted(g.neighbors(v2)):
                if v3 in (v0, v1, v2):
                    continue
                c23 = coloring.color_of(v2, v3)
                if c23 and m01 & (1 << c23):
                    out.append((v0, v1, v2, v3))
    return out


def kites_with_head(graph: Graph, head: tuple[int, int, int, int],
                    coloring: PartialEdgeColoring | None = None
                    ) -> list[tuple[int, int, int, int, int, int]]:
    """The short kites (apex, rim1, rim2, hub, tail1, tail2) whose
    (apex, rim1, hub, tail1) is the given path, ascending by (rim2, tail2);
    none when the head is not a path of the host.

    Given a coloring, only the kites whose rim2 path (rim1, apex, rim2, hub,
    tail2) is a Kierstead path of it are listed, and only these are built.
    Every prefix of a Kierstead path is one, so the prefix (rim1, apex, rim2,
    hub) is checked once per rim2; the path then goes on to a spoke tail2
    exactly when the color of hub-tail2 is missing at some prefix vertex.
    """
    apex, rim1, hub, tail1 = head
    if (len(set(head)) != 4 or not graph.has_edge(apex, rim1)
            or not graph.has_edge(rim1, hub) or not graph.has_edge(hub, tail1)):
        return []
    spokes = graph.neighbors(hub)
    kites = []
    for rim2 in sorted((graph.neighbors(apex) & spokes) - {rim1, tail1}):
        tails = sorted(spokes - {apex, rim1, rim2, tail1})
        if coloring is not None:
            if kierstead_violation(coloring, (rim1, apex, rim2, hub)) is not None:
                continue
            union = 0
            for w in (rim1, apex, rim2, hub):
                union |= coloring.missing_mask(w)
            tails = [y for y in tails if union >> coloring.color_of(hub, y) & 1]
        kites += [(apex, rim1, rim2, hub, tail1, y) for y in tails]
    return kites


def find_full_deficiency_pairs(graph: Graph) -> list[Edge]:
    """The edges whose ends have degree sum max-degree + 2, ascending."""
    target = graph.max_degree() + 2
    return [(u, v) for u, v in graph.sorted_edges()
            if graph.degree(u) + graph.degree(v) == target]
