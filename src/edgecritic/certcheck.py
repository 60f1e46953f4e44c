"""Stand-alone re-checks of the certificates a sweep relies on.

Nothing here imports from the rest of the package: each check rebuilds its
graph from plain integers and judges a plain colour map, so a fault in the
graph, colouring or solver code cannot also hide itself here.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


def split_certificate_violation(base_n: int, base_edges: Iterable[tuple[int, int]], v: int,
                                part_a: Iterable[int], part_b: Iterable[int],
                                assign: Mapping[tuple[int, int], int]) -> str | None:
    """Why `assign` does not certify the split of base vertex v into (v, A), (n, B),
    or None if it does.

    G* is the base with v's neighbours in B moved to a new vertex n = base_n and
    the edge (v, n) added. The certificate holds when A and B partition N(v)
    and are both nonempty, G* is overfull (|E*| > D * floor(|V*| / 2) with D
    its max degree), and `assign`, a map from edges (low, high) to colours,
    properly D-colours exactly E* minus (v, n).
    """
    if not 0 <= v < base_n:
        return f"split vertex {v} outside 0..{base_n - 1}"
    a, b = set(part_a), set(part_b)
    if not a or not b:
        return "a split part is empty"
    if a & b:
        return f"split parts share {sorted(a & b)}"
    twin = base_n
    edges = set()
    nbrs = set()
    for p, q in base_edges:
        if p == q or not (0 <= p < base_n and 0 <= q < base_n):
            return f"bad base edge ({p}, {q})"
        if v in (p, q):
            w = q if p == v else p
            nbrs.add(w)
            p, q = (v if w in a else twin), w
        edges.add((min(p, q), max(p, q)))
    if a | b != nbrs:
        return f"parts {sorted(a)} | {sorted(b)} do not partition N({v}) = {sorted(nbrs)}"
    split_edge = (v, twin)
    edges.add(split_edge)
    degree = [0] * (base_n + 1)
    for p, q in edges:
        degree[p] += 1
        degree[q] += 1
    delta = max(degree)
    if len(edges) <= delta * ((base_n + 1) // 2):
        return f"not overfull: {len(edges)} edges, max degree {delta}, {base_n + 1} vertices"
    seen = set()
    for (p, q), c in assign.items():
        if (p, q) == split_edge:
            return f"split edge ({p}, {q}) is coloured"
        if (p, q) not in edges:
            return f"({p}, {q}) is not an edge of the split graph"
        if not 1 <= c <= delta:
            return f"({p}, {q}) has colour {c} outside 1..{delta}"
        for end in (p, q):
            if (end, c) in seen:
                return f"colour {c} twice at vertex {end}"
            seen.add((end, c))
    if len(assign) != len(edges) - 1:
        missing = sorted(edges - set(assign) - {split_edge})
        return f"uncoloured edges {missing}"
    return None
