"""Simple undirected graphs: construction, vertex splitting, small-graph utilities."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph, edge, or split specification."""


def edge_key(u: int, v: int) -> Edge:
    """Normalize an edge to (low, high) vertex order."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertex ids 0..n-1.

    Equality and hashing consider (n, edges) only; adj and delta (the
    maximum degree) are derived.
    """

    n: int
    edges: frozenset[Edge]
    adj: tuple[frozenset[int], ...] = field(compare=False, repr=False)
    delta: int = field(compare=False, repr=False)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return self.delta

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def is_regular(self) -> bool:
        degs = {len(a) for a in self.adj}
        return len(degs) <= 1

    def triangle_mask(self) -> int:
        """Upper-triangle adjacency bitmask, pairs (i, j) with i < j in lex order."""
        mask = 0
        for pos, (i, j) in enumerate(_upper_pairs(self.n)):
            if j in self.adj[i]:
                mask |= 1 << pos
        return mask


def make_graph(n: int, edges) -> Graph:
    """Build a Graph, validating vertex range and simplicity."""
    if n < 0:
        raise GraphError(f"negative order {n}")
    norm = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for order {n}")
        norm.add(edge_key(u, v))
    adj = [set() for _ in range(n)]
    for u, v in norm:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, frozenset(norm), tuple(frozenset(a) for a in adj),
                 max(map(len, adj), default=0))


def graph_from_mask(n: int, mask: int) -> Graph:
    """Inverse of Graph.triangle_mask for a fixed order n."""
    edges = [pair for pos, pair in enumerate(_upper_pairs(n)) if mask >> pos & 1]
    return make_graph(n, edges)


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[Edge, ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# splitting


def vertex_split(graph: Graph, v: int, part_a, part_b) -> Graph:
    """Replace v by two adjacent vertices whose neighborhoods are the parts A, B.

    The first half keeps the id v; the second half gets id n. The result has
    one more vertex and exactly one more edge. Both parts must be nonempty and
    partition N(v).
    """
    a, b = frozenset(part_a), frozenset(part_b)
    if not 0 <= v < graph.n:
        raise GraphError(f"split vertex {v} out of range")
    if not a or not b:
        raise GraphError("both split parts must be nonempty")
    if a & b:
        raise GraphError(f"split parts overlap: {sorted(a & b)}")
    if a | b != graph.neighbors(v):
        raise GraphError("split parts must partition the neighborhood exactly")
    twin = graph.n
    edges = []
    for u, w in graph.edges:
        if v not in (u, w):
            edges.append((u, w))
            continue
        other = w if u == v else u
        edges.append((v, other) if other in a else (twin, other))
    edges.append((v, twin))
    return make_graph(graph.n + 1, edges)


def is_overfull(graph: Graph) -> bool:
    """More edges than the maximum degree times floor(n/2) can carry."""
    return graph.edge_count() > graph.max_degree() * (graph.n // 2)


# ---------------------------------------------------------------------------
# builders


def complete(k: int) -> Graph:
    return make_graph(k, itertools.combinations(range(k), 2))


def cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {k}")
    return make_graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_bipartite(a: int, b: int) -> Graph:
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return make_graph(10, edges)


def petersen_minus_vertex() -> Graph:
    """Petersen graph with its last vertex removed: 9 vertices, 12 edges."""
    p = petersen()
    return make_graph(9, [e for e in p.edges if 9 not in e])


def prism() -> Graph:
    """Two triangles joined by a perfect matching."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return make_graph(6, edges)


def cube() -> Graph:
    """The 3-dimensional hypercube on 8 vertices."""
    edges = [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]
    return make_graph(8, edges)


def complete_minus_matching(k: int) -> Graph:
    """Complete graph on an even number of vertices minus a perfect matching."""
    if k % 2:
        raise GraphError(f"complete_minus_matching needs even order, got {k}")
    removed = {(2 * i, 2 * i + 1) for i in range(k // 2)}
    return make_graph(k, set(itertools.combinations(range(k), 2)) - removed)


# ---------------------------------------------------------------------------
# canonical forms and automorphisms (exact searches, any order)


def canonical_mask(graph: Graph) -> int:
    """Minimum upper-triangle bitmask over all vertex relabelings.

    Labels are placed from n-1 down, since the last rows hold the top bits;
    giving label i to x fixes row i as pattern[x] >> (i+1), where pattern[x]
    marks the labels on x's neighbours. Only least rows are expanded, and
    states whose unlabelled vertices see the same patterns share a future, so
    each is kept once.
    """
    n = graph.n
    mask = 0
    states = {(0,) * n}
    for i in range(n - 1, -1, -1):
        best, expanded = None, set()
        for pattern in states:
            for x, p in enumerate(pattern):
                if p < 0:
                    continue  # labelled already
                row = p >> (i + 1)
                if best is None or row < best:
                    best, expanded = row, set()
                elif row > best:
                    continue
                child = list(pattern)
                child[x] = -1
                for y in graph.adj[x]:
                    if child[y] >= 0:
                        child[y] |= 1 << i
                expanded.add(tuple(child))
        mask |= best << (i * (2 * n - i - 1) // 2)
        states = expanded
    return mask


def _extensions(graph: Graph, image: list[int]):
    """Every automorphism whose images of 0..len(image)-1 are `image`, in
    lexicographic order; the prefix must match degrees and adjacency already.

    Vertices get images in turn, smallest first; an image must match the
    vertex's degree and its adjacency to every vertex mapped before it.
    """
    n, adj = graph.n, graph.adj
    v = len(image)
    if v == n:
        yield tuple(image)
        return
    for w in range(n):
        if w in image or len(adj[w]) != len(adj[v]):
            continue
        if all((u in adj[v]) == (image[u] in adj[w]) for u in range(v)):
            image.append(w)
            yield from _extensions(graph, image)
            image.pop()


def orbit_closure(point, gens: list, image, seen: set) -> list:
    """The orbit of `point` under the group generated by `gens`, point first,
    by breadth-first closure; image(p, x) is where generator p sends x.

    Every member goes into `seen` and images already there are skipped, so
    one set can mark the members of several disjoint orbits; `point` must
    not be in it yet.
    """
    orbit = [point]
    seen.add(point)
    for x in orbit:
        for p in gens:
            y = image(p, x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def _orbit(point: int, gens: list[tuple[int, ...]]) -> set[int]:
    return set(orbit_closure(point, gens, tuple.__getitem__, set()))


def automorphism_generators(graph: Graph) -> list[tuple[int, ...]]:
    """At most n-1 automorphisms that generate the whole group, found without listing it.

    A stabiliser chain on the base 0, 1, ..., n-1, built from the bottom: when
    level i starts, the permutations kept so far generate the automorphisms
    fixing 0..i. Each w outside the orbit of i that matches i's degree and
    adjacency to 0..i-1 gets one search for an automorphism fixing 0..i-1 and
    sending i to w; a hit is kept and the orbit grows, a miss rules out w's
    whole orbit. Each kept permutation joins two orbits of the group found so
    far, hence the bound. The product of the orbit lengths of i is the order.
    """
    n, adj = graph.n, graph.adj
    gens: list[tuple[int, ...]] = []
    for i in range(n - 1, -1, -1):
        orbit, ruled_out = _orbit(i, gens), set()
        for w in range(i + 1, n):
            if w in orbit or w in ruled_out or len(adj[w]) != len(adj[i]):
                continue
            if any((u in adj[i]) != (u in adj[w]) for u in range(i)):
                continue
            p = next(_extensions(graph, [*range(i), w]), None)
            if p is None:
                ruled_out |= _orbit(w, gens)
            else:
                gens.append(p)
                orbit = _orbit(i, gens)
    return gens


def stabiliser_generators(gens: list[tuple[int, ...]], point: int) -> list[tuple[int, ...]]:
    """Generators of the stabiliser of `point` in the group `gens` generate.

    Schreier's lemma: with t_u an element sending `point` to u, one for each u
    of its orbit, the products t_p(u)^-1 p t_u over u and the generators p fix
    `point` and generate its stabiliser. They come deduplicated, in the order
    found, with the identity dropped.
    """
    if not gens:
        return []
    identity = tuple(range(len(gens[0])))
    transversal = {point: identity}
    queue = [point]
    for u in queue:
        for p in gens:
            if p[u] not in transversal:
                transversal[p[u]] = tuple(p[i] for i in transversal[u])
                queue.append(p[u])
    # listing the positions of a permutation by their images inverts it
    inverse = {u: sorted(identity, key=t.__getitem__) for u, t in transversal.items()}
    found: dict[tuple[int, ...], None] = {}
    for u, t in transversal.items():
        for p in gens:
            back = inverse[p[u]]
            s = tuple(back[p[x]] for x in t)
            if s != identity:
                found[s] = None
    return list(found)
