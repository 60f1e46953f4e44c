"""Partial proper edge colorings and Kempe-chain operations.

Colors are integers in [1, k]; 0 means uncolored. Present/missing queries are
backed by per-vertex bitmasks where bit c corresponds to color c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, GraphError, edge_key


class ColoringError(ValueError):
    """Invalid coloring operation or state."""


class ImproperColoringError(ColoringError):
    """Two edges of one color meet at a vertex, or a color is out of range."""


class LinkageError(ColoringError):
    """A chain operation's linkage hypothesis does not hold."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PartialEdgeColoring:
    """A proper edge coloring of a host graph with at most one uncolored edge.

    Every graph edge except the designated hole carries a color in [1, k].
    Instances are treated as values: mutating operations return new objects.
    """

    __slots__ = ("graph", "k", "uncolored", "_assign", "_slot")

    def __init__(self, graph: Graph, k: int, assignment, uncolored: Edge | None = None,
                 validate: bool = True):
        if k < 0:
            raise ColoringError(f"palette size {k} is negative")
        self.graph = graph
        self.k = k
        norm: dict[Edge, int] = {}
        holes = set()
        for (u, v), c in dict(assignment).items():
            e = edge_key(u, v)
            if c == 0:
                holes.add(e)
            else:
                norm[e] = c
        if uncolored is not None:
            holes.add(edge_key(*uncolored))
        if len(holes) > 1:
            raise ColoringError(f"more than one uncolored edge: {sorted(holes)}")
        self.uncolored = next(iter(holes)) if holes else None
        self._assign = norm
        slot: list[dict[int, int]] = [dict() for _ in range(graph.n)]
        for (u, v), c in norm.items():
            if validate:
                if not 1 <= c <= k:
                    raise ImproperColoringError(f"color {c} on edge {(u, v)} outside [1, {k}]")
                if c in slot[u]:
                    raise ImproperColoringError(f"color {c} repeated at vertex {u}")
                if c in slot[v]:
                    raise ImproperColoringError(f"color {c} repeated at vertex {v}")
            slot[u][c] = v
            slot[v][c] = u
        self._slot = slot
        if validate:
            covered = set(norm)
            if self.uncolored is not None:
                if self.uncolored not in graph.edges:
                    raise ColoringError(f"uncolored edge {self.uncolored} not in host graph")
                if self.uncolored in covered:
                    raise ColoringError(f"edge {self.uncolored} both colored and uncolored")
                covered.add(self.uncolored)
            if covered != graph.edges:
                raise ColoringError("assignment does not cover the host edge set exactly")

    # -- queries ------------------------------------------------------------

    @property
    def palette_mask(self) -> int:
        return (1 << (self.k + 1)) - 2

    def color_of(self, u: int, v: int) -> int:
        e = edge_key(u, v)
        if e == self.uncolored:
            return 0
        try:
            return self._assign[e]
        except KeyError:
            raise GraphError(f"edge {e} not in host graph") from None

    def present_mask(self, v: int) -> int:
        mask = 0
        for c in self._slot[v]:
            mask |= 1 << c
        return mask

    def missing_mask(self, v: int) -> int:
        return self.palette_mask & ~self.present_mask(v)

    def present(self, v: int) -> frozenset[int]:
        return frozenset(self._slot[v])

    def missing(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.missing_mask(v)))

    def neighbor_via(self, v: int, c: int) -> int | None:
        return self._slot[v].get(c)

    def is_full(self) -> bool:
        return self.uncolored is None

    def colored_items(self) -> list[tuple[Edge, int]]:
        return sorted(self._assign.items())

    # -- derivation ----------------------------------------------------------

    def with_changes(self, changes: dict[Edge, int], validate: bool = True) -> "PartialEdgeColoring":
        """New coloring with the given edge->color updates applied (0 uncolors)."""
        assign = dict(self._assign)
        holes = {self.uncolored} - {None}
        for e, c in changes.items():
            e = edge_key(*e)
            if e not in self.graph.edges:
                raise GraphError(f"edge {e} not in host graph")
            if c == 0:
                assign.pop(e, None)
                holes.add(e)
            else:
                assign[e] = c
                holes.discard(e)
        if len(holes) > 1:
            raise ColoringError(f"more than one uncolored edge: {sorted(holes)}")
        hole = next(iter(holes)) if holes else None
        return PartialEdgeColoring(self.graph, self.k, assign, hole, validate=validate)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PartialEdgeColoring)
                and self.graph == other.graph and self.k == other.k
                and self.uncolored == other.uncolored and self._assign == other._assign)

    def __repr__(self) -> str:
        return f"PartialEdgeColoring(k={self.k}, colored={len(self._assign)}, uncolored={self.uncolored})"

    # -- text form ------------------------------------------------------------

    def to_text(self) -> str:
        hole = "none" if self.uncolored is None else f"{self.uncolored[0]},{self.uncolored[1]}"
        lines = [f"k={self.k} uncolored={hole}"]
        lines += [f"{u} {v} {c}" for (u, v), c in self.colored_items()]
        return "\n".join(lines) + "\n"


class MutableColoring:
    """Mutable slot arrays for coloring algorithms that edit in place.

    `col` maps each colored edge to its color, `slot[v]` maps each color at v
    to the neighbor reached through it, and `present[v]` is v's color bitmask.
    No validation: callers keep the coloring proper and freeze the result into
    a PartialEdgeColoring, whose constructor checks it.
    """

    __slots__ = ("full", "col", "slot", "present")

    def __init__(self, n: int, k: int, assignment=()):
        self.full = (1 << (k + 1)) - 2
        self.col: dict[Edge, int] = {}
        self.slot: list[dict[int, int]] = [dict() for _ in range(n)]
        self.present = [0] * n
        for (u, v), c in assignment:
            self.set(u, v, c)

    def set(self, u: int, v: int, c: int) -> None:
        self.col[edge_key(u, v)] = c
        self.slot[u][c] = v
        self.slot[v][c] = u
        self.present[u] |= 1 << c
        self.present[v] |= 1 << c

    def clear(self, u: int, v: int) -> int:
        c = self.col.pop(edge_key(u, v))
        del self.slot[u][c]
        del self.slot[v][c]
        self.present[u] ^= 1 << c
        self.present[v] ^= 1 << c
        return c

    def missing(self, v: int) -> int:
        return self.full & ~self.present[v]

    def flip(self, v: int, first: int, second: int) -> None:
        """Swap the two colors on the path leaving v along its `first` edge.

        v must miss `second`, so it is an end of its (first, second)-component
        and the swap keeps the coloring proper.
        """
        if second in self.slot[v]:
            raise LinkageError(f"vertex {v} sees color {second}; not a path end")
        slot, col = self.slot, self.col
        path = [v]
        c = first
        while (w := slot[path[-1]].get(c)) is not None:
            path.append(w)
            c = second if c == first else first
        if len(path) == 1:
            return
        for u, w in zip(path, path[1:]):
            e = edge_key(u, w)
            col[e] = second if col[e] == first else first
        for w in path:
            s = slot[w]
            x, y = s.pop(first, None), s.pop(second, None)
            if x is not None:
                s[second] = x
            if y is not None:
                s[first] = y
        swap = (1 << first) | (1 << second)
        self.present[path[0]] ^= swap
        self.present[path[-1]] ^= swap


def propagate_certificates(coloring: PartialEdgeColoring) -> dict[Edge, PartialEdgeColoring]:
    """Colorings of the host minus each edge that moving the hole reaches.

    Breadth-first over holes from `coloring`, in sorted order. A slide colors
    the hole xy with a color missing at x and present at y, and uncolors y's
    edge of that color, which becomes the new hole. When slides reach no new
    edge, the reached colorings are taken in turn: at each hole end, every
    (alpha, beta) path that starts there (alpha missing) is swapped, and the
    result is slid again. Each edge keeps the first coloring that reaches it,
    the start edge included. Every returned coloring goes through the
    validating constructor, so it is a proper k-coloring whose one uncolored
    edge is its key.
    """
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge")
    graph, k = coloring.graph, coloring.k
    start = coloring.uncolored
    reached = {start: dict(coloring.colored_items())}
    order = [start]

    def slide(core, hole):
        x, y = hole
        for p, q in ((x, y), (y, x)):
            for a in _bits(core.missing(p) & core.present[q]):
                new = edge_key(q, core.slot[q][a])
                if new not in reached:
                    assign = dict(core.col)
                    assign[hole] = a
                    del assign[new]
                    reached[new] = assign
                    order.append(new)

    def open_at(hole):
        # a slide only ever reaches edges at the ends of the hole it starts from
        return any(edge_key(p, w) not in reached for p in hole for w in graph.neighbors(p))

    slid = swapped = 0
    while len(reached) < len(graph.edges):
        if slid < len(order):
            hole = order[slid]
            slid += 1
            slide(MutableColoring(graph.n, k, reached[hole].items()), hole)
        elif swapped < len(order):
            hole = order[swapped]
            swapped += 1
            if not open_at(hole):
                continue
            core = MutableColoring(graph.n, k, reached[hole].items())
            # each swap is undone before the next pair is drawn
            for p, a, b in ((p, a, b) for p in hole for a in _bits(core.missing(p))
                            for b in sorted(core.slot[p])):
                core.flip(p, b, a)
                slide(core, hole)
                core.flip(p, a, b)
                if not open_at(hole):
                    break
        else:
            break
    return {e: PartialEdgeColoring(graph, k, reached[e], e) for e in sorted(reached)}


def coloring_from_text(graph: Graph, text: str) -> PartialEdgeColoring:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ColoringError("empty coloring text")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("k=") or not head[1].startswith("uncolored="):
        raise ColoringError(f"bad header: {lines[0]!r}")
    k = int(head[0][2:])
    hole_text = head[1].split("=", 1)[1]
    hole = None
    if hole_text != "none":
        a, b = hole_text.split(",")
        hole = edge_key(int(a), int(b))
    assign = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ColoringError(f"bad coloring line: {ln!r}")
        u, v, c = (int(p) for p in parts)
        e = edge_key(u, v)
        if e in assign:
            raise ColoringError(f"duplicate edge line for {e}")
        assign[e] = c
    return PartialEdgeColoring(graph, k, assign, hole)


# ---------------------------------------------------------------------------
# elementary sets


def elementary_violation(coloring: PartialEdgeColoring, vertices) -> tuple[int, int, int] | None:
    """First (u, v, color) with a shared missing color among the vertices, else None."""
    owner: dict[int, int] = {}
    for v in sorted(set(vertices)):
        mask = coloring.missing_mask(v)
        for c in _bits(mask):
            if c in owner:
                return owner[c], v, c
            owner[c] = v
    return None


def is_elementary(coloring: PartialEdgeColoring, vertices) -> bool:
    return elementary_violation(coloring, vertices) is None


# ---------------------------------------------------------------------------
# Kempe chains


@dataclass(frozen=True)
class KempeChain:
    """A maximal two-color alternating component: a path or an even cycle.

    For a cycle, vertices[0] is the walk start and edges close back to it.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    colors: tuple[int, int]
    is_cycle: bool


def _check_chain_args(coloring, x, alpha, beta):
    if not 0 <= x < coloring.graph.n:
        raise GraphError(f"vertex {x} out of range")
    if alpha == beta:
        raise ColoringError(f"chain colors must differ, got {alpha} twice")
    for c in (alpha, beta):
        if not 1 <= c <= coloring.k:
            raise ColoringError(f"color {c} outside palette [1, {coloring.k}]")


def _walk(coloring, start, first_color, second_color):
    """Alternating walk from start; returns (vertices after start, edges, closed)."""
    verts: list[int] = []
    edges: list[Edge] = []
    v = start
    c = first_color
    while True:
        w = coloring.neighbor_via(v, c)
        if w is None:
            return verts, edges, False
        edges.append(edge_key(v, w))
        if w == start:
            return verts, edges, True
        verts.append(w)
        v = w
        c = second_color if c == first_color else first_color


def kempe_chain(coloring: PartialEdgeColoring, x: int, alpha: int, beta: int) -> KempeChain:
    """The maximal (alpha, beta)-component through x.

    Paths are listed from x when x is an endpoint, otherwise from the
    smaller-id endpoint. Cycles are listed from x along its alpha edge.
    """
    _check_chain_args(coloring, x, alpha, beta)
    va, ea, closed = _walk(coloring, x, alpha, beta)
    if closed:
        return KempeChain((x, *va), tuple(ea), (alpha, beta), True)
    vb, eb, _ = _walk(coloring, x, beta, alpha)
    vertices = (*reversed(vb), x, *va)
    edges = (*reversed(eb), *ea)
    if vb and va and vertices[0] > vertices[-1]:
        vertices = tuple(reversed(vertices))
        edges = tuple(reversed(edges))
    elif vb and not va:
        vertices = tuple(reversed(vertices))
        edges = tuple(reversed(edges))
    return KempeChain(tuple(vertices), tuple(edges), (alpha, beta), False)


def chain_ray(coloring: PartialEdgeColoring, x: int, via: int, alpha: int, beta: int) -> KempeChain:
    """The alternating segment from x through its neighbor `via` to the end.

    On a cycle component this is everything except x's other chain edge.
    """
    _check_chain_args(coloring, x, alpha, beta)
    first = coloring.color_of(x, via)
    if first not in (alpha, beta):
        raise LinkageError(f"edge ({x}, {via}) carries color {first}, not {alpha} or {beta}")
    second = beta if first == alpha else alpha
    verts, edges, closed = _walk(coloring, x, first, second)
    if closed:
        verts, edges = verts, edges[:-1]
    return KempeChain((x, *verts), tuple(edges), (alpha, beta), False)


def _swap_chain_edges(coloring, edges, alpha, beta, validate=True):
    changes = {}
    for e in edges:
        c = coloring.color_of(*e)
        changes[e] = beta if c == alpha else alpha
    return coloring.with_changes(changes, validate=validate)


def kempe_swap(coloring: PartialEdgeColoring, x: int, alpha: int, beta: int) -> PartialEdgeColoring:
    """Exchange the two colors on the whole component through x."""
    chain = kempe_chain(coloring, x, alpha, beta)
    return _swap_chain_edges(coloring, chain.edges, alpha, beta)


def are_linked(coloring: PartialEdgeColoring, x: int, y: int, alpha: int, beta: int) -> bool:
    """True when x and y lie on one (alpha, beta)-path component."""
    chain = kempe_chain(coloring, x, alpha, beta)
    return not chain.is_cycle and y in chain.vertices


def subchain_swap(coloring: PartialEdgeColoring, x: int, y: int, alpha: int, beta: int) -> PartialEdgeColoring:
    """Exchange the two colors on the segment of the common path between x and y.

    Raises LinkageError when the vertices are unlinked or their component is a
    cycle, and ImproperColoringError when a segment boundary vertex is interior
    to the full chain (the untouched chain edge would clash).
    """
    chain = kempe_chain(coloring, x, alpha, beta)
    if chain.is_cycle:
        raise LinkageError(f"({alpha}, {beta})-component through {x} is a cycle")
    if y not in chain.vertices:
        raise LinkageError(f"vertices {x} and {y} are not ({alpha}, {beta})-linked")
    ix = chain.vertices.index(x)
    iy = chain.vertices.index(y)
    lo, hi = min(ix, iy), max(ix, iy)
    return _swap_chain_edges(coloring, chain.edges[lo:hi], alpha, beta)


def ray_swap(coloring: PartialEdgeColoring, x: int, via: int, alpha: int, beta: int) -> PartialEdgeColoring:
    """Exchange colors on the segment from x through `via` to the component end."""
    ray = chain_ray(coloring, x, via, alpha, beta)
    return _swap_chain_edges(coloring, ray.edges, alpha, beta)


# ---------------------------------------------------------------------------
# single-edge operations


def recolor_edge(coloring: PartialEdgeColoring, u: int, v: int, to: int) -> PartialEdgeColoring:
    current = coloring.color_of(u, v)
    if current == 0:
        raise ColoringError(f"edge ({u}, {v}) is uncolored; use color_uncolored")
    if not 1 <= to <= coloring.k:
        raise ColoringError(f"color {to} outside palette [1, {coloring.k}]")
    if to == current:
        return coloring
    return coloring.with_changes({(u, v): to})


def color_uncolored(coloring: PartialEdgeColoring, c: int) -> PartialEdgeColoring:
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge")
    if not 1 <= c <= coloring.k:
        raise ColoringError(f"color {c} outside palette [1, {coloring.k}]")
    return coloring.with_changes({coloring.uncolored: c})


def slide_uncolored(coloring: PartialEdgeColoring, fill: int, new_hole: Edge) -> PartialEdgeColoring:
    """Color the current hole with `fill` while uncoloring `new_hole` atomically."""
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge")
    e = edge_key(*new_hole)
    if coloring.color_of(*e) == 0:
        raise ColoringError(f"edge {e} is already the uncolored edge")
    return coloring.with_changes({coloring.uncolored: fill, e: 0})


# ---------------------------------------------------------------------------
# census


def parity_census(coloring: PartialEdgeColoring) -> dict[int, int]:
    """Per-color count of vertices missing that color."""
    counts = {c: 0 for c in range(1, coloring.k + 1)}
    for v in range(coloring.graph.n):
        for c in _bits(coloring.missing_mask(v)):
            counts[c] += 1
    return counts
