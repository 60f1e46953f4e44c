"""Partial proper edge colorings and Kempe-chain operations.

Colors are integers in [1, k]. One representation holds a coloring:
`MutableColoring`, per-vertex slot dicts (color -> neighbor) plus
present-color bitmasks, where bit c corresponds to color c. A
`PartialEdgeColoring` is the validated, frozen face of one such core. Its
constructor takes host edges, keyed as in `graph.edges`, and names the hole
only by `uncolored`; it runs every check on every call. The places that take
outside input (`with_changes`, `coloring_from_text`, `color_of`) normalise
edge keys; `color_of` reports the hole as 0, and `with_changes` takes 0 to
uncolor an edge. `vizing_color` edits a core in place, hole propagation reads
the cores of frozen colorings, and both freeze their results through the
validating constructor.
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

    `assignment` maps every host edge, keyed as in `graph.edges`, to a color
    in [1, k], except the hole, which only `uncolored` names. The constructor
    checks all of that on every call (a reversed or foreign key breaks the
    exact cover) and fills its own MutableColoring, which no method changes:
    instances are values, and deriving operations return new objects.
    """

    __slots__ = ("graph", "k", "uncolored", "_core")

    def __init__(self, graph: Graph, k: int, assignment: dict[Edge, int],
                 uncolored: Edge | None = None):
        if k < 0:
            raise ColoringError(f"palette size {k} is negative")
        self.graph = graph
        self.k = k
        col = dict(assignment)
        hole = self.uncolored = None if uncolored is None else edge_key(*uncolored)
        if hole is not None:
            if hole not in graph.edges:
                raise ColoringError(f"uncolored edge {hole} not in host graph")
            if hole in col:
                raise ColoringError(f"edge {hole} both colored and uncolored")
        if len(col) + (hole is not None) != len(graph.edges) or not graph.edges.issuperset(col):
            raise ColoringError("assignment does not cover the host edge set exactly")
        core = MutableColoring(graph.n, k)
        core.col = col
        slot, present = core.slot, core.present
        for (u, v), c in col.items():
            if not 1 <= c <= k:
                raise ImproperColoringError(f"color {c} on edge {(u, v)} outside [1, {k}]")
            if c in slot[u]:
                raise ImproperColoringError(f"color {c} repeated at vertex {u}")
            if c in slot[v]:
                raise ImproperColoringError(f"color {c} repeated at vertex {v}")
            # MutableColoring.set, inlined: this loop builds every certificate
            slot[u][c] = v
            slot[v][c] = u
            present[u] |= 1 << c
            present[v] |= 1 << c
        self._core = core

    # -- queries ------------------------------------------------------------

    @property
    def palette_mask(self) -> int:
        return self._core.full

    # the hot queries read the core's arrays directly

    def color_of(self, u: int, v: int) -> int:
        e = (u, v) if u <= v else (v, u)
        if e == self.uncolored:
            return 0
        try:
            return self._core.col[e]
        except KeyError:
            raise GraphError(f"edge {e} not in host graph") from None

    def present_mask(self, v: int) -> int:
        return self._core.present[v]

    def missing_mask(self, v: int) -> int:
        return self._core.full & ~self._core.present[v]

    def present(self, v: int) -> frozenset[int]:
        return frozenset(self._core.slot[v])

    def missing(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._core.full & ~self._core.present[v]))

    def neighbor_via(self, v: int, c: int) -> int | None:
        return self._core.slot[v].get(c)

    def is_full(self) -> bool:
        return self.uncolored is None

    def colored_items(self) -> list[tuple[Edge, int]]:
        return sorted(self._core.col.items())

    # -- derivation ----------------------------------------------------------

    def with_changes(self, changes: dict[Edge, int]) -> "PartialEdgeColoring":
        """New coloring with the given edge->color updates applied (0 uncolors)."""
        assign = dict(self._core.col)
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
        return PartialEdgeColoring(self.graph, self.k, assign, hole)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PartialEdgeColoring)
                and self.graph == other.graph and self.k == other.k
                and self.uncolored == other.uncolored and self._core.col == other._core.col)

    def __repr__(self) -> str:
        return f"PartialEdgeColoring(k={self.k}, colored={len(self._core.col)}, uncolored={self.uncolored})"

    # -- text form ------------------------------------------------------------

    def to_text(self) -> str:
        hole = "none" if self.uncolored is None else f"{self.uncolored[0]},{self.uncolored[1]}"
        lines = [f"k={self.k} uncolored={hole}"]
        lines += [f"{u} {v} {c}" for (u, v), c in self.colored_items()]
        return "\n".join(lines) + "\n"


class MutableColoring:
    """Mutable slot arrays for coloring algorithms that edit in place.

    `col` maps each colored edge, keyed (low, high) as in `graph.edges`, to its
    color, `slot[v]` maps each color at v to the neighbor reached through it,
    and `present[v]` is v's color bitmask. No validation: callers keep the
    coloring proper and freeze the result by passing `col` to the
    PartialEdgeColoring constructor, which checks it.
    """

    __slots__ = ("full", "col", "slot", "present")

    def __init__(self, n: int, k: int):
        self.full = (1 << (k + 1)) - 2
        self.col: dict[Edge, int] = {}
        self.slot: list[dict[int, int]] = [dict() for _ in range(n)]
        self.present = [0] * n

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
        verts, edges, _ = _walk(slot, v, first, second)
        if not edges:
            return
        for e in edges:
            col[e] = second if col[e] == first else first
        for w in (v, *verts):
            s = slot[w]
            x, y = s.pop(first, None), s.pop(second, None)
            if x is not None:
                s[second] = x
            if y is not None:
                s[first] = y
        swap = (1 << first) | (1 << second)
        self.present[v] ^= swap
        self.present[verts[-1]] ^= swap


def propagate_certificates(coloring: PartialEdgeColoring) -> dict[Edge, PartialEdgeColoring]:
    """Colorings of the host minus each edge that moving the hole reaches.

    Breadth-first over holes from `coloring`, in sorted order. A slide colors
    the hole xy with a color missing at x and present at y, and uncolors y's
    edge of that color, which becomes the new hole. When slides reach no new
    edge, the reached colorings are taken in turn: at each hole end, every
    (alpha, beta) path that starts there (alpha missing) is found once and
    slid from as if its two colors were exchanged. That view is read, never
    written: of the hole ends, only a path end's present mask and an on-path
    end's alpha/beta slots differ from the core. Each edge keeps the first
    coloring that reaches it, and the start edge keeps `coloring` itself.
    Every other coloring is built by the validating constructor when its edge
    is reached, so each is a proper k-coloring whose one uncolored edge is its
    key.
    """
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge")
    graph, k = coloring.graph, coloring.k
    start = coloring.uncolored
    reached = {start: coloring}
    order = [start]
    # per vertex, how many of its edges no coloring has reached yet
    unreached = [graph.degree(v) - (v in start) for v in range(graph.n)]

    def slide(core, hole, path=None):
        # path: (alpha, beta, its vertices, its edges), read as exchanged
        x, y = hole
        mx, my = core.present[x], core.present[y]
        if path:
            a, b, verts, edges = path
            ab = 1 << a | 1 << b
            # a path end holds one of the two colors, and the exchange toggles it
            if x in verts and (mx & ab) != ab:
                mx ^= ab
            if y in verts and (my & ab) != ab:
                my ^= ab
        for p, q, mp, mq in ((x, y, mx, my), (y, x, my, mx)):
            for c in _bits(core.full & ~mp & mq):
                # on the path, q's c edge in the view has the other color in the core
                d = a + b - c if path and c in (a, b) and q in verts else c
                new = edge_key(q, core.slot[q][d])
                if new not in reached:
                    assign = dict(core.col)
                    if path:
                        for e in edges:
                            assign[e] = a + b - assign[e]
                    assign[hole] = c
                    del assign[new]
                    reached[new] = PartialEdgeColoring(graph, k, assign, new)
                    order.append(new)
                    unreached[new[0]] -= 1
                    unreached[new[1]] -= 1

    slid = swapped = 0
    while len(reached) < len(graph.edges):
        if slid < len(order):
            hole = order[slid]
            slid += 1
            slide(reached[hole]._core, hole)
        elif swapped < len(order):
            hole = x, y = order[swapped]
            swapped += 1
            # a slide only ever reaches edges at the ends of the hole it starts from
            if not (unreached[x] or unreached[y]):
                continue
            core = reached[hole]._core
            for p, a, b in ((p, a, b) for p in hole for a in _bits(core.missing(p))
                            for b in sorted(core.slot[p])):
                verts, edges, _ = _walk(core.slot, p, b, a)
                slide(core, hole, (a, b, (p, *verts), edges))
                if not (unreached[x] or unreached[y]):
                    break
        else:
            break
    return dict(sorted(reached.items()))


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


def _walk(slot, start, first_color, second_color):
    """Alternating walk over slot dicts; returns (vertices after start, edges, closed)."""
    verts: list[int] = []
    edges: list[Edge] = []
    v = start
    c = first_color
    while (w := slot[v].get(c)) is not None:
        edges.append(edge_key(v, w))
        if w == start:
            return verts, edges, True
        verts.append(w)
        v = w
        c = second_color if c == first_color else first_color
    return verts, edges, False


def kempe_chain(coloring: PartialEdgeColoring, x: int, alpha: int, beta: int) -> KempeChain:
    """The maximal (alpha, beta)-component through x.

    Paths are listed from x when x is an endpoint, otherwise from the
    smaller-id endpoint. Cycles are listed from x along its alpha edge.
    """
    _check_chain_args(coloring, x, alpha, beta)
    slot = coloring._core.slot
    va, ea, closed = _walk(slot, x, alpha, beta)
    if closed:
        return KempeChain((x, *va), tuple(ea), (alpha, beta), True)
    vb, eb, _ = _walk(slot, x, beta, alpha)
    vertices = (*reversed(vb), x, *va)
    edges = (*reversed(eb), *ea)
    if vb and va and vertices[0] > vertices[-1]:
        vertices = tuple(reversed(vertices))
        edges = tuple(reversed(edges))
    elif vb and not va:
        vertices = tuple(reversed(vertices))
        edges = tuple(reversed(edges))
    return KempeChain(tuple(vertices), tuple(edges), (alpha, beta), False)


def _swap_chain_edges(coloring, edges, alpha, beta):
    changes = {}
    for e in edges:
        c = coloring.color_of(*e)
        changes[e] = beta if c == alpha else alpha
    return coloring.with_changes(changes)


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


# ---------------------------------------------------------------------------
# single-edge operations


def recolor_edge(coloring: PartialEdgeColoring, u: int, v: int, to: int) -> PartialEdgeColoring:
    current = coloring.color_of(u, v)
    if current == 0:
        raise ColoringError(f"edge ({u}, {v}) is the uncolored edge; give it a color with with_changes")
    if not 1 <= to <= coloring.k:
        raise ColoringError(f"color {to} outside palette [1, {coloring.k}]")
    if to == current:
        return coloring
    return coloring.with_changes({(u, v): to})


# ---------------------------------------------------------------------------
# census


def parity_census(coloring: PartialEdgeColoring) -> dict[int, int]:
    """Per-color count of vertices missing that color."""
    counts = {c: 0 for c in range(1, coloring.k + 1)}
    for v in range(coloring.graph.n):
        for c in _bits(coloring.missing_mask(v)):
            counts[c] += 1
    return counts
