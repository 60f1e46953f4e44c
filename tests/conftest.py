import itertools
import random
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import networkx as nx
from hypothesis import strategies as st

from edgecritic.coloring import (
    ColoringError,
    MutableColoring,
    PartialEdgeColoring,
)
from edgecritic.enumeration import enumerate_regular_graphs
from edgecritic.graph6 import parse_graph6
from edgecritic.graphs import (
    Graph,
    automorphism_generators,
    canonical_mask,
    cycle,
    edge_key,
    graph_from_mask,
    make_graph,
    orbit_closure,
    petersen_minus_vertex,
    vertex_split,
)
from edgecritic.solver import chromatic_index, find_delta_coloring
from edgecritic.verifier import SweepConfig, _normalize_parts, plan_instances

ROOT = Path(__file__).resolve().parent.parent


class PublishedRun(NamedTuple):
    """One row of RUNS.tsv: a CLI run whose output the repo publishes."""

    name: str
    tier: str
    exit_code: int
    args: tuple[str, ...]
    last_line: str | None
    sha256: str


def published_runs() -> tuple[PublishedRun, ...]:
    """The rows of RUNS.tsv, the one place a published output's bytes are
    stated. Columns are tab-separated: name, tier (`test` runs in tier-1 and
    CI, `ci` in CI only), exit code, the CLI arguments with LOG standing for
    the log path, the last stdout line or `-`, and the sha256 of the log when
    the arguments hold LOG, else of stdout."""
    lines = (ROOT / "RUNS.tsv").read_text(encoding="utf-8").splitlines()
    rows = (line.split("\t") for line in lines[1:])
    return tuple(PublishedRun(name, tier, int(code), tuple(args.split()),
                              None if last == "-" else last, sha)
                 for name, tier, code, args, last, sha in rows)


def published_sha256(name: str) -> str:
    """The pinned sha256 of the run named `name` in RUNS.tsv."""
    (run,) = [run for run in published_runs() if run.name == name]
    return run.sha256


def assert_proper(coloring) -> None:
    """Properness checked from scratch, without trusting the class internals."""
    g = coloring.graph
    seen = [set() for _ in range(g.n)]
    covered = set()
    for (u, v), c in coloring.colored_items():
        assert 1 <= c <= coloring.k
        assert c not in seen[u], f"color {c} repeated at {u}"
        assert c not in seen[v], f"color {c} repeated at {v}"
        seen[u].add(c)
        seen[v].add(c)
        covered.add((u, v))
    if coloring.uncolored is not None:
        covered.add(coloring.uncolored)
    assert covered == set(g.edges)


def unchecked_coloring(graph: Graph, k: int, assignment: dict, uncolored) -> PartialEdgeColoring:
    """A PartialEdgeColoring face and its core filled with no checks at all.

    Only for feeding checkers the improper colorings that the validating
    constructor refuses; `assignment` maps host edges to colors.
    """
    core = MutableColoring(graph.n, k)
    for (u, v), c in assignment.items():
        core.set(u, v, c)
    face = object.__new__(PartialEdgeColoring)
    face.graph, face.k, face.uncolored, face._core = graph, k, uncolored, core
    return face


def random_graph(rng: random.Random, max_n: int = 8, max_m: int = 12) -> Graph:
    n = rng.randint(2, max_n)
    pairs = list(itertools.combinations(range(n), 2))
    m = rng.randint(1, min(max_m, len(pairs)))
    return make_graph(n, rng.sample(pairs, m))


@st.composite
def small_graphs(draw, min_n=2, max_n=7, min_m=1):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), min_size=min(min_m, len(pairs)),
                         max_size=len(pairs)))
    return make_graph(n, edges)


@lru_cache(maxsize=None)
def small_graph_corpus(max_edges: int) -> tuple[Graph, ...]:
    """Every graph on at most 7 vertices with 1..max_edges edges and no
    isolated vertex, one per isomorphism class, each as the graph of its
    canonical mask, sorted by (edges, order, mask).

    The classes come from the networkx graph atlas, which lists every graph
    on at most 7 vertices once up to isomorphism (Read and Wilson, An Atlas
    of Graphs, 1998), so which classes the corpus holds does not rest on
    `canonical_mask`; only their labellings do.
    """
    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= ag.number_of_edges() <= max_edges or any(d == 0 for _, d in ag.degree()):
            continue
        out.append(graph_from_mask(n, canonical_mask(make_graph(n, ag.edges()))))
    out.sort(key=lambda g: (g.edge_count(), g.n, g.triangle_mask()))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_two_pool() -> tuple[Graph, ...]:
    """Every class-2 graph on at most 7 vertices without isolated vertices (50 classes)."""
    return tuple(g for g in small_graph_corpus(21) if find_delta_coloring(g) is None)


@st.composite
def class_two_graphs(draw, min_n=2, min_m=1):
    """A class-2 graph from the pool, randomly relabelled; every draw is kept."""
    g = draw(st.sampled_from([g for g in _class_two_pool()
                              if g.n >= min_n and g.edge_count() >= min_m]))
    perm = draw(st.permutations(range(g.n)))
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@lru_cache(maxsize=None)
def regular_classes(m: int, d: int) -> tuple[Graph, ...]:
    """`enumerate_regular_graphs(m, d)`, enumerated once per pytest run.

    For tests that only need the classes, up to order 10, where one
    enumeration takes up to a second; a test that counts enumerator calls
    calls the enumerator itself."""
    return tuple(enumerate_regular_graphs(m, d))


def corpus_hosts() -> list[Graph]:
    """The 42 lemma-corpus hosts, in order: the theorem-range splits through
    order 8, the cubic splits through order 8, the cycles C3..C9 and the
    Petersen graph minus a vertex."""
    hosts = []
    for cfg in (SweepConfig(), SweepConfig(m_max=8, mode="custom", degrees=(3,))):
        for inst in plan_instances(cfg):
            base = parse_graph6(inst.base_graph6)
            hosts.append(vertex_split(base, inst.vertex, inst.part_a, inst.part_b))
    hosts.extend(cycle(k) for k in range(3, 10))
    hosts.append(petersen_minus_vertex())
    return hosts


# Plain backtracking over vertex images: the reference that
# `graphs.automorphism_generators` and the split planning are checked against.
def all_automorphisms(graph: Graph) -> list[tuple[int, ...]]:
    """Every adjacency-preserving relabelling, identity first, in
    lexicographic order. Vertex v takes its image after 0..v-1 have theirs,
    and each image must keep v's adjacency to every vertex mapped before it."""
    n = graph.n
    adjacent = [[graph.has_edge(u, v) for v in range(n)] for u in range(n)]
    found = []

    def extend(image: tuple[int, ...]) -> None:
        v = len(image)
        if v == n:
            found.append(image)
            return
        for w in range(n):
            if w not in image and all(adjacent[u][v] == adjacent[image[u]][w]
                                      for u in range(v)):
                extend(image + (w,))

    extend(())
    return found


# The definition of a critical edge: the reference that
# `solver.critical_edge_report`, which decides the class once and then uses
# hole searches or the degree argument, is checked against.
def is_critical_by_deletion(graph: Graph, e) -> bool:
    """Deleting the edge lowers the chromatic index."""
    rest = make_graph(graph.n, graph.edges - {edge_key(*e)})
    return chromatic_index(rest) < chromatic_index(graph)


# The whole-graph kite enumerator: the independent reference that
# `structures.kites_with_head` and the lemma battery are checked against.
def find_short_kites(graph: Graph) -> list[tuple[int, ...]]:
    """All labeled short kites (apex, rim1, rim2, hub, tail1, tail2),
    ascending by role tuple (hub, rim1, rim2, apex, tail1, tail2)."""
    out = []
    for hub in range(graph.n):
        nbrs = sorted(graph.neighbors(hub))
        for rim1 in nbrs:
            for rim2 in nbrs:
                if rim2 == rim1:
                    continue
                commons = graph.neighbors(rim1) & graph.neighbors(rim2)
                for apex in sorted(commons):
                    if apex == hub:
                        continue
                    rest = [w for w in nbrs if w not in (apex, rim1, rim2)]
                    for tail1 in rest:
                        for tail2 in rest:
                            if tail2 != tail1:
                                out.append((apex, rim1, rim2, hub, tail1, tail2))
    return out


# Hole propagation that swaps each Kempe path at a hole end on a copy of the
# coloring, slides, and swaps it back: the reference that
# `coloring.propagate_certificates`, which only reads each swap, is checked
# against. It keeps its own edge -> color and color -> neighbor maps, built
# from `colored_items()`, and its own path flip, so it shares no
# representation with the core it checks.
def color_maps(coloring: PartialEdgeColoring) -> tuple[dict, list[dict]]:
    """(edge -> color, per vertex color -> neighbor) of a coloring."""
    col = dict(coloring.colored_items())
    nbr = [{} for _ in range(coloring.graph.n)]
    for (u, v), c in col.items():
        nbr[u][c] = v
        nbr[v][c] = u
    return col, nbr


def flip_path(col: dict, nbr: list[dict], v: int, first: int, second: int) -> None:
    """Exchange the two colors on the path leaving v, which misses `second`,
    along its `first` edge."""
    path, w, c = [], v, first
    while c in nbr[w]:
        path.append((w, nbr[w][c], c))
        w, c = nbr[w][c], first + second - c
    for u, w, c in path:
        del nbr[u][c], nbr[w][c]
    for u, w, c in path:
        d = first + second - c
        col[edge_key(u, w)] = d
        nbr[u][d], nbr[w][d] = w, u


def propagate_by_flips(coloring: PartialEdgeColoring) -> dict:
    """Certificates by breadth-first slides, then flipped Kempe paths."""
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge")
    graph, k = coloring.graph, coloring.k
    start = coloring.uncolored
    reached = {start: coloring}
    order = [start]
    unreached = [graph.degree(v) - (v in start) for v in range(graph.n)]

    def slide(col, nbr, hole):
        x, y = hole
        for p, q in ((x, y), (y, x)):
            for a in range(1, k + 1):
                if a in nbr[p] or a not in nbr[q]:
                    continue
                new = edge_key(q, nbr[q][a])
                if new not in reached:
                    assign = dict(col)
                    assign[hole] = a
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
            slide(*color_maps(reached[hole]), hole)
        elif swapped < len(order):
            hole = x, y = order[swapped]
            swapped += 1
            if not (unreached[x] or unreached[y]):
                continue
            col, nbr = color_maps(reached[hole])
            for p, a, b in ((p, a, b) for p in hole for a in range(1, k + 1)
                            if a not in nbr[p] for b in sorted(nbr[p])):
                flip_path(col, nbr, p, b, a)
                slide(col, nbr, hole)
                flip_path(col, nbr, p, a, b)
                if not (unreached[x] or unreached[y]):
                    break
        else:
            break
    return dict(sorted(reached.items()))


# The recursive backtracking search, one generator frame per edge: the
# reference that `solver._solve`, one iterative loop with a candidate mask per
# depth, is checked against. Same edge order, color order, one-fresh-color
# rule, class cap and forward check; no time budget.
def solve_recursively(graph: Graph, k: int, hole, enumerate_all: bool):
    """Yield full assignments (edge -> color) extending the hole, exhaustively."""
    m = len(graph.edges) - (hole is not None)
    cap = graph.n // 2
    if k * cap < m:
        return
    if any(graph.degree(v) - (hole is not None and v in hole) > k for v in range(graph.n)):
        return
    edges = sorted((e for e in graph.edges if e != hole),
                   key=lambda e: (-(graph.degree(e[0]) + graph.degree(e[1])), e))
    incident_later = [[f for f in edges[i + 1:] if f[0] in e or f[1] in e]
                      for i, e in enumerate(edges)]
    avail = [(1 << (k + 1)) - 2 for _ in range(graph.n)]
    class_size = [0] * (k + 1)
    chosen = [0] * m

    def rec(i, used_max):
        if i == m:
            yield dict(zip(edges, chosen))
            return
        u, v = edges[i]
        cand = avail[u] & avail[v]
        if not enumerate_all:
            cand &= (1 << (min(k, used_max + 1) + 1)) - 1
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            if class_size[c] == cap:
                continue
            avail[u] ^= low
            avail[v] ^= low
            class_size[c] += 1
            chosen[i] = c
            if all(avail[a] & avail[b] for a, b in incident_later[i]):
                yield from rec(i + 1, max(used_max, c))
            avail[u] |= low
            avail[v] |= low
            class_size[c] -= 1

    yield from rec(0, 0)


# Split orbits closed under the whole generating set from every vertex: the
# reference for `verifier._split_orbits`, which splits one vertex per vertex
# orbit under that vertex's stabiliser.
def split_orbits_from_every_vertex(base: Graph) -> list:
    """All (vertex, partition) choices up to base automorphisms, sorted."""
    gens = automorphism_generators(base)

    def image(p, split):
        u, pa, pb = split
        return (p[u], *_normalize_parts(base.neighbors(p[u]),
                                        [p[w] for w in pa], [p[w] for w in pb]))

    seen: set = set()
    reps = []
    for v in range(base.n):
        nbrs = sorted(base.neighbors(v))
        if len(nbrs) < 2:
            continue
        rest = nbrs[1:]
        for pick in range(1 << len(rest)):
            a = [nbrs[0]] + [w for i, w in enumerate(rest) if pick >> i & 1]
            b = [w for i, w in enumerate(rest) if not pick >> i & 1]
            if not b:
                continue
            key = (v, tuple(a), tuple(b))
            if key not in seen:
                reps.append(min(orbit_closure(key, gens, image, seen)))
    return sorted(reps)
