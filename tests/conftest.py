import itertools
import random
from functools import lru_cache

from hypothesis import strategies as st

from edgecritic.coloring import (
    ColoringError,
    MutableColoring,
    PartialEdgeColoring,
    _bits,
)
from edgecritic.enumeration import enumerate_small_graphs
from edgecritic.graph6 import parse_graph6
from edgecritic.graphs import (
    Graph,
    automorphism_generators,
    cycle,
    edge_key,
    make_graph,
    orbit_closure,
    petersen_minus_vertex,
    split_spec,
    vertex_split,
)
from edgecritic.solver import chromatic_index, find_delta_coloring
from edgecritic.structures import ShortKite
from edgecritic.verifier import SweepConfig, _normalize_parts, plan_instances


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
def _class_two_pool() -> tuple[Graph, ...]:
    """Every class-2 graph on at most 7 vertices without isolated vertices (50 classes)."""
    return tuple(g for g in enumerate_small_graphs(21, 7) if find_delta_coloring(g) is None)


@st.composite
def class_two_graphs(draw, min_n=2, min_m=1):
    """A class-2 graph from the pool, randomly relabelled; every draw is kept."""
    g = draw(st.sampled_from([g for g in _class_two_pool()
                              if g.n >= min_n and g.edge_count() >= min_m]))
    perm = draw(st.permutations(range(g.n)))
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def corpus_hosts() -> list[Graph]:
    """The 42 lemma-corpus hosts, in order: the theorem-range splits through
    order 8, the cubic splits through order 8, the cycles C3..C9 and the
    Petersen graph minus a vertex."""
    hosts = []
    for cfg in (SweepConfig(), SweepConfig(m_max=8, mode="custom", degrees=(3,))):
        for inst in plan_instances(cfg):
            base = parse_graph6(inst.base_graph6)
            hosts.append(vertex_split(base, split_spec(inst.vertex, inst.part_a, inst.part_b)))
    hosts.extend(cycle(k) for k in range(3, 10))
    hosts.append(petersen_minus_vertex())
    return hosts


# The definition of a critical edge: the reference that
# `solver.critical_edge_report`, which decides the class once and then uses
# hole searches or the degree argument, is checked against.
def is_critical_by_deletion(graph: Graph, e) -> bool:
    """Deleting the edge lowers the chromatic index."""
    return chromatic_index(graph.delete_edge(*e)) < chromatic_index(graph)


# The whole-graph kite enumerator: the independent reference that
# `structures.kites_with_head` and the lemma battery are checked against.
def find_short_kites(graph: Graph) -> list[ShortKite]:
    """All labeled short-kite occurrences, ascending by role tuple."""
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
                                out.append(ShortKite(apex, rim1, rim2, hub, tail1, tail2))
    return out


# Hole propagation that swaps each Kempe path at a hole end on a copy of the
# coloring's core, slides, and swaps it back: the reference that
# `coloring.propagate_certificates`, which only reads each swap, is checked
# against.
def propagate_by_flips(coloring: PartialEdgeColoring) -> dict:
    """Certificates by breadth-first slides, then flipped Kempe paths."""
    if coloring.uncolored is None:
        raise ColoringError("no uncolored edge")
    graph, k = coloring.graph, coloring.k
    start = coloring.uncolored
    reached = {start: coloring}
    order = [start]
    unreached = [graph.degree(v) - (v in start) for v in range(graph.n)]

    def slide(core, hole):
        x, y = hole
        for p, q in ((x, y), (y, x)):
            for a in _bits(core.missing(p) & core.present[q]):
                new = edge_key(q, core.slot[q][a])
                if new not in reached:
                    assign = dict(core.col)
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
            slide(reached[hole]._core, hole)
        elif swapped < len(order):
            hole = x, y = order[swapped]
            swapped += 1
            if not (unreached[x] or unreached[y]):
                continue
            core = MutableColoring(graph.n, k)
            for (u, v), c in reached[hole].colored_items():
                core.set(u, v, c)
            for p, a, b in ((p, a, b) for p in hole for a in _bits(core.missing(p))
                            for b in sorted(core.slot[p])):
                core.flip(p, b, a)
                slide(core, hole)
                core.flip(p, a, b)
                if not (unreached[x] or unreached[y]):
                    break
        else:
            break
    return dict(sorted(reached.items()))


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
