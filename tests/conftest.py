import itertools
import random
from functools import lru_cache

from hypothesis import strategies as st

from edgecritic.enumeration import enumerate_small_graphs
from edgecritic.graph6 import parse_graph6
from edgecritic.graphs import (
    Graph,
    cycle,
    make_graph,
    petersen_minus_vertex,
    split_spec,
    vertex_split,
)
from edgecritic.solver import classify
from edgecritic.structures import ShortKite
from edgecritic.verifier import SweepConfig, plan_instances


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
    return tuple(g for g in enumerate_small_graphs(21, 7) if classify(g) == 2)


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
