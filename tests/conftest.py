import itertools
import random
from functools import lru_cache

from hypothesis import strategies as st

from edgecritic.enumeration import enumerate_small_graphs
from edgecritic.graphs import Graph, make_graph
from edgecritic.solver import classify


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
