"""The stand-alone split-certificate checker: accepts inherited colorings,
refuses every kind of corruption, and stays independent of the package."""

import ast
import sys
from pathlib import Path

import pytest

import edgecritic.certcheck as certcheck
from edgecritic.certcheck import split_certificate_violation
from edgecritic.graphs import complete
from edgecritic.solver import find_delta_coloring
from edgecritic.verifier import inherit_split_coloring

SPLITS = {
    "K4": (complete(4), 0, (1,), (2, 3)),
    "K10": (complete(10), 9, (0, 7), (1, 2, 3, 4, 5, 6, 8)),
}


def certificate(name):
    """(base_n, base_edges, v, A, B, assign) of a split and its inherited coloring."""
    base, v, a, b = SPLITS[name]
    inherited = inherit_split_coloring(find_delta_coloring(base), v, a, b)
    return base.n, sorted(base.edges), v, a, b, dict(inherited.colored_items())


def repeat_color(n, edges, v, a, b, assign):
    e, f = next((e, f) for e in sorted(assign) for f in sorted(assign)
                if e < f and set(e) & set(f))
    return n, edges, v, a, b, {**assign, e: assign[f]}


def recolor(color):
    def mutate(n, edges, v, a, b, assign):
        e = min(assign)
        return n, edges, v, a, b, {**assign, e: color(max(assign.values()))}
    return mutate


def drop_edge(n, edges, v, a, b, assign):
    return n, edges, v, a, b, {e: c for e, c in assign.items() if e != max(assign)}


def extra_edge(n, edges, v, a, b, assign):
    # the split vertex and a neighbor it gave to its twin are not adjacent
    return n, edges, v, a, b, {**assign, (min(v, b[0]), max(v, b[0])): 1}


def color_split_edge(n, edges, v, a, b, assign):
    return n, edges, v, a, b, {**assign, (v, n): 1}


def move_to_both(n, edges, v, a, b, assign):
    return n, edges, v, a + b[:1], b, assign


def drop_from_b(n, edges, v, a, b, assign):
    return n, edges, v, a, b[1:], assign


def empty_b(n, edges, v, a, b, assign):
    return n, edges, v, a + b, (), assign


def thin_base(n, edges, v, a, b, assign):
    # delete a base edge away from v, and its color with it
    gone = next(e for e in edges if v not in e)
    return (n, [e for e in edges if e != gone], v, a, b,
            {e: c for e, c in assign.items() if e != gone})


def foreign_base_edge(n, edges, v, a, b, assign):
    return n, edges + [(0, n)], v, a, b, assign


def vertex_off_base(n, edges, v, a, b, assign):
    return n, edges, n, a, b, assign


MUTATIONS = [
    pytest.param(repeat_color, "twice at vertex", id="repeated-color"),
    pytest.param(recolor(lambda k: 0), "colour 0 outside", id="color-zero"),
    pytest.param(recolor(lambda k: k + 1), "outside 1..", id="color-k-plus-one"),
    pytest.param(drop_edge, "uncoloured edges", id="edge-missing"),
    pytest.param(extra_edge, "not an edge of the split graph", id="extra-edge"),
    pytest.param(color_split_edge, "split edge", id="split-edge-colored"),
    pytest.param(move_to_both, "split parts share", id="parts-overlap"),
    pytest.param(drop_from_b, "do not partition", id="parts-short-of-neighborhood"),
    pytest.param(empty_b, "part is empty", id="empty-b"),
    pytest.param(thin_base, "not overfull", id="base-edge-deleted"),
    pytest.param(foreign_base_edge, "bad base edge", id="base-edge-out-of-range"),
    pytest.param(vertex_off_base, "outside 0..", id="split-vertex-out-of-range"),
]


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_inherited_colorings_are_accepted(name):
    assert split_certificate_violation(*certificate(name)) is None


@pytest.mark.parametrize("name", sorted(SPLITS))
@pytest.mark.parametrize("mutate, reason", MUTATIONS)
def test_every_mutation_is_refused(name, mutate, reason):
    got = split_certificate_violation(*mutate(*certificate(name)))
    assert got is not None and reason in got, got


def test_imports_only_the_standard_library():
    tree = ast.parse(Path(certcheck.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.append(node.module)
    assert modules, "no imports found: the walk is broken"
    for name in modules:
        top = name.split(".")[0]
        assert top != "edgecritic"
        assert top == "__future__" or top in sys.stdlib_module_names, name
