"""Partial colorings, Kempe chains, and the swap operations built on them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecritic.coloring as coloring
from conftest import (
    assert_proper,
    class_two_graphs,
    is_critical_by_deletion,
    propagate_by_flips,
    small_graphs,
)
from edgecritic.coloring import (
    ColoringError,
    ImproperColoringError,
    LinkageError,
    MutableColoring,
    PartialEdgeColoring,
    _bits,
    are_linked,
    coloring_from_text,
    elementary_violation,
    kempe_chain,
    kempe_swap,
    parity_census,
    propagate_certificates,
    recolor_edge,
    subchain_swap,
)
from edgecritic.graph6 import parse_graph6
from edgecritic.graphs import (
    GraphError,
    cycle,
    make_graph,
    petersen_minus_vertex,
    vertex_split,
)
from edgecritic.solver import find_coloring, vizing_color
from edgecritic.verifier import SweepConfig, inherit_split_coloring, plan_instances


def triangle_coloring(k=3):
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    return PartialEdgeColoring(g, k, {(0, 1): 1, (0, 2): 2, (1, 2): 3})


def c5_coloring():
    # one long (1,2)-path 0-1-2-3-4 plus a color-3 chord back to 0
    g = cycle(5)
    return PartialEdgeColoring(
        g, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (0, 4): 3})


def c4_two_colors():
    g = cycle(4)
    return PartialEdgeColoring(g, 2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})


# ------------------------------------------------------------ construction

def test_construction_rejects_negative_palette():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ColoringError):
        PartialEdgeColoring(g, -1, {(0, 1): 1})


def test_construction_refuses_a_palette_above_edges_plus_one():
    # slots take n * (k + 1) entries, so the palette is capped by the host:
    # k = 10**8 on one edge would otherwise build 300 million slots
    g = make_graph(3, [(0, 1)])
    for k in (3, 10**8):
        with pytest.raises(ColoringError, match=r"palette size \d+ outside \[0, 2\]"):
            PartialEdgeColoring(g, k, {(0, 1): 1})
    assert PartialEdgeColoring(g, 2, {(0, 1): 2}).missing(0) == frozenset({1})
    assert triangle_coloring(k=4).missing(0) == frozenset({3, 4})  # a Delta + 2 palette


def test_construction_rejects_zero_color():
    # only `uncolored` names the hole; a 0 in the assignment is a bad color
    with pytest.raises(ImproperColoringError, match="outside"):
        PartialEdgeColoring(cycle(4), 2, {(0, 1): 0, (1, 2): 1, (2, 3): 2, (0, 3): 1})


def test_construction_rejects_out_of_range_color():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ImproperColoringError):
        PartialEdgeColoring(g, 2, {(0, 1): 3})


def test_construction_rejects_clash():
    g = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ImproperColoringError, match="repeated at vertex 1"):
        PartialEdgeColoring(g, 2, {(0, 1): 1, (1, 2): 1})


def test_construction_rejects_foreign_hole():
    g = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ColoringError):
        PartialEdgeColoring(g, 2, {(0, 1): 1, (1, 2): 2}, uncolored=(0, 2))


def test_construction_rejects_colored_hole():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ColoringError, match="both colored and uncolored"):
        PartialEdgeColoring(g, 2, {(0, 1): 1}, uncolored=(0, 1))


def test_construction_rejects_partial_cover():
    g = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ColoringError, match="cover"):
        PartialEdgeColoring(g, 2, {(0, 1): 1})


@pytest.mark.parametrize("key", [(1, 0), (0, 2)], ids=["reversed", "foreign"])
def test_construction_rejects_key_that_is_not_a_host_edge(key):
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ColoringError, match="cover"):
        PartialEdgeColoring(g, 1, {key: 1})


# ------------------------------------------------------------ queries

def test_color_queries():
    col = triangle_coloring()
    assert col.color_of(1, 0) == 1
    assert col.is_full()
    assert (col.color_of(0, 1), col.color_of(0, 2)) == (1, 2)
    assert col.missing(0) == frozenset({3})
    with pytest.raises(GraphError):
        col.color_of(0, 5)


def test_hole_queries():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    col = PartialEdgeColoring(g, 3, {(0, 2): 2, (1, 2): 3}, uncolored=(0, 1))
    assert not col.is_full()
    assert col.uncolored == (0, 1)
    assert col.color_of(0, 1) == 0
    assert col.missing(0) == frozenset({1, 3})
    assert col.colored_items() == [((0, 2), 2), ((1, 2), 3)]


def test_palette_mask():
    assert triangle_coloring()._core.full == 0b1110


# ------------------------------------------------------------ text form

def test_to_text_exact():
    assert triangle_coloring().to_text() == "k=3 uncolored=none\n0 1 1\n0 2 2\n1 2 3\n"
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    col = PartialEdgeColoring(g, 3, {(0, 2): 2, (1, 2): 3}, uncolored=(1, 0))
    assert col.to_text() == "k=3 uncolored=0,1\n0 2 2\n1 2 3\n"


def test_from_text_roundtrip():
    for col in (triangle_coloring(), c5_coloring()):
        assert coloring_from_text(col.graph, col.to_text()) == col
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    col = PartialEdgeColoring(g, 3, {(0, 2): 2, (1, 2): 3}, uncolored=(0, 1))
    assert coloring_from_text(g, col.to_text()) == col


def test_from_text_errors():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ColoringError, match="empty"):
        coloring_from_text(g, "   \n")
    with pytest.raises(ColoringError, match="header"):
        coloring_from_text(g, "n=2 uncolored=none\n0 1 1\n")
    with pytest.raises(ColoringError, match="bad coloring line"):
        coloring_from_text(g, "k=1 uncolored=none\n0 1\n")
    with pytest.raises(ColoringError, match="duplicate"):
        coloring_from_text(g, "k=2 uncolored=none\n0 1 1\n1 0 2\n")


@pytest.mark.parametrize("text, message", [
    ("k=x uncolored=none\n0 1 1\n", "bad header: 'k=x uncolored=none'"),
    ("k=2 uncolored=a,b\n", "bad header: 'k=2 uncolored=a,b'"),
    ("k=2 uncolored=1,2,3\n", "bad header: 'k=2 uncolored=1,2,3'"),
    ("k=2 uncolored=0\n", "bad header: 'k=2 uncolored=0'"),
    ("k=2 uncolored=none\n0 1 y\n", "bad coloring line: '0 1 y'"),
    ("k=2 uncolored=none\n0 1 1 1\n", "bad coloring line: '0 1 1 1'"),
    ("k=3 uncolored=none\n0 1 1\n", "palette above max degree + 1: 'k=3 uncolored=none'"),
], ids=["k-not-int", "hole-not-int", "hole-three-parts", "hole-one-part",
        "color-not-int", "line-four-fields", "palette-above-vizing"])
def test_from_text_names_the_bad_header_or_line(text, message):
    # the text can come from outside, e.g. an instance's base_coloring_text
    with pytest.raises(ColoringError) as info:
        coloring_from_text(make_graph(2, [(0, 1)]), text)
    assert str(info.value) == message


def test_from_text_rejects_zero_color():
    # a 0 line is not a second way to name the hole the header denies
    with pytest.raises(ImproperColoringError):
        coloring_from_text(cycle(4), "k=2 uncolored=none\n0 1 0\n1 2 1\n2 3 2\n0 3 1\n")


# ------------------------------------------------------------ elementary sets

def test_elementary_exact_palette():
    col = triangle_coloring()
    assert elementary_violation(col, [0, 1, 2]) is None


def test_elementary_violation_first_witness():
    col = triangle_coloring(k=4)  # now color 4 is missing everywhere
    assert elementary_violation(col, [0, 1, 2]) == (0, 1, 4)
    assert elementary_violation(col, [2, 1]) == (1, 2, 4)
    assert elementary_violation(col, [0, 2]) is not None


# ------------------------------------------------------------ chains

def test_kempe_chain_from_endpoint():
    assert kempe_chain(c5_coloring(), 0, 1, 2) == (
        (0, 1, 2, 3, 4), ((0, 1), (1, 2), (2, 3), (3, 4)), False)


def test_kempe_chain_from_interior_starts_at_small_endpoint():
    assert kempe_chain(c5_coloring(), 2, 1, 2) == (
        (0, 1, 2, 3, 4), ((0, 1), (1, 2), (2, 3), (3, 4)), False)


def test_kempe_chain_short_path():
    # the (1,3)-component through 1 is just 1-0-4
    assert kempe_chain(c5_coloring(), 1, 1, 3) == ((1, 0, 4), ((0, 1), (0, 4)), False)


def test_kempe_chain_cycle_orientation():
    col = c4_two_colors()
    assert kempe_chain(col, 0, 1, 2) == ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3)), True)
    assert kempe_chain(col, 0, 2, 1)[0] == (0, 3, 2, 1)


def test_kempe_chain_argument_errors():
    col = c5_coloring()
    with pytest.raises(GraphError):
        kempe_chain(col, 9, 1, 2)
    with pytest.raises(ColoringError, match="must differ"):
        kempe_chain(col, 0, 2, 2)
    with pytest.raises(ColoringError, match="outside palette"):
        kempe_chain(col, 0, 1, 4)


def test_kempe_swap_whole_component():
    col = c5_coloring()
    swapped = kempe_swap(col, 0, 1, 2)
    assert_proper(swapped)
    assert swapped.color_of(0, 1) == 2
    assert swapped.color_of(3, 4) == 1
    assert swapped.color_of(0, 4) == 3  # other colors untouched
    assert col == c5_coloring()  # the input is a value: the swap leaves it as it was


def test_are_linked():
    col = c5_coloring()
    assert are_linked(col, 0, 4, 1, 2)
    assert are_linked(col, 2, 0, 1, 2)
    assert not are_linked(col, 0, 2, 1, 3)
    assert not are_linked(c4_two_colors(), 0, 2, 1, 2)  # cycles never count


def test_subchain_swap_full_segment():
    col = c5_coloring()
    out = subchain_swap(col, 0, 4, 1, 2)
    assert_proper(out)
    assert out == kempe_swap(col, 0, 1, 2)


def test_subchain_swap_interior_boundary_clashes():
    with pytest.raises(ImproperColoringError, match="repeated at vertex 2"):
        subchain_swap(c5_coloring(), 0, 2, 1, 2)


def test_subchain_swap_unlinked():
    with pytest.raises(LinkageError, match="not .*linked"):
        subchain_swap(c5_coloring(), 0, 2, 1, 3)


def test_subchain_swap_cycle():
    with pytest.raises(LinkageError, match="cycle"):
        subchain_swap(c4_two_colors(), 0, 2, 1, 2)


# ------------------------------------------------------------ edge ops

def test_recolor_edge():
    col = triangle_coloring(k=4)
    out = recolor_edge(col, 1, 0, 4)
    assert out.color_of(0, 1) == 4
    assert col == triangle_coloring(k=4)
    assert recolor_edge(col, 0, 1, 1) is col  # no-op keeps the object
    with pytest.raises(GraphError):
        recolor_edge(col, 0, 7, 1)
    with pytest.raises(ColoringError, match="outside palette"):
        recolor_edge(col, 0, 1, 5)
    with pytest.raises(ImproperColoringError):
        recolor_edge(col, 0, 1, 2)


def test_recolor_edge_rejects_hole():
    g = make_graph(2, [(0, 1)])
    col = PartialEdgeColoring(g, 1, {}, uncolored=(0, 1))
    with pytest.raises(ColoringError, match="is the uncolored edge"):
        recolor_edge(col, 0, 1, 1)
    # another edge of a holed coloring takes its new color and the hole stays
    tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    holed = PartialEdgeColoring(tri, 3, {(0, 2): 2, (1, 2): 3}, uncolored=(0, 1))
    out = recolor_edge(holed, 2, 0, 1)
    assert out.uncolored == (0, 1)
    assert out.colored_items() == [((0, 2), 1), ((1, 2), 3)]


# ------------------------------------------------------------ census

def test_parity_census_triangle():
    assert parity_census(triangle_coloring()) == {1: 1, 2: 1, 3: 1}
    assert parity_census(triangle_coloring(k=4)) == {1: 1, 2: 1, 3: 1, 4: 3}


def test_parity_census_with_hole():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    col = PartialEdgeColoring(g, 3, {(0, 2): 2, (1, 2): 3}, uncolored=(0, 1))
    assert parity_census(col) == {1: 3, 2: 1, 3: 1}


# ------------------------------------------------------------ mutable core

def c5_core():
    core = MutableColoring(5, 3)
    for (u, v), c in c5_coloring().colored_items():
        core.set(u, v, c)
    return core


def test_mutable_core_set_clear_missing():
    core = c5_core()
    assert_core_consistent(core, 5, 3)
    assert core.width == 4 and core.slot[0 * 4 + 3] == 4 and core.slot[4 * 4 + 3] == 0
    assert core.missing(0) == 1 << 2 and core.missing(4) == 1 << 1
    assert core.clear(4, 0) == 3
    assert (0, 4) not in core.col and core.slot[0 * 4 + 3] is None and core.slot[4 * 4 + 3] is None
    assert_core_consistent(core, 5, 3)
    assert core.missing(0) == (1 << 2) | (1 << 3)
    core.set(0, 4, 3)
    assert_core_consistent(core, 5, 3)
    assert core.col == dict(c5_coloring().colored_items())


def test_mutable_core_flip_matches_kempe_swap():
    start = c5_coloring()
    core = c5_core()
    core.flip(0, 1, 2)  # 0 misses 2: the whole (1, 2)-path 0-1-2-3-4
    swapped = kempe_swap(start, 0, 1, 2)
    assert core.col == dict(swapped.colored_items())
    assert [core.missing(v) for v in range(5)] == [swapped.missing_mask(v) for v in range(5)]
    # whole arrays: an index into the flat slot list is a single entry
    assert core.slot == swapped._core.slot and core.present == swapped._core.present
    core.flip(0, 2, 1)
    assert core.col == dict(start.colored_items())
    with pytest.raises(LinkageError, match="not a path end"):
        core.flip(1, 1, 2)  # 1 sees both colors: interior, not an end


def test_propagation_from_one_hole_reaches_every_edge():
    g = petersen_minus_vertex()
    phi = find_coloring(g, 3, hole=(0, 4))
    certs = propagate_certificates(phi)
    assert sorted(certs) == g.sorted_edges()
    assert certs[(0, 4)] == phi
    for e, cert in certs.items():
        assert cert.uncolored == e and cert.k == 3
        assert_proper(cert)


def assert_same_coloring(a, b):
    assert a == b
    assert a._core.present == b._core.present
    assert a._core.slot == b._core.slot


def test_propagation_leaves_input_and_certificates_unshared():
    # the cubic split with one non-critical edge (3, 4): slides stall here,
    # so the swap phase reads Kempe-swapped views of the reached colorings
    g = vertex_split(parse_graph6("G@Umf?"), 0, (5, 6), (7,))
    phi = find_coloring(g, 3, hole=(0, 8))
    text = phi.to_text()
    certs = propagate_certificates(phi)
    assert_same_coloring(phi, coloring_from_text(g, text))
    assert sorted(certs) == [e for e in g.sorted_edges() if e != (3, 4)]
    assert certs[(0, 8)] == phi
    for cert in certs.values():
        assert_same_coloring(cert, coloring_from_text(g, cert.to_text()))


def assert_same_certificates(got, want):
    assert list(got) == list(want)
    for e in want:
        assert got[e].to_text() == want[e].to_text()
        assert_same_coloring(got[e], want[e])


def test_propagation_matches_flipping_reference_on_sweep_seeds(monkeypatch):
    flips = []
    real_flip = MutableColoring.flip

    def counted_flip(self, *args):
        flips.append(args)
        real_flip(self, *args)

    walks = []
    real_walk = coloring._walk

    def counted_walk(*args):
        walks.append(args)
        return real_walk(*args)

    monkeypatch.setattr(MutableColoring, "flip", counted_flip)
    plan = plan_instances(SweepConfig(m_max=8, mode="conjecture"))
    assert len(plan) == 107  # every instance of `sweep --m-max 8`
    propagation_walks = 0
    for inst in plan:
        base = parse_graph6(inst.base_graph6)
        phi = coloring_from_text(base, inst.base_coloring_text)
        seed = inherit_split_coloring(phi, inst.vertex, inst.part_a, inst.part_b)
        monkeypatch.setattr(coloring, "_walk", counted_walk)
        certs = propagate_certificates(seed)
        monkeypatch.setattr(coloring, "_walk", real_walk)
        propagation_walks += len(walks)
        walks.clear()
        assert flips == []  # each Kempe swap is read, never written
        assert_same_certificates(certs, propagate_by_flips(seed))
    # a path is walked only when its view could reach an unreached edge;
    # walking every path at a hole end took 1,899 walks
    assert propagation_walks == 804


def test_propagation_needs_a_hole():
    with pytest.raises(ColoringError, match="no uncolored edge"):
        propagate_certificates(triangle_coloring())


# ------------------------------------------------------------ properties

@settings(max_examples=60, deadline=None)
@given(class_two_graphs())
def test_propagated_certificates_are_hole_colorings(g):
    delta = g.max_degree()
    seeds = (find_coloring(g, delta, hole=e) for e in g.sorted_edges())
    phi = next((s for s in seeds if s is not None), None)
    if phi is None:
        return  # no edge of this host is critical
    certs = propagate_certificates(phi)
    assert certs[phi.uncolored] is phi  # the seed is its own certificate
    for e, cert in certs.items():
        assert cert.graph == g and cert.uncolored == e and cert.k == delta
        assert_proper(cert)
        assert is_critical_by_deletion(g, e)


@settings(max_examples=60, deadline=None)
@given(class_two_graphs())
def test_propagation_matches_flipping_reference_on_class_two_hosts(g):
    delta = g.max_degree()
    for e in g.sorted_edges():
        phi = find_coloring(g, delta, hole=e)
        if phi is not None:
            assert_same_certificates(propagate_certificates(phi), propagate_by_flips(phi))


def assert_core_consistent(core, n, k):
    """The flat slot list, present masks and edge map of an n-vertex, k-color
    core agree."""
    w = k + 1
    assert core.width == w and len(core.slot) == n * w and len(core.present) == n
    want = [None] * (n * w)
    for (u, v), c in core.col.items():
        want[u * w + c], want[v * w + c] = v, u
    assert core.slot == want  # entry u * w + c is v exactly when col[(u, v)] == c
    assert all(core.slot[v * w] is None for v in range(n))  # color 0 is no color
    for v in range(n):
        assert core.present[v] == sum(1 << c for c in range(w) if core.slot[v * w + c] is not None)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_every_core_operation_keeps_slots_masks_and_edges_consistent(g, data):
    col = vizing_color(g)
    k = col.k
    assert_core_consistent(col._core, g.n, k)
    x = data.draw(st.integers(0, g.n - 1))
    alpha = data.draw(st.integers(1, k))
    beta = data.draw(st.integers(1, k).filter(lambda c: c != alpha))
    assert_core_consistent(kempe_swap(col, x, alpha, beta)._core, g.n, k)
    vertices, _, is_cycle = kempe_chain(col, x, alpha, beta)
    y = data.draw(st.sampled_from(vertices))
    if not is_cycle and y != x:
        try:
            assert_core_consistent(subchain_swap(col, x, y, alpha, beta)._core, g.n, k)
        except ImproperColoringError:
            pass  # a segment boundary inside the chain; nothing is built
    e = data.draw(st.sampled_from(g.sorted_edges()))
    to = data.draw(st.integers(1, k))
    try:
        assert_core_consistent(recolor_edge(col, *e, to)._core, g.n, k)
    except ImproperColoringError:
        pass  # `to` is already at an end of e
    core = MutableColoring(g.n, k)
    for (u, v), c in col.colored_items():
        core.set(u, v, c)
    assert_core_consistent(core, g.n, k)
    second = data.draw(st.sampled_from(sorted(_bits(core.missing(x)))))  # k = Delta + 1
    first = data.draw(st.integers(1, k).filter(lambda c: c != second))
    core.flip(x, first, second)
    assert_core_consistent(core, g.n, k)
    core.clear(*e)
    assert_core_consistent(core, g.n, k)
    holed = PartialEdgeColoring(g, k, core.col, e)
    assert_core_consistent(holed._core, g.n, k)
    for cert in propagate_certificates(holed).values():
        assert_core_consistent(cert._core, g.n, k)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_kempe_swap_involution(g, data):
    col = vizing_color(g)
    assert_proper(col)
    x = data.draw(st.integers(0, g.n - 1))
    alpha = data.draw(st.integers(1, col.k))
    beta = data.draw(st.integers(1, col.k).filter(lambda c: c != alpha))
    once = kempe_swap(col, x, alpha, beta)
    assert_proper(once)
    assert kempe_swap(once, x, alpha, beta) == col


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_parity_census_matches_vertex_parity(g):
    col = vizing_color(g)
    census = parity_census(col)
    assert set(census) == set(range(1, col.k + 1))
    for count in census.values():
        assert count % 2 == g.n % 2


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.data())
def test_subchain_full_segment_matches_component_swap(g, data):
    col = vizing_color(g)
    x = data.draw(st.integers(0, g.n - 1))
    alpha = data.draw(st.integers(1, col.k))
    beta = data.draw(st.integers(1, col.k).filter(lambda c: c != alpha))
    vertices, _, is_cycle = kempe_chain(col, x, alpha, beta)
    if is_cycle or len(vertices) < 2:
        return
    a, b = vertices[0], vertices[-1]
    out = subchain_swap(col, a, b, alpha, beta)
    assert out == kempe_swap(col, x, alpha, beta)
