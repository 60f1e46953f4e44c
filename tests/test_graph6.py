import networkx as nx
import pytest
from hypothesis import given, settings

from edgecritic.graph6 import (
    Graph6Error,
    emit_graph6,
    parse_graph6,
)
from edgecritic.graphs import Graph, complete, make_graph, petersen

from conftest import small_graphs


def test_k5_vector():
    g = parse_graph6("D~{")
    assert g.n == 5
    assert g.edge_count() == 10
    assert emit_graph6(complete(5)) == "D~{"


def test_known_emissions():
    assert emit_graph6(make_graph(0, [])) == "?"
    assert emit_graph6(make_graph(1, [])) == "@"
    assert emit_graph6(complete(4)) == "C~"
    assert emit_graph6(petersen()) == "IheA@GUAo"


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<D~{") == complete(5)


def test_whitespace_tolerated():
    assert parse_graph6(" D~{\n") == complete(5)


@settings(max_examples=150)
@given(small_graphs(min_m=0))
def test_roundtrip(g):
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=80)
@given(small_graphs(min_m=0))
def test_agrees_with_networkx(g):
    ours = emit_graph6(g)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert ours == theirs


def test_long_form_order():
    g = make_graph(63, [(0, 1), (10, 62)])
    text = emit_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_emit_refuses_orders_above_the_graph6_limit():
    # an empty graph with no adjacency: the order alone is refused
    with pytest.raises(Graph6Error, match="order 258048 exceeds graph6 limit 258047"):
        emit_graph6(Graph(258048, frozenset(), (), 0))


def test_parse_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D~")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6("D~{{")  # extra body
    with pytest.raises(Graph6Error):
        parse_graph6("D\x1f{")  # byte below 63
    with pytest.raises(Graph6Error):
        parse_graph6("~?")  # truncated order field
    with pytest.raises(Graph6Error):
        parse_graph6("~~????")  # 258048+ unsupported
    with pytest.raises(Graph6Error):
        # order 5 must use the short header, not the '~' form
        parse_graph6("~??D~{")


def test_nonzero_padding_rejected():
    # n=3 uses 3 pair bits and 3 padding bits in its single body byte
    assert parse_graph6("B?").edge_count() == 0
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(63 + 0b000100))
