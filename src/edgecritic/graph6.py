"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix column by column
(x(0,1), x(0,2), x(1,2), x(0,3), ...) into 6-bit groups offset by 63. Orders
up to 62 use a single header byte; orders 63..258047 use '~' plus three bytes.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, make_graph

_HEADER = ">>graph6<<"
_MAX_ORDER = 258047


class Graph6Error(GraphError):
    """Malformed or out-of-range graph6 text."""


def _column_pairs(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def emit_graph6(graph: Graph) -> str:
    n = graph.n
    if n > _MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds graph6 limit {_MAX_ORDER}")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    group = 0
    filled = 0
    for i, j in _column_pairs(n):
        group = group << 1 | (1 if graph.has_edge(i, j) else 0)
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = 0
            filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def _describe(ch: str) -> str:
    """An input character for an error message; a surrogate escape (an
    undecodable input byte, see PEP 383) is named as the byte it stands for."""
    if 0xDC80 <= ord(ch) <= 0xDCFF:
        return f"byte 0x{ord(ch) - 0xDC00:02x}"
    return f"character {ch!r} (U+{ord(ch):04X})"


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"{_describe(ch)} outside graph6 range 63..126")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("orders above 258047 are not supported")
        if len(s) < 4:
            raise Graph6Error("truncated order field")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        if n <= 62:
            raise Graph6Error(f"non-minimal order encoding for n={n}")
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} body bytes for order {n}, got {len(body)}")
    bits = 0
    for ch in body:
        bits = bits << 6 | (ord(ch) - 63)
    pad = need * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bits >>= pad
    edges = []
    for pos, (i, j) in enumerate(_column_pairs(n)):
        if bits >> (nbits - 1 - pos) & 1:
            edges.append((i, j))
    return make_graph(n, edges)
