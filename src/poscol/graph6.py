"""graph6 text codec and adjacency-list JSON I/O.

graph6 layout: a size header (one byte ``n+63`` for ``n <= 62``, or ``~``
followed by three bytes holding 18 bits for ``n <= 258047``), then the upper
triangle of the adjacency matrix in column-major order ``x(0,1), x(0,2),
x(1,2), x(0,3), ...`` packed into 6-bit groups, each offset by 63.  Larger
graphs are rejected; this is a desk-scale tool.
"""

from __future__ import annotations

import json

from .errors import GraphInputError, json_int
from .graphs import Graph, adjacency_masks, build_graph

_MAX_N = 258047


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n > _MAX_N:
        raise GraphInputError(f"graph6 supports n <= {_MAX_N}, got {n}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    adj = adjacency_masks(g)
    # column j is x(0,j) .. x(j-1,j): the low j bits of adj[j], lowest first
    bits = "".join(format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphInputError("empty graph6 line")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise GraphInputError(f"invalid graph6 character {ch!r}")
    if s[0] == "~":
        if len(s) < 4:
            raise GraphInputError("truncated extended graph6 header")
        if s[1] == "~":
            raise GraphInputError("8-byte graph6 headers (n > 258047) not supported")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise GraphInputError(
            f"graph6 body has {len(body)} bytes, expected {expect} for n={n}"
        )
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    if "1" in bits[nbits:]:
        raise GraphInputError("nonzero padding bits in graph6 body")
    edges = []
    j = end = 1  # column j holds the bits end - j .. end - 1
    k = bits.find("1")
    while k != -1:
        while k >= end:
            j += 1
            end += j
        edges.append((k - end + j, j))
        k = bits.find("1", k + 1)
    return build_graph(n, edges)


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
        n = json_int(obj["n"], "field 'n'")
        edges = [(json_int(u, "an edge endpoint"), json_int(v, "an edge endpoint"))
                 for u, v in obj["edges"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise GraphInputError(f"bad graph JSON: {exc}") from exc
    return build_graph(n, edges)
