import random

import pytest

from conftest import path
from poscol.catalogue import catalogue_lines, graphs_of_order, verify_checksums
from poscol.errors import GraphInputError
from poscol.graph6 import graph6_decode, graph6_encode, graph_from_json, graph_to_json
from poscol.graphs import build_graph

# frozen reference encodings, cross-checked against networkx.to_graph6_bytes
# during development
REFERENCE = [
    (1, [], "@"),
    (2, [(0, 1)], "A_"),
    (3, [(0, 1), (1, 2)], "Bg"),
    (5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)], "Dhc"),
    (5, [(0, 4), (1, 4), (2, 4), (3, 4)], "D?{"),
]


@pytest.mark.parametrize("n,edges,expected", REFERENCE)
def test_reference_encodings(n, edges, expected):
    assert graph6_encode(build_graph(n, edges)) == expected


@pytest.mark.parametrize("n,edges,expected", REFERENCE)
def test_reference_decodings(n, edges, expected):
    g = graph6_decode(expected)
    assert g.n == n and sorted(g.edges()) == sorted(edges)


def test_spec_example_star_roundtrip():
    assert graph6_encode(graph6_decode("D?{")) == "D?{"


def test_p3_roundtrip_is_identity():
    g = path(3)
    back = graph6_decode(graph6_encode(g))
    assert back.n == 3 and back.edges() == g.edges()


def test_roundtrip_random_graphs():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(0, 20)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        back = graph6_decode(graph6_encode(g))
        assert back.n == n and sorted(back.edges()) == sorted(edges)


def test_extended_header_roundtrip():
    g = build_graph(100, [(0, 99), (42, 43)])
    s = graph6_encode(g)
    assert s.startswith("~")
    back = graph6_decode(s)
    assert back.n == 100 and sorted(back.edges()) == [(0, 99), (42, 43)]


def test_optional_marker_stripped():
    assert graph6_decode(">>graph6<<A_").m == 1


class TestMalformed:
    def test_bad_character(self):
        with pytest.raises(GraphInputError):
            graph6_decode("D\x1f!!")

    def test_truncated_body(self):
        with pytest.raises(GraphInputError):
            graph6_decode("D")

    def test_overlong_body(self):
        with pytest.raises(GraphInputError):
            graph6_decode("A__")

    def test_nonzero_padding(self):
        # K2 body is one 6-bit group with a single meaningful bit
        with pytest.raises(GraphInputError):
            graph6_decode("A" + chr(63 + 1))

    def test_huge_header_rejected(self):
        with pytest.raises(GraphInputError):
            graph6_decode("~~??????")

    def test_empty(self):
        with pytest.raises(GraphInputError):
            graph6_decode("  ")


def test_json_roundtrip():
    g = path(4)
    back = graph_from_json(graph_to_json(g))
    assert back.n == 4 and back.edges() == g.edges()


def test_json_malformed():
    with pytest.raises(GraphInputError):
        graph_from_json('{"edges": [[0, 1]]}')
    with pytest.raises(GraphInputError):
        graph_from_json("not json")


@pytest.mark.parametrize("text", [
    '{"n": 2, "edges": [[0, 1.9]]}',
    '{"n": 2, "edges": [["0", "1"]]}',
    '{"n": 2, "edges": [[true, 0]]}',
    '{"n": true, "edges": []}',
    '{"n": 2.0, "edges": []}',
])
def test_json_reads_only_integer_ids(text):
    with pytest.raises(GraphInputError, match="must be an integer"):
        graph_from_json(text)


class TestCatalogues:
    def test_counts(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
        for n, count in expected.items():
            assert len(catalogue_lines(n)) == count

    def test_checksums(self):
        results = verify_checksums()
        assert results and all(results.values())

    def test_graphs_decode(self):
        for g in graphs_of_order(4):
            assert g.n == 4

    def test_pairwise_nonisomorphic_n4(self):
        from oracles import canonical_key

        keys = {canonical_key(g) for g in graphs_of_order(4)}
        assert len(keys) == 11


@pytest.mark.parametrize("n", range(1, 8))
def test_encoding_reproduces_every_catalogue_line(n):
    for line in catalogue_lines(n):
        assert graph6_encode(graph6_decode(line)) == line
