import math

import pytest

from poscol import families
from poscol.errors import GraphInputError
from poscol.families import (
    FamilySpec,
    complementary_prism,
    generate,
    kneser2_graph,
    line_complete_graph,
    pair_ids,
    parse_family,
    part_ranges,
    random_block_graph,
    random_connected_graph,
    random_graph,
    random_split_graph,
    resolve,
    turan_parts,
)
from poscol.graph6 import graph6_encode
from poscol.graphs import diameter, is_block_graph, is_connected
from poscol.position import PositionKind, position_number


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["cycle:9", "kneser2:7", "cartesian(path:4,path:6)", "h:5,5",
         "complete_minus_cliques:7,3", "complementary_prism(split_random:6,1)",
         "strong(path:3,cycle:5)", "random:8,0.5,42"],
    )
    def test_roundtrip(self, text):
        spec = parse_family(text)
        assert parse_family(str(spec)) == spec

    def test_bad_inputs(self):
        for text in ["", "cycle:x", "cartesian(path:3)", "cartesian(path:3,path:4"]:
            with pytest.raises(GraphInputError):
                parse_family(text)
        # unknown family names surface at generation time
        with pytest.raises(GraphInputError):
            generate(parse_family("wibble:3"))
        with pytest.raises(GraphInputError):
            generate(FamilySpec("nosuch", ()))


# one valid argument tuple for each leaf family in the table
LEAF_EXAMPLES = {
    "path": (4,), "cycle": (5,), "complete": (3,), "multipartite": (3, 2),
    "turan": (3, 7), "kneser2": (5,), "line_complete": (4,),
    "tree_leaves": (3, 2), "t": (2, 4), "h": (3, 2), "j": (2, 2),
    "g_star": (3, 5), "g": (3, 4), "s": (2, 3), "q": (5,), "k_gadget": (3,),
    "complete_minus_cliques": (7, 3), "cycle_join_clique": (2, 6),
    "split_random": (6, 1), "block_random": (6, 2), "random": (6, 0.5, 3),
}


class TestFamilyTable:
    def test_examples_cover_the_table(self):
        assert set(LEAF_EXAMPLES) == set(families._FAMILIES)

    @pytest.mark.parametrize("name", sorted(LEAF_EXAMPLES))
    def test_every_leaf_resolves_and_generates(self, name):
        spec = FamilySpec(name, LEAF_EXAMPLES[name])
        assert resolve(spec) == spec
        assert generate(spec).n >= 1

    @pytest.mark.parametrize("name", sorted(LEAF_EXAMPLES))
    def test_a_wrong_argument_count_raises(self, name):
        args = LEAF_EXAMPLES[name]
        # multipartite takes any number of parts, so only none is wrong
        wrong = () if name == "multipartite" else args + (1,)
        with pytest.raises(GraphInputError):
            resolve(FamilySpec(name, wrong))
        with pytest.raises(GraphInputError):
            generate(FamilySpec(name, wrong))


class TestElementaryFamilies:
    def test_path_cycle_complete(self):
        assert generate(parse_family("path:6")).m == 5
        assert generate(parse_family("cycle:6")).m == 6
        assert generate(parse_family("complete:6")).m == 15

    def test_petersen_is_kneser52(self):
        g = generate(parse_family("petersen"))
        assert g.n == 10 and all(g.degree(v) == 3 for v in range(10))
        assert diameter(g) == 2
        assert resolve(parse_family("petersen")) == FamilySpec("kneser2", (5,))

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_pair_ids_number_the_pair_graphs(self, n):
        ids = pair_ids(n)
        assert list(ids.values()) == list(range(math.comb(n, 2)))
        for make in (line_complete_graph, kneser2_graph) if n >= 5 else (line_complete_graph,):
            assert list(make(n).labels) == list(ids)

    def test_pair_graphs_match_their_definitions(self):
        """K(n,2) joins disjoint 2-subsets of [n], L(K_n) those that meet."""
        for n in range(2, 13):
            pairs = list(pair_ids(n))
            for make, disjoint in ((kneser2_graph, True), (line_complete_graph, False)):
                if make is kneser2_graph and n < 5:
                    continue
                g = make(n)
                assert list(g.labels) == pairs
                for i, p in enumerate(pairs):
                    assert g.adj[i] == {j for j, q in enumerate(pairs)
                                        if j != i and (not set(p) & set(q)) == disjoint}, (n, p)

    @pytest.mark.parametrize("a, n", [(1, 1), (3, 8), (4, 4), (5, 7)])
    def test_turan_parts_and_ranges_number_the_turan_graph(self, a, n):
        parts = turan_parts(a, n)
        assert sum(parts) == n and max(parts) - min(parts) <= 1
        labels = generate(parse_family(f"turan:{a},{n}")).labels
        for idx, part in enumerate(part_ranges(parts)):
            assert all(labels[v] == idx for v in part)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_kneser_regularity(self, n):
        g = generate(parse_family(f"kneser2:{n}"))
        assert g.n == math.comb(n, 2)
        deg = math.comb(n - 2, 2)
        assert all(g.degree(v) == deg for v in range(g.n))

    def test_line_complete_k4_is_octahedron(self):
        g = generate(parse_family("line_complete:4"))
        assert g.n == 6 and all(g.degree(v) == 4 for v in range(6))

    def test_line_graph_is_kneser_complement(self):
        from poscol.graphs import complement

        lk = generate(parse_family("line_complete:6"))
        kn = generate(parse_family("kneser2:6"))
        assert sorted(complement(lk).edges()) == sorted(kn.edges())

    def test_multipartite_requires_descending(self):
        with pytest.raises(GraphInputError):
            generate(parse_family("multipartite:1,3"))

    def test_turan(self):
        g = generate(parse_family("turan:3,8"))
        assert g.n == 8
        # parts 3,3,2: size = 8*8/2 - (9+9+4)/2 = 21
        assert g.m == 21


class TestRealisationFamilies:
    def test_h_structure(self):
        g = generate(parse_family("h:5,5"))
        assert g.n == 16 and diameter(g) == 7

    def test_h_param_check(self):
        with pytest.raises(GraphInputError):
            generate(parse_family("h:2,4"))

    def test_k_gadget(self):
        g = generate(parse_family("k_gadget:4"))
        assert g.n == 8 and g.m == 12  # K44 minus a perfect matching

    @pytest.mark.parametrize("r,s", [(3, 0), (3, 2), (4, 1), (5, 5)])
    def test_h_holds_the_k_gadget(self, r, s):
        """h:r,s on its first 2r vertices is k_gadget:r, edges and labels."""
        h, gadget = generate(parse_family(f"h:{r},{s}")), generate(parse_family(f"k_gadget:{r}"))
        assert sorted(e for e in h.edges() if max(e) < 2 * r) == sorted(gadget.edges())
        assert list(h.labels[: 2 * r]) == list(gadget.labels)

    def test_q_gp_number_three(self):
        for r in range(4, 9):
            g = generate(parse_family(f"q:{r}"))
            assert g.n == r + 1
            assert position_number(g, PositionKind.GP).value == 3

    def test_tree_families_are_block_graphs(self):
        for text in ["tree_leaves:4,3", "t:3,6", "s:4,3", "g:3,5"]:
            assert is_block_graph(generate(parse_family(text))), text

    def test_g_star_diameter_two(self):
        g = generate(parse_family("g_star:4,9"))
        assert g.n == 9 and diameter(g) == 2

    def test_complete_minus_cliques(self):
        g = generate(parse_family("complete_minus_cliques:7,3"))
        assert g.n == 7 and g.m == math.comb(7, 2) - 1 - 3

    def test_cycle_join_clique(self):
        g = generate(parse_family("cycle_join_clique:3,7"))
        assert g.n == 7

    def test_complementary_prism_size(self):
        base = generate(parse_family("path:4"))
        g = complementary_prism(base)
        assert g.n == 8
        assert g.m == base.m + (math.comb(4, 2) - base.m) + 4


class TestSeededGenerators:
    def test_block_generator_always_block(self):
        for seed in range(100):
            assert is_block_graph(random_block_graph(12, seed))

    def test_split_generator_connected_noncomplete(self):
        for seed in range(50):
            g = random_split_graph(9, seed)
            assert is_connected(g)
            assert g.m < math.comb(9, 2)

    def test_random_graph_reproducible(self):
        a = graph6_encode(random_graph(8, 0.5, 7))
        b = graph6_encode(random_graph(8, 0.5, 7))
        assert a == b

    def test_connected_generator(self):
        for seed in range(30):
            assert is_connected(random_connected_graph(3 + seed % 7, 0.3, seed))

    def test_generate_is_deterministic(self):
        a = generate(parse_family("split_random:9,3"))
        b = generate(parse_family("split_random:9,3"))
        assert a.edges() == b.edges()
