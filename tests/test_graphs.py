import math
import random

import pytest

from conftest import PETERSEN_EDGES, complete, cycle, metric_graphs, path, random_graph
from oracles import (
    INF,
    all_induced_paths,
    floyd_warshall,
    oracle_components,
    oracle_is_block_graph,
    oracle_monophonic_diameter,
    row_layers,
)
from poscol.catalogue import graphs_of_order
from poscol.errors import BudgetExceededError, GraphInputError, Limits
from poscol.graphs import (
    adjacency_masks,
    build_graph,
    complement,
    component_masks,
    degree_order,
    diameter,
    disjoint_union,
    distance_layers,
    extreme_vertices,
    induced_paths,
    is_block_graph,
    is_diamond_free,
    is_connected,
    is_disjoint_union_of_cliques,
    join,
    layer_walk,
    monophonic_diameter,
    product,
    relabel,
)


class TestBuildGraph:
    def test_cycle(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_duplicate_edges_collapse(self):
        g = build_graph(4, [(0, 1), (0, 1), (1, 2)])
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(1, 1)])


class TestDistances:
    def test_cycle_distance(self):
        assert distance_layers(cycle(5))[0] == (0b1, 0b10010, 0b01100)

    def test_petersen_diameter_two(self):
        pet = build_graph(10, PETERSEN_EDGES)
        assert all(len(row) == 3 for row in distance_layers(pet))
        assert diameter(pet) == 2

    def test_disconnected_infinite(self):
        """A pair in distinct components is in no layer of either vertex."""
        g = build_graph(2, [])
        assert distance_layers(g) == ((0b01,), (0b10,))
        assert component_masks(g) == (0b01, 0b10) and not is_connected(g)

    def test_matches_floyd_warshall(self):
        """The layers, the component masks, the eccentricities and diam* agree
        with Floyd-Warshall, and so do those of a relabelled copy."""
        rng = random.Random(12)
        for g in metric_graphs():
            perm = list(range(g.n))
            rng.shuffle(perm)
            dist = floyd_warshall(g)
            self.check_metric(g, range(g.n), dist)
            self.check_metric(relabel(g, perm), perm, dist)

    @staticmethod
    def check_metric(h, name, dist):
        """``h`` is a copy of the graph with matrix ``dist``, vertex v renamed ``name[v]``."""
        n = len(dist)
        reach = [{u for u in range(n) if dist[v][u] is not INF} for v in range(n)]
        for v in range(n):
            layers = [0] * (1 + max(dist[v][u] for u in reach[v]))
            for u in reach[v]:
                layers[dist[v][u]] |= 1 << name[u]
            assert distance_layers(h)[name[v]] == tuple(layers)
            assert len(distance_layers(h)[name[v]]) - 1 == max(dist[v][u] for u in reach[v])
            assert component_masks(h)[name[v]] == sum(1 << name[u] for u in reach[v])
        assert is_connected(h) == (len({frozenset(r) for r in reach}) <= 1)
        assert diameter(h) == max((dist[v][u] for v in range(n) for u in reach[v]), default=0)

    def test_infinity_is_not_an_integer(self):
        """``Graph.distance_matrix``, read off the layers, is Floyd-Warshall's matrix."""
        g = build_graph(3, [(0, 1)])
        d = g.distance_matrix()[0][2]
        assert d == math.inf and not isinstance(d, int)
        assert [list(row) for row in g.distance_matrix()] == floyd_warshall(g)


class TestLayerWalk:
    @staticmethod
    def expected(layers, targets):
        """The targets by distance up to the farthest one, or, when one lies
        in another component, through the whole component and an empty layer."""
        if targets & ~sum(layers):
            return [x & targets for x in layers] + [0]
        depth = max((d for d, x in enumerate(layers) if x & targets), default=0)
        return [x & targets for x in layers[: depth + 1]]

    def test_matches_floyd_warshall(self):
        """From every source of the metric graphs (the catalogue graphs of order
        <= 6 among them, with disconnected graphs and isolated vertices): toward
        the whole component the walk gives the Floyd-Warshall row's layers, and
        toward seeded target sets the targets among them."""
        rng = random.Random(20)
        for g in metric_graphs():
            adj = [sum(1 << u for u in g.adj[v]) for v in range(g.n)]
            for a, row in enumerate(floyd_warshall(g)):
                layers = row_layers(row)
                assert layer_walk(adj, a, sum(layers)) == layers, (g.edges(), a)
                for _ in range(3):
                    targets = sum(1 << u for u in range(g.n) if rng.random() < 0.3)
                    assert layer_walk(adj, a, targets) == self.expected(layers, targets), (
                        g.edges(), a, targets,
                    )


def sweep_graphs():
    """Every catalogue graph of order 1 to 7, and the catalogue graphs of order
    at most 4 with isolated vertices beside them, before and after."""
    out = [g for n in range(1, 8) for g in graphs_of_order(n)]
    for n in range(1, 5):
        for g in graphs_of_order(n):
            out += [disjoint_union(build_graph(1, []), g), disjoint_union(g, build_graph(2, []))]
    return out


class TestSweepByProducts:
    """What the one sweep of ``distance_layers`` leaves behind besides the
    layers: the component masks, the diameters, and the cached degree order."""

    @pytest.mark.parametrize("part", range(4))
    def test_components_and_diameters(self, part):
        for g in sweep_graphs()[part::4]:
            n = g.n
            walked = component_masks(build_graph(n, g.edges()))  # a fresh graph, no sweep
            distance_layers(g)
            swept = component_masks(g)
            comps = oracle_components(g)
            expect = [0] * n
            for comp in comps:
                for v in comp:
                    expect[v] = sum(1 << u for u in comp)
            assert swept == walked == tuple(expect), g.edges()
            dist = floyd_warshall(g)
            for comp in comps:  # a component's diameter is its largest eccentricity
                for v in comp:
                    assert len(distance_layers(g)[v]) - 1 == max(dist[v][w] for w in comp), g.edges()
            assert diameter(g) == max(max(dist[u][w] for u in comp for w in comp) for comp in comps)

    @pytest.mark.parametrize("part", range(4))
    def test_adjacency_masks_are_the_same_on_both_routes(self, part):
        """Masks summed on a fresh graph, masks read off the sweep, and the
        bits of ``g.adj`` agree, isolated vertices included."""
        for g in sweep_graphs()[part::4]:
            summed = adjacency_masks(build_graph(g.n, g.edges()))  # a fresh graph, no sweep
            distance_layers(g)
            assert "adjacency_masks" not in g._memo
            read = adjacency_masks(g)
            assert summed == read == tuple(sum(1 << u for u in g.adj[v]) for v in range(g.n)), (
                g.edges(),
            )

    def test_degree_order_is_one_tuple(self):
        for g in sweep_graphs():
            order = degree_order(g)
            assert isinstance(order, tuple) and degree_order(g) is order
            assert list(order) == sorted(range(g.n), key=lambda v: (-g.degree(v), v))


class TestDiameter:
    def test_path(self):
        assert diameter(path(5)) == 4

    def test_componentwise_max(self):
        g = disjoint_union(complete(3), path(3))
        assert diameter(g) == 2
        assert len(set(component_masks(g))) == 2

    def test_h55(self):
        from poscol.families import h_graph

        assert diameter(h_graph(5, 5)) == 7


class TestMonophonicDiameter:
    def test_cycle_six_matches_enumeration(self):
        g = cycle(6)
        assert oracle_monophonic_diameter(g) == 4
        assert monophonic_diameter(g) == 4

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_paths(self, n):
        assert monophonic_diameter(path(n)) == n - 1

    def test_clique(self):
        assert monophonic_diameter(complete(5)) == 1

    @staticmethod
    def enumeration_graphs():
        """Forty seeded random graphs on up to 9 vertices and the metric graphs,
        each with a randomly relabelled copy: ``(g, copy, perm)``, vertex v of
        ``g`` being ``perm[v]`` in ``copy``."""
        rng = random.Random(5)
        graphs = [random_graph(rng.randint(1, 9), rng.random(), rng) for _ in range(40)]
        for g in graphs + metric_graphs():
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield g, relabel(g, perm), perm

    def test_matches_enumeration_random(self):
        for g, copy, _ in self.enumeration_graphs():
            expect = oracle_monophonic_diameter(g)
            assert monophonic_diameter(g) == monophonic_diameter(copy) == expect, g.edges()

    def test_walk_masks_match_enumeration(self):
        """``between`` and ``beyond`` against explicit induced-path enumeration."""
        for g, copy, perm in self.enumeration_graphs():
            paths = all_induced_paths(g)
            for h, name in ((g, range(g.n)), (copy, perm)):
                between = [[0] * g.n for _ in range(g.n)]
                beyond = [[0] * g.n for _ in range(g.n)]
                for p in paths:
                    a, b = name[p[0]], name[p[-1]]
                    between[a][b] |= sum(1 << name[x] for x in p)
                    for x in p[1:-1]:
                        beyond[a][name[x]] |= 1 << b
                walk = induced_paths(h)
                assert walk.between == tuple(map(tuple, between)), g.edges()
                assert walk.beyond == tuple(map(tuple, beyond)), g.edges()

    def test_budget_is_hard_error(self):
        with pytest.raises(BudgetExceededError):
            monophonic_diameter(cycle(12), Limits(node_limit=5))
        g = cycle(40)  # 3040 induced paths, so the walk is stopped midway
        with pytest.raises(BudgetExceededError):
            monophonic_diameter(g, Limits(node_limit=5))
        assert "induced_paths" not in g._memo
        assert monophonic_diameter(g) == 38

    def test_a_spent_budget_stops_the_walk_before_it_starts(self):
        budget = Limits(node_limit=0).ticker()
        with pytest.raises(BudgetExceededError):
            budget.tick()
        with pytest.raises(BudgetExceededError):
            induced_paths(cycle(12), budget)
        assert budget.nodes_left == -1


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete(4)).m == 0

    def test_c5_self_complementary(self):
        from oracles import canonical_key

        assert canonical_key(complement(cycle(5))) == canonical_key(cycle(5))

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng.randint(1, 10), rng.random(), rng)
            assert sorted(complement(complement(g)).edges()) == sorted(g.edges())


class TestProducts:
    def test_cartesian_p2_p2_is_c4(self):
        g = product("cartesian", path(2), path(2))
        assert g.n == 4 and g.m == 4 and all(g.degree(v) == 2 for v in range(4))

    def test_strong_p2_p2_is_k4(self):
        g = product("strong", path(2), path(2))
        assert g.m == 6

    def test_grid_diameter(self):
        g = product("cartesian", path(4), path(6))
        assert g.n == 24 and diameter(g) == 8

    @staticmethod
    def check_product_metric(g, n2, distance):
        """Vertex i * n2 + j of ``g`` is the cell (i, j), and ``distance(i, j, p, q)``
        is the distance between cells (i, j) and (p, q), ``INF`` across components."""
        cells = [divmod(v, n2) for v in range(g.n)]
        for v, (i, j) in enumerate(cells):
            expected = row_layers([distance(i, j, p, q) for p, q in cells])
            assert distance_layers(g)[v] == tuple(expected), (g.n, n2, i, j)

    def test_cartesian_distance_additivity(self):
        rng = random.Random(17)
        for _ in range(50):
            a = random_graph(rng.randint(1, 5), 0.6, rng)
            b = random_graph(rng.randint(1, 5), 0.6, rng)
            da, db = floyd_warshall(a), floyd_warshall(b)
            self.check_product_metric(
                product("cartesian", a, b), b.n, lambda i, j, p, q: da[i][p] + db[j][q]
            )

    def test_strong_distance_is_the_max(self):
        rng = random.Random(18)
        for _ in range(50):
            a = random_graph(rng.randint(1, 5), 0.6, rng)
            b = random_graph(rng.randint(1, 5), 0.6, rng)
            da, db = floyd_warshall(a), floyd_warshall(b)
            self.check_product_metric(
                product("strong", a, b), b.n, lambda i, j, p, q: max(da[i][p], db[j][q])
            )

    @pytest.mark.parametrize("kind", ["cartesian", "strong"])
    def test_path_and_cycle_product_metrics(self, kind):
        """In products of paths and cycles, in either order, vertex i * n2 + j
        is the cell (i, j); a path factor measures |i - j|, a cycle factor
        C_n the cyclic distance min(|i - j|, n - |i - j|), and the product
        adds them (Cartesian) or takes their max (strong)."""
        def factor_distance(name, n, i, j):
            return abs(i - j) if name == "path" else min(abs(i - j), n - abs(i - j))

        combine = max if kind == "strong" else (lambda x, y: x + y)
        make = {"path": path, "cycle": cycle}
        for (f1, n1), (f2, n2) in [
            (("path", 4), ("cycle", 7)), (("cycle", 7), ("path", 4)),
            (("path", 1), ("cycle", 6)), (("cycle", 5), ("cycle", 8)),
            (("path", 6), ("path", 3)), (("cycle", 3), ("path", 5)),
        ]:
            self.check_product_metric(
                product(kind, make[f1](n1), make[f2](n2)), n2,
                lambda i, j, p, q: combine(factor_distance(f1, n1, i, p), factor_distance(f2, n2, j, q)),
            )

    def test_empty_factor_rejected(self):
        with pytest.raises(GraphInputError):
            product("cartesian", build_graph(0, []), path(2))


class TestJoinUnion:
    def test_butterfly(self):
        g = join(complete(1), disjoint_union(complete(2), complete(2)))
        assert g.n == 5 and diameter(g) == 2

    def test_cycle_join_clique(self):
        g = join(cycle(5), complete(2))
        assert g.n == 7 and g.m == 5 + 1 + 10

    def test_disjoint_union(self):
        g = disjoint_union(complete(3), complete(3))
        assert g.n == 6 and g.m == 6 and len(set(component_masks(g))) == 2


class TestPredicates:
    def test_extreme_path(self):
        assert extreme_vertices(path(4)) == {0, 3}

    def test_extreme_clique(self):
        assert extreme_vertices(complete(5)) == set(range(5))

    def test_extreme_cycle_empty(self):
        assert extreme_vertices(cycle(5)) == set()

    def test_grid_diamond_free(self):
        assert is_diamond_free(product("cartesian", path(4), path(4)))

    def test_diamond_itself(self):
        assert not is_diamond_free(build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))

    def test_petersen_diamond_free(self):
        # triangle-free by inspection of its girth, hence diamond-free
        assert is_diamond_free(build_graph(10, PETERSEN_EDGES))

    def test_block_graph_cases(self):
        assert is_block_graph(path(6))
        assert not is_block_graph(cycle(4))
        two_k4 = build_graph(
            7,
            [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(i, j) for i in range(3, 7) for j in range(i + 1, 7)],
        )
        assert is_block_graph(two_k4)

    def test_block_graph_matches_cycle_oracle(self):
        rng = random.Random(23)
        for _ in range(120):
            g = random_graph(rng.randint(1, 9), rng.random() * 0.7, rng)
            assert is_block_graph(g) == oracle_is_block_graph(g)

    def test_disjoint_union_of_cliques(self):
        assert is_disjoint_union_of_cliques(disjoint_union(complete(3), complete(1)))
        assert not is_disjoint_union_of_cliques(path(3))


def test_relabel_preserves_structure():
    g = build_graph(10, PETERSEN_EDGES)
    perm = [3, 1, 4, 0, 9, 2, 6, 8, 7, 5]
    h = relabel(g, perm)
    assert h.m == g.m
    assert diameter(h) == diameter(g)
