import gc
import itertools
import random
import time
from functools import partial

import pytest

from conftest import (
    PETERSEN_GP_CLASSES,
    PETERSEN_MONO_CLASSES,
    complete,
    cycle,
    path,
    random_graph,
)
from oracles import (
    INF,
    floyd_warshall,
    oracle_chromatic_position,
    oracle_cochromatic,
    oracle_is_position_set,
    oracle_monophonic_diameter,
    oracle_position_number,
    oracle_total_domination,
)
from poscol import graphs, position, solver
from poscol.catalogue import graphs_of_order
from poscol.errors import (
    DEFAULT_LIMITS, TICK_BLOCK, UNLIMITED, BudgetExceededError, BudgetTicker, GraphInputError,
    Limits,
)
from poscol.families import generate, parse_family, random_connected_graph
from poscol.graph6 import graph6_decode
from poscol.graphs import (
    Graph,
    build_graph,
    degree_order,
    diameter,
    disjoint_union,
    is_disjoint_union_of_cliques,
    join,
    monophonic_diameter,
    product,
    relabel,
)
from poscol.position import ALL_KINDS, PositionKind, SetState, compiled, position_number
from poscol.reduction import check_equivalence, random_nae_instance
from poscol.solver import (
    Colouring,
    bounds,
    check_inequality_suite,
    chromatic_number,
    chromatic_number_with_colouring,
    chromatic_position_number,
    clique_cover,
    clique_cover_number,
    cochromatic_number,
    colouring_from_dict,
    colouring_to_dict,
    feasible_position_colouring,
    total_dominating_set,
    total_domination_number,
    verify_colouring,
)

K = PositionKind


class TestVerifyColouring:
    def test_petersen_figure_left_is_gp(self, petersen):
        c = Colouring.from_classes(10, PETERSEN_GP_CLASSES)
        assert verify_colouring(petersen, c, K.GP)

    def test_petersen_figure_left_is_not_mono(self, petersen):
        c = Colouring.from_classes(10, PETERSEN_GP_CLASSES)
        assert not verify_colouring(petersen, c, K.MONO)

    def test_petersen_figure_right_is_mono(self, petersen):
        c = Colouring.from_classes(10, PETERSEN_MONO_CLASSES)
        assert verify_colouring(petersen, c, K.MONO)

    def test_single_class_cycle_fails(self):
        c = Colouring.from_classes(6, [list(range(6))])
        assert not verify_colouring(cycle(6), c, K.GP)

    def test_malformed_colourings(self):
        with pytest.raises(GraphInputError):
            Colouring.from_classes(3, [[0, 1]])  # uncovered vertex
        with pytest.raises(GraphInputError):
            Colouring.from_classes(3, [[0, 1, 2], []])  # empty class
        with pytest.raises(GraphInputError):
            verify_colouring(path(4), Colouring.from_classes(3, [[0, 1, 2]]), K.GP)

    @pytest.mark.parametrize("classes, message", [
        ([[0, 3]], "vertex 3 out of range"),
        ([[0, -1]], "vertex -1 out of range"),
        ([[0, 1], [2, 1]], "vertex 1 assigned twice"),
        ([[0, 1]], "colouring leaves a vertex unassigned"),
        ([[0, 1, 2], []], "empty colour class"),
        # an unassigned vertex is reported before an empty class
        ([[0], [], [2]], "colouring leaves a vertex unassigned"),
    ])
    def test_each_malformed_colouring_names_its_fault(self, classes, message):
        with pytest.raises(GraphInputError) as caught:
            Colouring.from_classes(3, classes)
        assert str(caught.value) == message

    def test_json_roundtrip(self):
        c = Colouring.from_classes(4, [[0, 2], [1, 3]])
        obj = colouring_to_dict(c, K.GP)
        back, kind = colouring_from_dict(obj)
        assert back == c and kind is K.GP

    @pytest.mark.parametrize("obj", [
        {"n": 2, "classes": [[0, 1.5]]},
        {"n": 2, "classes": [["0", 1]]},
        {"n": 2, "classes": [[True, 0]]},
        {"n": True, "classes": [[0]]},
    ])
    def test_json_reads_only_integer_ids(self, obj):
        with pytest.raises(GraphInputError, match="must be an integer"):
            colouring_from_dict(obj)


class TestSolverSmallValues:
    def test_petersen_all_kinds(self, petersen):
        assert chromatic_position_number(petersen, K.GP).k == 2
        assert chromatic_position_number(petersen, K.MONO).k == 4
        assert chromatic_position_number(petersen, K.MU).k == 2
        assert chromatic_position_number(petersen, K.GP_I).k == 3

    @pytest.mark.parametrize("n", range(5, 16))
    def test_cycles_gp(self, n):
        assert chromatic_position_number(cycle(n), K.GP).k == -(-n // 3)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_cycles_mono(self, n):
        assert chromatic_position_number(cycle(n), K.MONO).k == -(-n // 2)

    def test_triangle_is_one_class(self):
        # C3 is a clique, so a single class suffices for gp and mono alike
        assert chromatic_position_number(cycle(3), K.GP).k == 1
        assert chromatic_position_number(cycle(3), K.MONO).k == 1

    def test_clique_gpi(self):
        assert chromatic_position_number(complete(4), K.GP_I).k == 4

    def test_result_is_verified_and_exact(self, petersen):
        r = chromatic_position_number(petersen, K.GP)
        assert r.verified and r.optimality == "exact"
        assert verify_colouring(petersen, r.colouring, K.GP)


def _starting_level(g, kind):
    """The level at which a solve starts its deepening."""
    cheap = solver._lower_bounds(g, kind, UNLIMITED.ticker())
    return max(solver._solve_bound(g, kind), *(value for value, _ in cheap))


class TestSolverAgainstBellBruteForce:
    """The solver, and the level it starts at, against exhaustive partitions."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_graphs_all_kinds(self, n):
        for g in graphs_of_order(n):
            for kind in ALL_KINDS:
                chi = oracle_chromatic_position(g, kind)
                assert chromatic_position_number(g, kind).k == chi, (g.edges(), kind)
                assert _starting_level(g, kind) <= chi, (g.edges(), kind)

    def test_order_six_all_graphs(self):
        for g in graphs_of_order(6):
            for kind in ALL_KINDS:
                chi = oracle_chromatic_position(g, kind)
                assert chromatic_position_number(g, kind).k == chi, (g.edges(), kind)
                assert _starting_level(g, kind) <= chi, (g.edges(), kind)


class TestSolverAgainstOraclesOnOrderSevenAndEight:
    """Seeded random graphs of order 7 and 8, some of them disconnected: each
    position chromatic number, the level its solve starts at, and chi, theta
    and zeta against exhaustive partitions."""

    @pytest.mark.parametrize("index", range(40))
    def test_random_graph(self, index):
        rng = random.Random(1000 + index)
        g = random_graph(7 + index % 2, rng.choice([0.3, 0.45, 0.6]), rng)
        for kind in ALL_KINDS:
            chi = oracle_chromatic_position(g, kind)
            assert chromatic_position_number(g, kind).k == chi, (g.edges(), kind)
            assert _starting_level(g, kind) <= chi, (g.edges(), kind)

        def pairs(cls):
            return itertools.combinations(cls, 2)

        def independent(cls):
            return all(b not in g.adj[a] for a, b in pairs(cls))

        def clique(cls):
            return all(b in g.adj[a] for a, b in pairs(cls))

        assert chromatic_number(g) == oracle_chromatic_position(g, K.GP, membership=independent)
        assert clique_cover_number(g) == oracle_chromatic_position(g, K.GP, membership=clique)
        assert cochromatic_number(g) == oracle_cochromatic(g)


class TestBounds:
    def test_cycle_nine_gp_lower(self):
        b = bounds(cycle(9), K.GP)
        assert b.lower >= 3

    def test_tree_diameter_lower(self):
        b = bounds(path(7), K.GP)
        assert b.lower >= 4 and b.lower_reason in ("diameter", "ceil(n/pi)")

    def test_clique_tight(self):
        b = bounds(complete(6), K.GP)
        assert (b.lower, b.upper) == (1, 1)

    @pytest.mark.parametrize("line", ["Fxf__", "Fhctg"])
    def test_total_domination_bound_admits_a_k4(self, line):
        # each holds a K4 but no induced diamond; the clique cover gives only 3
        b = bounds(graph6_decode(line), K.GP)
        assert (b.upper, b.upper_reason) == (2, "total domination")

    def test_grid_lower_bounds_come_from_pi(self):
        # the solver no longer computes pi up front; bounds() still does
        g = generate(parse_family("cartesian(path:4,path:6)"))
        lows = [(bounds(g, kind).lower, bounds(g, kind).lower_reason) for kind in ALL_KINDS]
        assert lows == [(v, "ceil(n/pi)") for v in (6, 12, 3, 6, 12, 3)]

    def test_bracket_solver_everywhere(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 7), 0.4, rng.randrange(10**6))
            for kind in ALL_KINDS:
                b = bounds(g, kind)
                k = chromatic_position_number(g, kind).k
                assert b.lower <= k <= b.upper, (g.edges(), kind, b, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lower_bound_is_the_largest_oracle_candidate(self, n):
        """The lower end and its reason are the largest of the candidates, each
        recomputed by an oracle: the trivial bound, the (monophonic) diameter
        bound, chi for the ``_i`` kinds and ceil(n/pi)."""
        for g in graphs_of_order(n):
            diam = max(d for row in floyd_warshall(g) for d in row if d is not INF)
            chi = oracle_chromatic_position(
                g, K.GP, membership=lambda cls: all(
                    b not in g.adj[a] for a, b in itertools.combinations(cls, 2)))
            for kind in ALL_KINDS:
                pi = oracle_position_number(g, kind)
                candidates = [(1, "trivial"), (-(-n // pi), "ceil(n/pi)")]
                if kind.base is K.GP:
                    candidates.append((-(-(diam + 1) // 2), "diameter"))
                if kind.base is K.MONO:
                    candidates.append(
                        (-(-(oracle_monophonic_diameter(g) + 1) // 2), "monophonic diameter"))
                if kind.independent:
                    candidates.append((chi, "chromatic number"))
                b = bounds(g, kind)
                assert (b.lower, b.lower_reason) == max(candidates), (g.edges(), kind)


class TestClassicParameters:
    def test_chromatic_petersen(self, petersen):
        assert chromatic_number(petersen) == 3

    def test_clique_cover(self):
        assert clique_cover_number(disjoint_union(complete(3), complete(3))) == 2

    def test_cochromatic_hub_of_triangles(self):
        g = join(complete(1), disjoint_union(disjoint_union(complete(3), complete(3)), complete(3)))
        assert cochromatic_number(g) == 3

    def test_total_domination_ladder(self):
        g = product("cartesian", path(2), path(7))
        assert total_domination_number(g) == 6

    def test_total_domination_of_paths_and_cycles(self):
        """gamma_t = floor(n/2) + ceil(n/4) - floor(n/4) on P_n and C_n; the
        bound ceil(uncovered / max degree) keeps all of them within 20 s."""
        budget = Limits(time_limit=20).ticker()
        for n in range(2, 101):
            expect = n // 2 + -(-n // 4) - n // 4
            assert total_domination_number(path(n), budget) == expect, n
            if n >= 3:
                assert total_domination_number(cycle(n), budget) == expect, n

    @pytest.mark.parametrize(
        "spec, value, used",
        [("path:50", 26, 865), ("cycle:60", 30, 1265), ("cartesian(path:5,path:8)", 14, 28464)],
    )
    def test_total_domination_charges_one_tick_per_node(self, spec, value, used):
        """The branch and bound charges each node it expands, the root
        included: a node limit of ``used`` answers, one fewer stops it.  Each
        call gets a fresh graph, since an answer is cached on its graph."""
        assert total_domination_number(generate(parse_family(spec)), Limits(node_limit=used)) == value
        with pytest.raises(BudgetExceededError):
            total_domination_number(generate(parse_family(spec)), Limits(node_limit=used - 1))

    def test_total_domination_after_a_budget_stop(self):
        """A stopped search caches nothing, so the next call gives the
        oracle's value; that answer is cached, and a spent budget reads it."""
        g = cycle(9)
        with pytest.raises(BudgetExceededError):
            total_dominating_set(g, Limits(node_limit=3))
        value, witness = total_dominating_set(g)
        assert value == len(witness) == oracle_total_domination(g)
        assert total_dominating_set(g, Limits(node_limit=0)) == (value, witness)

    def test_total_domination_isolated_rejected(self):
        with pytest.raises(GraphInputError):
            total_domination_number(build_graph(3, [(0, 1)]))

    def test_against_oracles(self):
        rng = random.Random(29)
        graphs = [
            random_connected_graph(rng.randint(2, 7), 0.45, rng.randrange(10**6)) for _ in range(25)
        ]
        graphs += [
            disjoint_union(
                random_connected_graph(3 + seed % 2, 0.5, seed), random_connected_graph(3, 0.7, seed)
            )
            for seed in range(6)
        ]
        graphs.append(build_graph(5, [(0, 1), (1, 2)]))  # two isolated vertices
        for g in graphs:
            def pairs(cls):
                return [(a, b) for i, a in enumerate(cls) for b in cls[i + 1:]]

            def independent(cls):
                return all(b not in g.adj[a] for a, b in pairs(cls))

            def clique(cls):
                return all(b in g.adj[a] for a, b in pairs(cls))

            chi, colouring = chromatic_number_with_colouring(g)
            assert chi == colouring.k == oracle_chromatic_position(g, K.GP, membership=independent)
            assert all(independent(cls) for cls in colouring.classes())
            assert chromatic_number(g) == chi
            theta, cover = clique_cover(g)
            assert theta == cover.k == oracle_chromatic_position(g, K.GP, membership=clique)
            assert all(clique(cls) for cls in cover.classes())
            assert clique_cover_number(g) == theta
            assert cochromatic_number(g) == oracle_cochromatic(g)
            if all(g.adj[v] for v in range(g.n)):
                assert total_domination_number(g) == oracle_total_domination(g)

    @pytest.mark.parametrize("parameter", [chromatic_number, cochromatic_number])
    def test_partition_search_stops_at_the_node_limit(self, monkeypatch, parameter):
        charged = _charged_nodes(monkeypatch)
        # unbudgeted, chi takes 314 search nodes here and zeta 39951
        g = generate(parse_family("random:30,0.5,1"))
        with pytest.raises(BudgetExceededError):
            parameter(g, Limits(node_limit=200))
        assert sum(charged) <= 200 + TICK_BLOCK


class TestStructuralInvariants:
    def test_chi_gp_one_iff_union_of_cliques(self):
        for n in range(1, 7):
            for g in graphs_of_order(n):
                assert (chromatic_position_number(g, K.GP).k == 1) == (
                    is_disjoint_union_of_cliques(g)
                )

    def test_gpi_equals_chromatic_diameter_three(self):
        rng = random.Random(55)
        hits = 0
        while hits < 60:
            g = random_connected_graph(rng.randint(2, 9), 0.45, rng.randrange(10**6))
            if diameter(g) > 3:
                continue
            hits += 1
            assert chromatic_position_number(g, K.GP_I).k == chromatic_number(g)

    def test_permutation_invariance(self):
        rng = random.Random(91)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 7), 0.4, rng.randrange(10**6))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            for kind in ALL_KINDS:
                assert (
                    chromatic_position_number(g, kind).k
                    == chromatic_position_number(h, kind).k
                )

    def test_disjoint_union_takes_the_larger_chi(self):
        """chi(G + H) = max(chi(G), chi(H)): a set is a position set exactly
        when its part in each component is one."""
        rng = random.Random(37)
        small = graphs_of_order(4) + graphs_of_order(5)
        for _ in range(150):
            g, h = rng.choice(small), rng.choice(small)
            union = disjoint_union(g, h)
            for kind in ALL_KINDS:
                expected = max(
                    chromatic_position_number(g, kind).k, chromatic_position_number(h, kind).k
                )
                assert chromatic_position_number(union, kind).k == expected, (
                    g.edges(), h.edges(), kind,
                )

    def test_feasibility_probe(self):
        g = cycle(9)
        assert feasible_position_colouring(g, K.GP, 2) is None
        c = feasible_position_colouring(g, K.GP, 3)
        assert c is not None and verify_colouring(g, c, K.GP)


class TestInequalitySuite:
    def test_petersen_chain_values(self, petersen):
        rep = check_inequality_suite(petersen)
        assert rep.all_hold
        chain = next(r for r in rep.records if r.name == "chain mu<=gp<=mono")
        assert chain.detail == "2 <= 2 <= 4"

    def test_petersen_bounds_records_read_bounds(self, petersen):
        rep = check_inequality_suite(petersen)
        records = {r.name: r for r in rep.records if r.name.startswith("bounds (")}
        assert set(records) == {f"bounds ({kind.value})" for kind in ALL_KINDS}
        for kind in ALL_KINDS:
            b = bounds(petersen, kind)
            chi = chromatic_position_number(petersen, kind).k
            assert records[f"bounds ({kind.value})"].detail == (
                f"{b.lower} ({b.lower_reason}) <= {chi} <= {b.upper} ({b.upper_reason})"
            )

    def test_each_chromatic_number_solved_once(self, monkeypatch, petersen):
        """chi of the graph and of its complement: two solves in all.

        theta(G) is chi of the complement, and theta of the complement is chi(G).
        """
        calls = []
        solve = solver.chromatic_number_with_colouring

        def counting_solve(g, limits):
            calls.append(g)
            return solve(g, limits)

        monkeypatch.setattr(solver, "chromatic_number_with_colouring", counting_solve)
        check_inequality_suite(petersen)
        assert len(calls) == 2

    def test_total_domination_searched_once(self, monkeypatch):
        """cycle:9 is diamond-free with no isolated vertex, so the suite asks
        for gamma_t in the gp bounds and again for mu; only the first call
        charges any search node."""
        charged = []
        dominate = solver.total_dominating_set

        def counting_dominate(g, limits):
            ticker = Limits(node_limit=10**9).ticker()
            found = dominate(g, ticker)
            charged.append(10**9 - ticker.nodes_left)
            return found

        monkeypatch.setattr(solver, "total_dominating_set", counting_dominate)
        check_inequality_suite(cycle(9))
        assert len(charged) == 2 and charged[0] > 0 and charged[1] == 0

    def test_clique(self):
        assert check_inequality_suite(complete(5)).all_hold

    def test_empty_graph(self):
        assert check_inequality_suite(build_graph(0, [])).all_hold

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_product_chain_floor_is_the_order(self, n):
        """chi * chi-bar >= n is the floor at every order, printed as an integer."""
        g = generate(parse_family("petersen")) if n == 10 else build_graph(n, [])
        products = [r for r in check_inequality_suite(g).records
                    if r.name.startswith("nordhaus-gaddum product")]
        assert len(products) == 2
        assert all(r.holds and r.detail.endswith(f" >= {n}") for r in products)

    def test_random_connected(self):
        rng = random.Random(7)
        for i in range(60):
            n = 2 + i % 7
            g = random_connected_graph(n, 0.4, rng.randrange(10**6))
            rep = check_inequality_suite(g)
            assert rep.all_hold, (g.edges(), [r.name for r in rep.failures])

    def test_disconnected_catalogue_graphs(self):
        from poscol.graphs import is_connected

        for n in range(2, 7):
            for g in graphs_of_order(n):
                if not is_connected(g):
                    rep = check_inequality_suite(g)
                    assert rep.all_hold, (g.edges(), [r.name for r in rep.failures])


def test_solves_leave_no_graph_for_the_cycle_collector():
    """Reference counting alone frees a solved graph, its memo and its constraints."""

    def live_graphs():
        return sum(isinstance(o, Graph) for o in gc.get_objects())

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = live_graphs()
        # random:9,0.4,1 reaches the perfect-packing search for mono
        for spec in ("petersen", "cartesian(path:3,path:4)", "random:9,0.4,1"):
            for kind in ALL_KINDS:
                chromatic_position_number(generate(parse_family(spec)), kind)
        for seed in range(3):
            check_equivalence(random_nae_instance(4, 4, seed))
        assert live_graphs() == before
    finally:
        if was_enabled:
            gc.enable()


def test_budget_exhaustion_returns_tagged_upper_bound(petersen):
    from poscol.errors import Limits

    r = chromatic_position_number(petersen, K.MONO, Limits(node_limit=5))
    assert r.optimality == "upper_bound_only"
    assert r.verified and verify_colouring(petersen, r.colouring, K.MONO)
    assert r.k >= chromatic_position_number(petersen, K.MONO).k
    # a tiny budget may still be enough when the bounds pin the value exactly
    r2 = chromatic_position_number(petersen, K.GP_I, Limits(node_limit=5))
    assert r2.verified
    if r2.optimality == "exact":
        assert r2.k == 3
    else:
        assert r2.k >= 3


@pytest.mark.parametrize("spec, values", [
    ("petersen", (3, 4, 3)),
    ("cartesian(path:4,path:6)", (7, 12, 4)),
    ("random:16,0.25,5", (4, 8, 4)),
])
def test_an_independent_solve_searches_for_no_chromatic_number(monkeypatch, spec, values):
    """Every class of an ``_i`` kind carries the independence mask, so the
    deepening refutes each k below chi without a chromatic-number search."""

    def no_search(*args):
        raise AssertionError("a classic-parameter search ran")

    monkeypatch.setattr(solver, "_fewest_classes", no_search)
    g = generate(parse_family(spec))
    for kind, value in zip((K.GP_I, K.MONO_I, K.MU_I), values):
        r = chromatic_position_number(g, kind)
        assert (r.k, r.optimality) == (value, "exact"), kind


def _levels_tried(monkeypatch) -> list[int]:
    """Record the k of every deepening level a solve runs."""
    tried = []
    level = solver._level

    def recording_level(g, kind, k, budget):
        tried.append(k)
        return level(g, kind, k, budget)

    monkeypatch.setattr(solver, "_level", recording_level)
    return tried


@pytest.mark.parametrize("spec, kinds", [
    ("petersen", (K.MU,)),
    ("kneser2:7", (K.MU,)),
    ("complete:5", (K.GP_I, K.MONO_I, K.MU_I)),
])
def test_the_search_free_bounds_leave_no_level_to_refute(monkeypatch, spec, kinds):
    """mu starts at 2 on a graph with a component that is not complete, and
    an ``_i`` kind at the size of a greedy clique; here the first fit meets
    that bound, so no level runs."""
    tried = _levels_tried(monkeypatch)
    g = generate(parse_family(spec))
    for kind in kinds:
        assert chromatic_position_number(g, kind).optimality == "exact", kind
    assert tried == []


@pytest.mark.parametrize("spec", ["kneser2:7", "line_complete:5", "random:16,0.25,5"])
def test_an_independent_solve_with_a_triangle_tries_no_level_below_three(monkeypatch, spec):
    """The greedy clique of these graphs is a triangle or larger, so no
    ``_i`` solve refutes 1 or 2 colours by search."""
    g = generate(parse_family(spec))
    tried = _levels_tried(monkeypatch)
    for kind in (K.GP_I, K.MONO_I, K.MU_I):
        chromatic_position_number(g, kind)
    assert not tried or min(tried) >= 3


def _charged_nodes(monkeypatch) -> list[int]:
    """Record every charge made to a budget that has a node limit."""
    charged = []
    tick = BudgetTicker.tick

    def counting_tick(self, n=1):
        if self.nodes_left is not None:
            charged.append(n)
        return tick(self, n)

    monkeypatch.setattr(BudgetTicker, "tick", counting_tick)
    return charged


@pytest.mark.parametrize(
    "spec, kind", [("cartesian(path:4,path:8)", K.MU), ("strong(path:5,path:6)", K.MONO)]
)
def test_solve_phases_share_one_node_budget(monkeypatch, spec, kind):
    """Bounds, deepening and induced-path steps all draw from one budget of N nodes."""
    charged = _charged_nodes(monkeypatch)
    g = generate(parse_family(spec))
    r = chromatic_position_number(g, kind, Limits(node_limit=6000))
    assert r.optimality == "upper_bound_only" and verify_colouring(g, r.colouring, kind)
    # the charge that crosses the limit is at most one block of oracle steps
    assert sum(charged) <= 6000 + TICK_BLOCK


def test_feasible_colouring_phases_share_one_node_budget(monkeypatch):
    """The quick pass, the position-number search and the rerun share one budget."""
    charged = _charged_nodes(monkeypatch)
    g = generate(parse_family("strong(path:5,path:6)"))
    with pytest.raises(BudgetExceededError):
        feasible_position_colouring(g, K.MU, 2, Limits(node_limit=100))
    assert sum(charged) <= 100 + TICK_BLOCK


@pytest.mark.parametrize("n", range(1, 8))
def test_the_packing_agrees_with_the_partition_search(n):
    """On every catalogue graph of order n and every kind whose pi divides
    n, the packing finds n/pi classes exactly when the partition search
    finds a colouring with that many, and each class it packs is an oracle
    position set of exactly pi vertices."""
    for g in graphs_of_order(n):
        order = degree_order(g)
        for kind in ALL_KINDS:
            pi = position_number(g, kind).value
            if n % pi:
                continue
            k = n // pi
            new_class = partial(SetState, compiled(g, kind), kind.independent)
            packing = solver._perfect_packing(n, new_class, pi, UNLIMITED.ticker())
            partition = solver._PartitionSearch(order, new_class, k).run(UNLIMITED.ticker())
            assert (packing is None) == (partition is None), (g.edges(), kind)
            if packing is not None:
                assert packing.k == k
                for cls in packing.classes():
                    assert len(cls) == pi and oracle_is_position_set(g, cls, kind), (
                        g.edges(), kind, cls,
                    )


def _run_in_slices(search, nodes, cap=None):
    """Run ``search`` to its answer, with class-size cap ``cap``, in slices of
    at most ``nodes`` nodes of one budget; return the answer, the nodes
    charged and the number of stops."""
    budget = Limits(node_limit=10**9).ticker()
    stops = 0
    while True:
        try:
            with budget.capped(nodes):
                found = search.run(budget, cap)
            return found, 10**9 - budget.nodes_left, stops
        except BudgetExceededError:
            stops += 1


def _position_cases(g):
    """A class factory of each kind on ``g``, with chi and pi of the kind."""
    for kind in ALL_KINDS:
        new_class = partial(SetState, compiled(g, kind), kind.independent)
        yield new_class, chromatic_position_number(g, kind).k, position_number(g, kind).value


def _resumes_as_uninterrupted(order, new_class, k, cap=None):
    """Slices of 1, 7 and 100 nodes against one uninterrupted run; the stops."""
    whole = _run_in_slices(solver._PartitionSearch(order, new_class, k), 10**9, cap)
    assert whole[2] == 0
    stops = 0
    for nodes in (1, 7, 100):
        found, charged, stopped = _run_in_slices(
            solver._PartitionSearch(order, new_class, k), nodes, cap
        )
        assert (found, charged) == whole[:2], (k, nodes, cap)
        stops += stopped
    return whole[0], stops


@pytest.mark.parametrize("n", range(1, 7))
def test_a_resumed_search_is_the_uninterrupted_search(n):
    """Stopped by slices of 1, 7 and 100 nodes and resumed after each stop,
    the partition search gives the answer of one uninterrupted run and
    charges the same nodes in total: the node whose charge stopped a slice
    is expanded, not charged again, by the next.  Every catalogue graph of
    order n, the six kinds at k = chi - 1 and chi, and the classic classes
    at the chromatic and cochromatic numbers and one below."""
    stops = 0
    for g in graphs_of_order(n):
        order = degree_order(g)
        cases = [
            (partial(solver._CliqueOrIndependent, graphs.adjacency_masks(g), clique), value)
            for clique, value in ((False, chromatic_number(g)), (True, cochromatic_number(g)))
        ]
        cases += [(new_class, chi) for new_class, chi, _ in _position_cases(g)]
        for new_class, chi in cases:
            for k in (chi - 1, chi):
                found, stopped = _resumes_as_uninterrupted(order, new_class, k)
                assert (found is None) == (k < chi), (g.edges(), k)
                stops += stopped
    assert stops > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_a_resumed_capped_search_is_the_uninterrupted_capped_search(n):
    """The same with the class size capped at pi: the slices that stop and
    resume a capped search charge the nodes of one uninterrupted capped run
    and give its answer.  Every catalogue graph of order n, the six kinds at
    k = chi - 1 and chi."""
    stops = 0
    for g in graphs_of_order(n):
        order = degree_order(g)
        for new_class, chi, pi in _position_cases(g):
            for k in (chi - 1, chi):
                found, stopped = _resumes_as_uninterrupted(order, new_class, k, pi)
                assert (found is None) == (k < chi), (g.edges(), k)
                stops += stopped
    assert stops > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_the_capacity_prune_cuts_only_subtrees_without_a_colouring(n):
    """Capped at pi, the partition search finds the colouring the uncapped
    search finds, or refutes k as it does, and charges no more nodes: the
    prune fails only nodes below which no colouring has classes of at most
    pi vertices, and every position colouring has.  Every catalogue graph of
    order n, the six kinds at k = chi - 1 and chi; from order 4 on, some
    search is cut short."""
    pruned = 0
    for g in graphs_of_order(n):
        order = degree_order(g)
        for new_class, chi, pi in _position_cases(g):
            for k in (chi - 1, chi):
                plain, nodes = _run_in_slices(solver._PartitionSearch(order, new_class, k), 10**9)[:2]
                capped, fewer = _run_in_slices(
                    solver._PartitionSearch(order, new_class, k), 10**9, pi
                )[:2]
                assert capped == plain and fewer <= nodes, (g.edges(), k, pi)
                pruned += fewer < nodes
    assert pruned > 0 or n < 4


def test_a_node_fails_when_its_classes_cannot_hold_its_free_vertices():
    """The two capacity tests of a node, each failing on its own: (i) the
    rooms of the classes, each no more than the vertices the class fits,
    sum to less than the free vertices; (ii) the vertices that fit only one
    class outnumber its room, which for the empty class is the cap in each
    class not yet opened."""

    def can_hold(k, sizes, fit, cap):
        new_class = partial(solver._CliqueOrIndependent, (0,) * 8, False)
        search = solver._PartitionSearch(list(range(8)), new_class, k)
        search._sizes[: len(sizes)] = sizes
        one = two = 0
        for a in fit:
            two |= one & a
            one |= a
        return search._can_hold(fit, one, two, len(sizes), cap)

    # (i): class 0 is full, and the one class left has room for two of three vertices
    assert not can_hold(2, [2], [0b001, 0b111], 2)
    assert can_hold(2, [2], [0b001, 0b111], 3)
    # (i): class 0 has room for two but fits one vertex, class 2 fits two but is full
    assert not can_hold(3, [1, 2, 3], [0b001, 0b111, 0b110], 3)
    assert can_hold(3, [1, 2, 3], [0b011, 0b111, 0b110], 3)
    # (ii): two vertices fit only class 0, which has room for one, or for two
    assert not can_hold(3, [3, 1, 1], [0b00011, 0b11100, 0b11100], 4)
    assert can_hold(3, [3, 1, 1], [0b00011, 0b11100, 0b11100], 5)
    # (ii): three vertices fit only the empty class, with room for two per class
    assert can_hold(3, [1], [0b0001, 0b1111], 2)
    assert not can_hold(2, [1], [0b0001, 0b1111], 2)


class _CountingBudget:
    """A budget that counts the charges made to it, the one that raises too."""

    def __init__(self, budget):
        self.budget, self.charged = budget, 0

    def tick(self, n=1):
        self.charged += n
        self.budget.tick(n)


def test_a_stalled_level_resumes_its_quick_search(monkeypatch):
    """The level of random:18,0.2,3 at k = 5 outlasts its quick slice; pi and
    the iterated greedy run in between, and the full search goes on from the
    node where the slice stopped: the level builds one search object, its
    second run starts below the root, and the two runs charge together the
    nodes of one uninterrupted search."""
    built, starts, charged = [], [], []
    search = solver._PartitionSearch

    class Recorded(search):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def run(self, budget, cap=None):
            starts.append((self._next, len(self._stack)))
            counting = _CountingBudget(budget)
            try:
                return super().run(counting, cap)
            finally:
                charged.append(counting.charged)

    monkeypatch.setattr(solver, "_PartitionSearch", Recorded)
    g = graph6_decode("Q??ELCm?A?BO?e?A@C???`?g?_O")  # random:18,0.2,3, chi_mono = 6
    assert feasible_position_colouring(g, K.MONO, 5) is None
    assert len(built) == 1 and built[0][2] == 5
    root = ((1 << g.n) - 1, 0)
    assert starts[0] == (root, 0) and len(starts) == 2
    assert starts[1][0] != root and starts[1][1] > 0
    assert charged[0] == solver._QUICK_NODES + 1
    # the level's protocol in one go: a quick slice, then the run capped at pi
    reference, ticker = search(*built[0]), UNLIMITED.ticker()
    whole = _CountingBudget(ticker)
    with pytest.raises(BudgetExceededError), ticker.capped(solver._QUICK_NODES):
        reference.run(whole)
    assert reference.run(whole, position_number(g, K.MONO).value) is None
    assert sum(charged) == whole.charged


class TestDeepInputs:
    """Searches that go about a thousand vertices deep keep their paths on
    explicit stacks, so they answer instead of overflowing Python's stack."""

    def test_clique_cover_of_a_large_clique(self):
        assert clique_cover_number(complete(1100)) == 1

    def test_position_number_of_a_large_clique(self):
        r = position_number(complete(1100), K.GP)
        assert r.value == 1100 and r.witness == frozenset(range(1100))

    def test_a_feasible_colouring_of_a_large_clique_packs_one_class(self):
        c = feasible_position_colouring(complete(1100), K.GP, 1)
        assert c is not None and c.k == 1

    def test_the_one_largest_position_set_of_a_large_clique(self):
        s = next(position.position_sets_of_size(complete(1100), K.GP, 1100))
        assert s == frozenset(range(1100))

    def test_total_domination_of_a_long_s_tree(self):
        g = generate(parse_family("s:2,1200"))
        value, dominators = total_dominating_set(g, Limits(time_limit=60))
        assert value == len(dominators) == 1202
        assert all(g.adj[v] & dominators for v in range(g.n))

    def test_a_mono_class_along_a_long_path_is_rejected(self):
        g = path(1500)
        classes = [[0, 700, 1499]] + [[v] for v in range(1500) if v not in (0, 700, 1499)]
        assert not verify_colouring(g, Colouring.from_classes(1500, classes), K.MONO)


def test_feasible_colouring_refutes_by_pi_within_budget():
    """A stalled quick pass leaves pi and its k*pi < n refutation the rest of the budget."""
    g = generate(parse_family("cartesian(path:4,path:6)"))
    assert feasible_position_colouring(g, K.GP, 5, Limits(node_limit=10000)) is None


@pytest.mark.parametrize("spec", ["cartesian(path:4,path:6)", "cartesian(path:5,path:5)"])
def test_iterated_greedy_settles_the_grid_within_budget(spec):
    """pi and the packing refute the levels below 7 cheaply; the iterated
    greedy then finds the 7-colouring the full search misses in 4000 nodes."""
    g = generate(parse_family(spec))
    r = chromatic_position_number(g, K.GP, Limits(node_limit=4000))
    assert (r.k, r.optimality) == (7, "exact") and verify_colouring(g, r.colouring, K.GP)


def test_forward_checking_settles_the_three_by_seven_grid_within_budget():
    """A vertex that fits no open class fails its node at once, and once pi
    is known so does a node whose classes cannot hold its free vertices, so
    the search finds the 6-colouring of P3 x P7 within 7000 nodes."""
    g = generate(parse_family("cartesian(path:3,path:7)"))
    r = chromatic_position_number(g, K.GP, Limits(node_limit=7000))
    assert (r.k, r.optimality) == (6, "exact") and verify_colouring(g, r.colouring, K.GP)


def test_iterated_greedy_returns_position_colourings():
    """Every colouring returned has at most k classes, each one a position
    set by the oracle, and the rounds are the same on every call."""
    rng = random.Random(17)
    returned = below_first_fit = 0
    for _ in range(60):
        g = random_graph(rng.randint(4, 8), rng.random(), rng)
        for kind in ALL_KINDS:
            k = chromatic_position_number(g, kind).k  # caches the mono walk too
            runs = []
            for _ in range(2):
                budget = Limits(node_limit=20 * g.n).ticker()
                try:
                    runs.append(solver._iterated_greedy(
                        degree_order(g),
                        partial(SetState, compiled(g, kind, budget), kind.independent), k, budget,
                    ))
                except BudgetExceededError:
                    runs.append(None)
            assert runs[0] == runs[1], (g.edges(), kind)
            if runs[0] is not None:
                returned += 1
                assert runs[0].k <= k
                for cls in runs[0].classes():
                    assert oracle_is_position_set(g, cls, kind), (g.edges(), kind, cls)
                below_first_fit += solver.greedy_position_colouring(g, kind).k > k
    # measured: all 360 return, 11 of them below the first fit's class count
    assert returned >= 300 and below_first_fit >= 8


def test_iterated_greedy_stops_within_its_slice(monkeypatch):
    """Each round charges one node per vertex, so a stop overruns the slice
    by less than one round.  k = 6 is below chi = 7, so no round succeeds."""
    g = generate(parse_family("cartesian(path:5,path:5)"))
    charged = _charged_nodes(monkeypatch)
    budget = Limits(node_limit=110).ticker()
    with pytest.raises(BudgetExceededError):
        solver._iterated_greedy(
            degree_order(g), partial(SetState, compiled(g, K.GP, budget), False), 6, budget
        )
    assert charged == [g.n] * (110 // g.n + 1)  # the last round crosses the limit


def test_a_mono_level_walks_the_induced_paths_once(monkeypatch):
    """Called on its own, a level runs the walk on the whole budget, so the
    quick slice cannot stop it midway and leave the next slice to restart it."""
    starts = []
    walk = graphs.induced_paths

    def counting_walk(g, limits=DEFAULT_LIMITS):
        if "induced_paths" not in g._memo:
            starts.append(g)
        return walk(g, limits)

    for module in (graphs, position):
        monkeypatch.setattr(module, "induced_paths", counting_walk)
    g = graph6_decode("Q??ELCm?A?BO?e?A@C???`?g?_O")  # random:18,0.2,3, chi_mono = 6
    assert feasible_position_colouring(g, K.MONO, 5) is None
    assert len(starts) == 1


def test_a_mono_level_compiles_on_its_budget():
    """The walk draws from the level's budget before any search, so a budget
    too small for it stops the level and leaves no walk cached."""
    g = graph6_decode("Q??ELCm?A?BO?e?A@C???`?g?_O")  # random:18,0.2,3
    with pytest.raises(BudgetExceededError):
        feasible_position_colouring(g, K.MONO, 5, Limits(node_limit=100))
    assert "induced_paths" not in g._memo


@pytest.mark.parametrize("spec", ["petersen", "random:16,0.25,5"])
@pytest.mark.parametrize("kind", [K.MONO, K.MONO_I])
def test_a_mono_solve_builds_no_distance_layers(spec, kind):
    """The mono kinds compile the induced-path walk alone, and the verifier
    walks only as far as each class's own members."""
    g = generate(parse_family(spec))
    chromatic_position_number(g, kind)
    assert "distance_layers" not in g._memo


def test_solve_computes_pi_only_when_a_level_stalls():
    g = generate(parse_family("kneser2:7"))
    r = chromatic_position_number(g, K.MU)
    assert (r.k, r.optimality) == (2, "exact")
    assert ("pi_witness", K.MU) not in g._memo


# Wall-time budgets are checked with a slack: the final verification, and the
# pairing that completes a greedy bound the budget stopped, run outside the
# budget, the clock is read once per block of nodes, and the machine may be
# slow.  The calls below end within 0.05 s of their limit on a 2-vCPU Xeon
# under Python 3.11.
TIME_SLACK = 4.0


def test_time_limit_holds_across_a_mono_solve():
    g = generate(parse_family("random:40,0.15,3"))
    start = time.monotonic()
    r = chromatic_position_number(g, K.MONO, Limits(time_limit=1.0))
    assert time.monotonic() - start < 1.0 + TIME_SLACK
    assert r.optimality == "upper_bound_only" and verify_colouring(g, r.colouring, K.MONO)


def test_time_limit_holds_in_the_greedy_bound():
    # the walk over every induced path, which the greedy's compile runs,
    # takes far longer than the limit on this graph
    g = generate(parse_family("random:60,0.1,1"))
    start = time.monotonic()
    r = chromatic_position_number(g, K.MONO, Limits(time_limit=1.0))
    assert time.monotonic() - start < 1.0 + TIME_SLACK
    assert r.optimality == "upper_bound_only" and verify_colouring(g, r.colouring, K.MONO)


@pytest.mark.parametrize("kind, k", [(K.MONO, 2), (K.MONO_I, 4)])
def test_a_greedy_stopped_by_the_budget_pairs_the_rest(kind, k):
    """Once the budget has stopped the compile, the vertices go two to a
    class, except that an ``_i`` kind keeps an adjacent pair apart."""
    g = cycle(4)
    budget = Limits(node_limit=0).ticker()
    with pytest.raises(BudgetExceededError):
        budget.tick()
    c = solver.greedy_position_colouring(g, kind, budget)
    assert c.k == k and verify_colouring(g, c, kind)


def test_the_greedy_first_fit_stops_at_the_deadline():
    """The first fit reads the clock about once per ``TICK_BLOCK`` class
    tests, so under a zero time limit it places at most about one block of
    vertices of this 2500-vertex grid, and the rest go two to a class."""
    g = generate(parse_family("cartesian(path:50,path:50)"))
    c = solver.greedy_position_colouring(g, K.GP, Limits(time_limit=0))
    assert c.k >= (g.n - TICK_BLOCK) // 2 and verify_colouring(g, c, K.GP)


def test_a_spent_time_budget_stays_spent():
    """Past the deadline every charge raises, ``tick(0)`` included, so no
    phase can take the time-out for a stalled slice and search on."""
    budget = Limits(time_limit=0).ticker()
    for n in (0, 1, TICK_BLOCK, 1) * 500:
        with pytest.raises(BudgetExceededError):
            budget.tick(n)
    g = generate(parse_family("random:16,0.25,5"))
    r = chromatic_position_number(g, K.GP, Limits(time_limit=0))
    assert r.optimality == "upper_bound_only" and verify_colouring(g, r.colouring, K.GP)


def test_time_limit_left_to_the_deepening():
    # pi for mu on this graph takes seconds; the deepening proves 3 without it
    g = generate(parse_family("strong(path:5,path:6)"))
    start = time.monotonic()
    r = chromatic_position_number(g, K.MU, Limits(time_limit=2.0))
    assert (r.k, r.optimality) == (3, "exact")
    assert time.monotonic() - start < 2.0 + TIME_SLACK


def test_time_limit_stops_monophonic_diameter():
    g = generate(parse_family("random:40,0.15,3"))
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        monophonic_diameter(g, Limits(time_limit=0.5))
    assert time.monotonic() - start < 0.5 + TIME_SLACK


def test_limits_env_fallback(monkeypatch):
    from poscol.errors import Limits

    monkeypatch.setenv("POS_NODE_LIMIT", "5")
    monkeypatch.setenv("POS_TIME_LIMIT", "2.5")
    limits = Limits()
    assert limits.node_limit == 5 and limits.time_limit == 2.5
