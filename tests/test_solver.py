import gc
import random
import time

import pytest

from conftest import (
    PETERSEN_GP_CLASSES,
    PETERSEN_MONO_CLASSES,
    complete,
    cycle,
    path,
)
from oracles import (
    oracle_chromatic_position,
    oracle_cochromatic,
    oracle_total_domination,
)
from poscol import solver
from poscol.catalogue import graphs_of_order
from poscol.errors import TICK_BLOCK, BudgetExceededError, BudgetTicker, GraphInputError, Limits
from poscol.families import generate, parse_family, random_connected_graph
from poscol.graphs import (
    Graph,
    build_graph,
    diameter,
    disjoint_union,
    is_disjoint_union_of_cliques,
    join,
    monophonic_diameter,
    product,
    relabel,
)
from poscol.position import ALL_KINDS, PositionKind
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

    def test_json_roundtrip(self):
        c = Colouring.from_classes(4, [[0, 2], [1, 3]])
        obj = colouring_to_dict(c, K.GP)
        back, kind = colouring_from_dict(obj)
        assert back == c and kind is K.GP


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


class TestSolverAgainstBellBruteForce:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_graphs_all_kinds(self, n):
        for g in graphs_of_order(n):
            for kind in ALL_KINDS:
                assert (
                    chromatic_position_number(g, kind).k
                    == oracle_chromatic_position(g, kind)
                ), (g.edges(), kind)

    def test_order_six_all_graphs(self):
        for g in graphs_of_order(6):
            for kind in ALL_KINDS:
                assert (
                    chromatic_position_number(g, kind).k
                    == oracle_chromatic_position(g, kind)
                ), (g.edges(), kind)


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
            if diameter(g).diam_star > 3:
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

    def test_clique(self):
        assert check_inequality_suite(complete(5)).all_hold

    def test_empty_graph(self):
        assert check_inequality_suite(build_graph(0, [])).all_hold

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


def test_feasible_colouring_refutes_by_pi_within_budget():
    """A stalled quick pass leaves pi and its k*pi < n refutation the rest of the budget."""
    g = generate(parse_family("cartesian(path:4,path:6)"))
    assert feasible_position_colouring(g, K.GP, 5, Limits(node_limit=10000)) is None


def test_solve_computes_pi_only_when_a_level_stalls():
    g = generate(parse_family("kneser2:7"))
    r = chromatic_position_number(g, K.MU)
    assert (r.k, r.optimality) == (2, "exact")
    assert ("pi_witness", K.MU) not in g._memo


# Wall-time budgets are checked with a slack: the greedy bound and the final
# verification run outside the budget, the clock is read once per block of
# nodes, and the machine may be slow.  Both calls below end within 0.05 s of
# their limit on a 2-vCPU Xeon under Python 3.11.
TIME_SLACK = 4.0


def test_time_limit_holds_across_a_mono_solve():
    g = generate(parse_family("random:40,0.15,3"))
    start = time.monotonic()
    r = chromatic_position_number(g, K.MONO, Limits(time_limit=1.0))
    assert time.monotonic() - start < 1.0 + TIME_SLACK
    assert r.optimality == "upper_bound_only" and verify_colouring(g, r.colouring, K.MONO)


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
