from itertools import product

import pytest

from conftest import cycle, partitions_descending, path
from oracles import canonical_key, oracle_cochromatic
from poscol.catalogue import graphs_of_order
from poscol.errors import GraphInputError
from poscol.families import generate, parse_family, turan_parts
from poscol.formulas import (
    chi_gp_two_characterization,
    large_value_characterization,
    line_complete_chi_gp,
    multipartite_chi_gp,
    predicted_chi,
    predicted_position_number,
)
from poscol.position import PositionKind, position_number
from poscol.solver import chromatic_position_number

K = PositionKind


class TestPredictedChi:
    @pytest.mark.parametrize(
        "text,kind,value",
        [
            ("cycle:9", K.GP, 3),
            ("cycle:3", K.GP, 1),
            ("cycle:3", K.MONO, 1),
            ("cycle:4", K.MONO, 2),
            ("line_complete:6", K.GP, 4),
            ("multipartite:3,1", K.GP, 2),
            ("kneser2:6", K.GP, 3),
            ("kneser2:6", K.GP_I, 4),
            ("complete:5", K.GP, 1),
            ("complete:5", K.MONO_I, 5),
            ("path:7", K.GP, 4),
            ("h:5,5", K.GP, 4),
            ("h:5,5", K.MONO, 6),
            ("h:6,3", K.MONO, 7),
            ("j:3,2", K.GP, 5),
            ("j:3,2", K.MU, 3),
            ("g_star:4,9", K.GP_I, 4),
            ("g_star:1,1", K.MU_I, 1),
            ("g_star:1,3", K.GP_I, 2),  # the star K_{1,2}
            ("g_star:1,6", K.MU_I, 2),
            ("g:3,5", K.GP_I, 5),
            ("cartesian(path:2,path:7)", K.GP, 5),
            ("cartesian(path:4,path:9)", K.GP, 10),
            ("cartesian(path:3,path:12)", K.GP, 10),
            ("cartesian(cycle:49,cycle:49)", K.GP, 343),
            ("strong(path:5,path:8)", K.MU, 3),
            ("strong(path:2,path:2)", K.MU, 1),
            ("strong(path:2,path:6)", K.MU, 2),
            ("turan:3,8", K.GP_I, 3),
            ("turan:3,8", K.MONO_I, 3),
            ("multipartite:3,1", K.MONO_I, 2),
            ("turan:3,7", K.MONO, 3),
            ("multipartite:3,3,1", K.MONO, 3),
            ("line_complete:2", K.GP, 1),
            ("split_random:8,1", K.GP, 2),
            ("complementary_prism(split_random:8,1)", K.GP, 2),
        ],
    )
    def test_exact_values(self, text, kind, value):
        p = predicted_chi(parse_family(text), kind)
        assert p.status == "exact" and p.value == value

    def test_turan_mono_claims_match_the_solver(self):
        """The mono_i claim holds on every Turán graph of order <= 8, and the
        mono claim wherever chi_gp equals the number of parts; elsewhere mono
        stays unknown."""
        for n in range(1, 9):
            for a in range(1, n + 1):
                spec = parse_family(f"turan:{a},{n}")
                g = generate(spec)
                for kind in (K.MONO_I, K.MONO):
                    p = predicted_chi(spec, kind)
                    if kind is K.MONO and multipartite_chi_gp(turan_parts(a, n)) < a:
                        assert p.status == "unknown", (a, n)
                        continue
                    assert p.status == "exact" and p.value == a, (a, n, kind)
                    assert chromatic_position_number(g, kind).k == a, (a, n, kind)

    def test_unknown_is_honest(self):
        assert predicted_chi(parse_family("k_gadget:5"), K.MU).status == "unknown"
        assert predicted_chi(parse_family("cycle:9"), K.MU).status == "unknown"

    def test_q_family_bracket(self):
        p = predicted_chi(parse_family("q:7"), K.GP)
        assert p.status == "bounds" and (p.low, p.high) == (3, 4)

    def test_p3_grid_bounds(self):
        p = predicted_chi(parse_family("cartesian(path:3,path:8)"), K.GP)
        assert p.status == "bounds" and p.low <= p.high

    def test_non_exact_raises_on_value(self):
        with pytest.raises(GraphInputError):
            predicted_chi(parse_family("q:7"), K.GP).value


class TestPredictionsAgainstSolver:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        g = generate(parse_family(f"cycle:{n}"))
        for kind in (K.GP, K.MONO):
            p = predicted_chi(parse_family(f"cycle:{n}"), kind)
            assert p.value == chromatic_position_number(g, kind).k

    def test_multipartite_all_partitions_up_to_seven(self):
        for n in range(1, 8):
            for parts in partitions_descending(n):
                spec = parse_family("multipartite:" + ",".join(map(str, parts)))
                g = generate(spec)
                val = multipartite_chi_gp(parts)
                assert val == chromatic_position_number(g, K.GP).k, parts
                assert val == oracle_cochromatic(g), parts

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_line_complete(self, n):
        g = generate(parse_family(f"line_complete:{n}"))
        assert line_complete_chi_gp(n) == chromatic_position_number(g, K.GP).k

    @pytest.mark.parametrize("text,kind", [
        ("h:3,1", K.GP), ("h:3,1", K.MONO), ("h:3,3", K.GP), ("h:3,3", K.MONO),
        ("h:4,2", K.MONO), ("j:1,1", K.GP), ("j:1,1", K.MU), ("j:2,1", K.GP),
        ("j:1,2", K.MU), ("j:2,2", K.GP), ("g_star:3,6", K.GP_I),
        ("g:2,4", K.GP_I), ("g:3,4", K.MONO_I), ("turan:2,5", K.GP_I),
        ("strong(path:3,path:4)", K.MU), ("strong(path:2,path:4)", K.MU),
        ("strong(path:2,path:2)", K.MU), ("strong(path:1,path:5)", K.MU),
        ("strong(path:4,path:1)", K.MU), ("split_random:7,5", K.MONO),
        ("complementary_prism(split_random:6,2)", K.GP),
        ("tree_leaves:4,3", K.GP), ("tree_leaves:4,3", K.MONO),
        ("t:3,6", K.GP), ("s:4,3", K.GP), ("g:3,5", K.GP),
    ])
    def test_realisation_families(self, text, kind):
        spec = parse_family(text)
        p = predicted_chi(spec, kind)
        assert p.status == "exact"
        assert p.value == chromatic_position_number(generate(spec), kind).k

    def test_q_bracket_solver(self):
        for r in range(4, 9):
            spec = parse_family(f"q:{r}")
            p = predicted_chi(spec, K.GP)
            k = chromatic_position_number(generate(spec), K.GP).k
            assert p.low <= k <= p.high

    def test_block_random_prediction(self):
        for seed in range(10):
            spec = parse_family(f"block_random:11,{seed}")
            p = predicted_chi(spec, K.GP)
            assert p.status == "exact"
            assert p.value == chromatic_position_number(generate(spec), K.GP).k


# small instances of every family that ``predicted_chi`` covers
_SWEEP_SPECS = (
    [f"complete:{n}" for n in range(1, 8)] + [f"path:{n}" for n in range(1, 12)]
    + [f"cycle:{n}" for n in range(3, 14)]
    + ["multipartite:" + ",".join(map(str, parts))
       for n in range(1, 8) for parts in partitions_descending(n)]
    + [f"turan:{a},{n}" for a, n in product(range(1, 5), range(1, 9)) if a <= n]
    + [f"kneser2:{n}" for n in range(5, 8)] + [f"line_complete:{n}" for n in range(3, 8)]
    + [f"h:{r},{s}" for r, s in product(range(3, 6), range(5))]
    + [f"j:{r},{s}" for r, s in product(range(1, 4), range(1, 4)) if r + s <= 5]
    + [f"g_star:{a},{n}" for a, n in product(range(1, 5), range(1, 8)) if a <= n]
    + [f"g:{a},{b}" for a, b in product(range(2, 5), range(2, 7)) if a <= b]
    + [f"q:{r}" for r in range(4, 10)]
    + [f"split_random:{n},{seed}" for n, seed in product(range(1, 9), range(2))]
    + [f"complementary_prism(split_random:{n},{seed})"
       for n, seed in product(range(3, 7), range(2))]
    + [f"cartesian(path:{m},path:{n})" for m, n in product(range(1, 5), range(1, 7))]
    + [f"cartesian(cycle:{m},cycle:{n})" for m, n in product(range(3, 5), range(3, 5))]
    + [f"strong(path:{m},path:{n})" for m, n in product(range(1, 5), range(1, 6))]
    + [f"tree_leaves:{a},{b}" for a, b in product(range(2, 5), range(3))]
    + [f"t:{a},{b}" for a, b in product(range(2, 4), range(2, 5)) if a <= b]
    + [f"s:{r},{t}" for r, t in product(range(4), range(1, 4))]
    + [f"block_random:{n},{seed}" for n, seed in product(range(5, 11), range(2))]
)


def test_every_prediction_contains_the_solved_value():
    """Each ``exact`` or ``bounds`` claim, for all six kinds, contains the exact chi."""
    wrong = []
    for text in _SWEEP_SPECS:
        spec = parse_family(text)
        g = generate(spec)
        for kind in K:
            p = predicted_chi(spec, kind)
            if p.status == "unknown":
                continue
            r = chromatic_position_number(g, kind)
            assert r.optimality == "exact"
            if not p.low <= r.k <= p.high:
                wrong.append((text, kind.value, p.low, p.high, r.k))
    assert not wrong


# small instances of every family that ``predicted_position_number`` covers,
# products in both factor orders up to 24 vertices
_POSITION_NUMBER_SPECS = (
    [f"path:{n}" for n in range(1, 12)] + [f"cycle:{n}" for n in range(3, 14)]
    + [f"kneser2:{n}" for n in range(5, 8)] + [f"line_complete:{n}" for n in range(2, 8)]
    + [f"q:{r}" for r in range(4, 9)]
    + [f"{prod}(path:{m},path:{n})"
       for prod in ("cartesian", "strong") for m, n in product(range(1, 9), repeat=2) if m * n <= 24]
    + [spec for m, n in product(range(1, 9), range(3, 9)) if m * n <= 24
       for spec in (f"cartesian(path:{m},cycle:{n})", f"cartesian(cycle:{n},path:{m})")]
)


def test_every_position_number_prediction_is_the_solved_value():
    """Each ``exact`` position-number claim, for all six kinds, is the exact π;
    a one-vertex path factor makes a cylinder its cycle."""
    wrong, claims = [], 0
    for text in _POSITION_NUMBER_SPECS:
        spec = parse_family(text)
        for kind in K:
            p = predicted_position_number(spec, kind)
            if p.status == "unknown":
                continue
            assert p.status == "exact"
            claims += 1
            solved = position_number(generate(spec), kind).value
            if p.value != solved:
                wrong.append((text, kind.value, p.value, solved))
    assert not wrong
    assert claims == 155


class TestPredictedPositionNumbers:
    @pytest.mark.parametrize("text,kind,value", [
        ("kneser2:5", K.GP, 6),
        ("kneser2:6", K.GP, 6),
        ("kneser2:7", K.GP, 6),
        ("line_complete:6", K.GP, 6),
        ("line_complete:7", K.GP, 6),
        ("cartesian(path:2,path:8)", K.GP, 3),
        ("strong(path:3,path:4)", K.GP, 4),
        ("cycle:8", K.MONO, 2),
        ("q:6", K.GP, 3),
    ])
    def test_against_solver(self, text, kind, value):
        spec = parse_family(text)
        p = predicted_position_number(spec, kind)
        assert p.status == "exact" and p.value == value
        assert position_number(generate(spec), kind).value == value

    def test_cylinder_values(self):
        p = predicted_position_number(parse_family("cartesian(path:5,cycle:7)"), K.GP)
        assert p.value == 5
        g = generate(parse_family("cartesian(path:5,cycle:7)"))
        assert position_number(g, K.GP).value == 5


class TestSizeExtremalFamilies:
    @pytest.mark.parametrize("n,a", [(6, 3), (7, 3), (8, 3)])
    def test_complete_minus_cliques(self, n, a):
        g = generate(parse_family(f"complete_minus_cliques:{n},{a}"))
        assert chromatic_position_number(g, K.GP).k == a

    @pytest.mark.parametrize("a,n", [(3, 7), (3, 8), (4, 9)])
    def test_cycle_join_clique_mono(self, a, n):
        g = generate(parse_family(f"cycle_join_clique:{a},{n}"))
        assert chromatic_position_number(g, K.MONO).k == a


class TestCartesianProductBounds:
    def test_bracketing(self):
        import itertools as it

        from poscol.graphs import product

        factors = ["path:2", "path:3", "path:4", "cycle:3", "cycle:4", "complete:3"]
        for ta, tb in it.combinations_with_replacement(factors, 2):
            ga, gb = generate(parse_family(ta)), generate(parse_family(tb))
            grid = product("cartesian", ga, gb)
            gp_prod = position_number(grid, K.GP).value
            chi = chromatic_position_number(grid, K.GP).k
            lo = -(-ga.n * gb.n // gp_prod)
            hi = min(
                ga.n * chromatic_position_number(gb, K.GP).k,
                gb.n * chromatic_position_number(ga, K.GP).k,
            )
            assert lo <= chi <= hi, (ta, tb)


class TestChiGpTwoCharacterization:
    def test_split_graphs(self):
        for seed in range(10):
            g = generate(parse_family(f"split_random:8,{seed}"))
            assert chi_gp_two_characterization(g)

    def test_p5_is_three(self):
        g = generate(parse_family("path:5"))
        assert not chi_gp_two_characterization(g)
        assert chromatic_position_number(g, K.GP).k == 3

    def test_clique_unions_excluded(self):
        from poscol.graphs import build_graph

        assert not chi_gp_two_characterization(build_graph(2, [(0, 1)]))

    def test_builds_no_distance_matrix(self):
        """The cross condition reads the distance-2 layers, not the float matrix."""
        for g in (path(4), cycle(6), generate(parse_family("split_random:8,0"))):
            chi_gp_two_characterization(g)
            assert g._dist is None, g.edges()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_solver_exhaustively(self, n):
        for g in graphs_of_order(n):
            assert chi_gp_two_characterization(g) == (
                chromatic_position_number(g, K.GP).k == 2
            ), g.edges()


class TestLargeValueCatalogues:
    def test_n_minus_1_catalogue(self):
        cat2 = large_value_characterization(2)
        assert len(cat2.gp_n_minus_1) == 2  # P2 and 2K1
        cat3 = large_value_characterization(3)
        assert len(cat3.gp_n_minus_1) == 1  # P3
        assert large_value_characterization(4).gp_n_minus_1 == ()

    def test_mono_adds_c5(self):
        cat = large_value_characterization(5)
        keys = {canonical_key(g) for g in cat.mono_n_minus_2}
        from conftest import cycle

        assert canonical_key(cycle(5)) in keys
        assert len(cat.mono_n_minus_2) == len(cat.gp_n_minus_2) + 1

    def test_gpi_catalogue_n5(self):
        cat = large_value_characterization(5)
        assert len(cat.gpi_n_minus_1) == 3
        for g in cat.gpi_n_minus_1:
            assert chromatic_position_number(g, K.GP_I).k == 4

    def test_out_of_range(self):
        with pytest.raises(GraphInputError):
            large_value_characterization(7)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_catalogues_match_exhaustive_solver(self, n):
        for kind, near_attr, two_attr in (
            (K.GP, "gp_n_minus_1", "gp_n_minus_2"),
            (K.MONO, "mono_n_minus_1", "mono_n_minus_2"),
        ):
            cat = large_value_characterization(n)
            expected_near = {canonical_key(g) for g in getattr(cat, near_attr)}
            expected_two = {canonical_key(g) for g in getattr(cat, two_attr)}
            found_near = set()
            found_two = set()
            for g in graphs_of_order(n):
                k = chromatic_position_number(g, kind).k
                if k == n - 1:
                    found_near.add(canonical_key(g))
                elif k == n - 2:
                    found_two.add(canonical_key(g))
            assert found_near == expected_near, (n, kind)
            if n >= 3:
                assert found_two == expected_two, (n, kind)
