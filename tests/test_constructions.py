import gc
import random
import re

import pytest

from conftest import cycle, path
from oracles import oracle_is_diamond_free, oracle_simplicial
from poscol.catalogue import graphs_of_order
from poscol.errors import GraphInputError
from poscol.families import generate, parse_family, random_block_graph
from poscol.formulas import (
    line_complete_chi_gp, multipartite_chi_gp, predicted_chi, predicted_position_number,
)
from poscol.graphs import build_graph, diameter, is_block_graph
from poscol.kirkman import TripleSystem, audit_triple_system, kirkman_triple_system
from poscol.position import PositionKind
from poscol.solver import (
    Colouring, bounds, chromatic_position_number, total_domination_number, verify_colouring,
)
from poscol.constructions import (
    UnsupportedConstruction,
    colour_block_graph_peeling,
    colour_by_clique_cover,
    colour_by_total_domination,
    construct_colouring,
)

K = PositionKind


class TestKirkman:
    def test_trivial(self):
        ts = kirkman_triple_system(3)
        assert ts.classes == (((1, 2, 3),),)

    @pytest.mark.parametrize("n", [3, 9, 15])
    def test_pair_coverage_audit(self, n):
        ts = kirkman_triple_system(n)
        assert len(ts.classes) == (n - 1) // 2
        audit_triple_system(ts)  # raises on any defect

    def test_unsupported(self):
        with pytest.raises(GraphInputError):
            kirkman_triple_system(7)

    def test_audit_catches_bad_system(self):
        bad = TripleSystem(3, (((1, 2, 2),),))
        with pytest.raises(AssertionError):
            audit_triple_system(bad)

    def test_canonical_output(self):
        assert kirkman_triple_system(9).classes == kirkman_triple_system(9).classes

    def test_json_shape(self):
        d = kirkman_triple_system(3).to_dict()
        assert d == {"n": 3, "classes": [[[1, 2, 3]]]}

    def test_search_leaves_no_garbage(self):
        """Reference counting alone frees the KTS(9) search's recursive closures."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            kirkman_triple_system(9)
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()


class TestCycleAndPath:
    @pytest.mark.parametrize("n", range(3, 16))
    def test_cycle_gp(self, n):
        c = construct_colouring(parse_family(f"cycle:{n}"), K.GP)
        expected = 1 if n == 3 else (2 if n == 4 else -(-n // 3))
        assert c.verified and c.k == expected and c.optimality == "exact"

    def test_cycle_nine_classes(self):
        c = construct_colouring(parse_family("cycle:9"), K.GP)
        assert sorted(map(sorted, c.colouring.classes())) == [
            [0, 3, 6], [1, 4, 7], [2, 5, 8]
        ]

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_mono(self, n):
        c = construct_colouring(parse_family(f"cycle:{n}"), K.MONO)
        assert c.k == (1 if n == 3 else -(-n // 2))

    def test_path(self):
        assert construct_colouring(parse_family("path:7"), K.GP).k == 4

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedConstruction):
            construct_colouring(parse_family("cycle:9"), K.MU)


class TestKneserAndLineGraphs:
    @pytest.mark.parametrize("n", range(5, 9))
    def test_kneser(self, n):
        c = construct_colouring(parse_family(f"kneser2:{n}"), K.GP)
        assert c.verified and c.k == n - 3 and c.optimality == "exact"

    def test_kneser6_first_class_is_the_four_subset(self):
        c = construct_colouring(parse_family("kneser2:6"), K.GP)
        g = generate(parse_family("kneser2:6"))
        first = c.colouring.classes()[0]
        assert sorted(g.labels[v] for v in first) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        ]

    @pytest.mark.parametrize("n", range(2, 18))
    def test_line_complete_counts(self, n):
        spec = parse_family(f"line_complete:{n}")
        c = construct_colouring(spec, K.GP)
        assert c.verified
        assert c.k == predicted_chi(spec, K.GP).value
        if n >= 3:
            assert c.k == line_complete_chi_gp(n)
        assert c.optimality == "exact"

    def test_line_complete_18_upper_bound_only(self):
        c = construct_colouring(parse_family("line_complete:18"), K.GP)
        assert c.verified and c.k == 10 and c.optimality == "upper_bound_only"


class TestGrids:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_ladder(self, n):
        c = construct_colouring(parse_family(f"cartesian(path:2,path:{n})"), K.GP)
        assert c.verified and c.k == predicted_chi(
            parse_family(f"cartesian(path:2,path:{n})"), K.GP
        ).value

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 24])
    def test_p3(self, n):
        c = construct_colouring(parse_family(f"cartesian(path:3,path:{n})"), K.GP)
        assert c.verified
        assert c.k == (5 * n // 6 if n % 12 == 0 else c.k)
        if n % 12 == 0:
            assert c.optimality == "exact"

    @pytest.mark.parametrize("n", range(4, 201, 4))
    def test_p3_meets_the_central_layer_count(self, n):
        central = n // 2 + -(-(3 * n - 4 * (n // 2)) // 3)
        for spec in (f"cartesian(path:3,path:{n})", f"cartesian(path:{n},path:3)"):
            c = construct_colouring(parse_family(spec), K.GP)
            assert c.verified and c.k == central and c.optimality == "exact", spec

    @pytest.mark.parametrize("n", range(4, 11))
    def test_p4(self, n):
        c = construct_colouring(parse_family(f"cartesian(path:4,path:{n})"), K.GP)
        assert c.verified and c.k == n + 1 and c.optimality == "exact"

    def test_transposed_orientation(self):
        c = construct_colouring(parse_family("cartesian(path:6,path:2)"), K.GP)
        assert c.verified and c.k == 4

    def test_tessellation(self):
        c = construct_colouring(parse_family("cartesian(path:5,path:8)"), K.GP)
        assert c.verified and c.optimality == "upper_bound_only"

    @pytest.mark.parametrize("m,n", [(17, 16), (17, 20), (19, 24), (21, 32)])
    def test_long_grid_bracket_holds_the_tessellation(self, m, n):
        spec = parse_family(f"cartesian(path:{m},path:{n})")
        p = predicted_chi(spec, K.GP)
        assert p.status == "bounds" and p.low == -(-m * n // 4)
        c = construct_colouring(spec, K.GP)
        assert c.verified and p.low <= c.k <= p.high and c.optimality == "upper_bound_only"

    def test_unsupported_grid(self):
        with pytest.raises(UnsupportedConstruction):
            construct_colouring(parse_family("cartesian(path:5,path:7)"), K.GP)


class TestCylinderAndTorus:
    def test_cylinder_seven(self):
        c = construct_colouring(parse_family("cartesian(path:5,cycle:7)"), K.GP)
        assert c.verified and c.k == 7  # 35 vertices in seven 5-sets

    def test_cylinder_nine_with_leftover_rows(self):
        c = construct_colouring(parse_family("cartesian(path:7,cycle:9)"), K.GP)
        assert c.verified and c.k == 9 + 2 * 5

    def test_cylinder_unsupported_girth(self):
        with pytest.raises(UnsupportedConstruction):
            construct_colouring(parse_family("cartesian(path:5,cycle:6)"), K.GP)

    def test_torus_49(self):
        c = construct_colouring(parse_family("cartesian(cycle:49,cycle:49)"), K.GP)
        assert c.verified and c.k == 343 and c.optimality == "exact"
        classes = c.colouring.classes()
        assert all(len(cls) == 7 for cls in classes)
        assert sorted(v for cls in classes for v in cls) == list(range(49 * 49))

    def test_torus_small_is_upper_bound(self):
        c = construct_colouring(parse_family("cartesian(cycle:7,cycle:14)"), K.GP)
        assert c.verified and c.k == 14 and c.optimality == "upper_bound_only"

    def test_torus_spot_check_against_real_graph(self):
        # the metric shortcut is justified by distance additivity; spot-check
        # one torus against full BFS verification
        spec = parse_family("cartesian(cycle:7,cycle:7)")
        c = construct_colouring(spec, K.GP)
        assert verify_colouring(generate(spec), c.colouring, K.GP)


class TestStrongGrids:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 3), (4, 6), (5, 6), (8, 8)])
    def test_gp_blocks(self, m, n):
        c = construct_colouring(parse_family(f"strong(path:{m},path:{n})"), K.GP)
        assert c.verified
        assert c.k == -(-m // 2) * -(-n // 2)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 6), (4, 6), (5, 6), (6, 8)])
    def test_mu_rows(self, m, n):
        c = construct_colouring(parse_family(f"strong(path:{m},path:{n})"), K.MU)
        assert c.verified
        assert c.k == (2 if m == 2 else -(-m // 2))
        assert c.optimality == "exact"

    def test_mu_k4_case(self):
        c = construct_colouring(parse_family("strong(path:2,path:2)"), K.MU)
        assert c.k == 2 and c.optimality == "upper_bound_only"


class TestHFamily:
    @pytest.mark.parametrize("r,s", [(3, 0), (3, 1), (3, 4), (4, 2), (5, 5), (6, 3), (4, 7)])
    def test_both_kinds(self, r, s):
        gp = construct_colouring(parse_family(f"h:{r},{s}"), K.GP)
        mono = construct_colouring(parse_family(f"h:{r},{s}"), K.MONO)
        assert gp.verified and gp.k == -(-(s + 3) // 2)
        expected_mono = -(-(r + s + 1) // 2) if r <= s else r + 1
        assert mono.verified and mono.k == expected_mono


class TestMultipartiteAndTuran:
    @pytest.mark.parametrize(
        "parts", [(3, 1), (2, 2, 1), (4, 4), (3, 3, 3), (5, 2, 1), (2, 1, 1, 1)]
    )
    def test_multipartite(self, parts):
        spec = parse_family("multipartite:" + ",".join(map(str, parts)))
        c = construct_colouring(spec, K.GP)
        assert c.verified and c.k == multipartite_chi_gp(parts)
        assert c.optimality == "exact"

    def test_turan_partite_classes(self):
        c = construct_colouring(parse_family("turan:3,8"), K.GP_I)
        assert c.verified and c.k == 3 and c.optimality == "exact"


class TestGraphLevelConstructions:
    def test_peeling_path(self):
        c = colour_block_graph_peeling(path(7))
        assert c.verified and c.k == 4

    def test_peeling_two_cliques(self):
        two_k4 = build_graph(
            7,
            [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(i, j) for i in range(3, 7) for j in range(i + 1, 7)],
        )
        assert colour_block_graph_peeling(two_k4).k == 2

    def test_peeling_matches_diameter_formula(self):
        for seed in range(25):
            g = random_block_graph(14, seed)
            c = colour_block_graph_peeling(g)
            assert c.verified
            assert c.k == -(-(diameter(g) + 1) // 2)
            assert c.k == chromatic_position_number(g, K.GP).k

    def test_each_peeling_class_is_the_simplicial_vertices_left(self):
        blocks = 0
        for n in range(1, 8):
            for g in graphs_of_order(n):
                if not is_block_graph(g):
                    continue
                blocks += 1
                alive = set(range(n))
                for cls in colour_block_graph_peeling(g).colouring.classes():
                    assert set(cls) == oracle_simplicial(g, alive), g.edges()
                    alive -= set(cls)
                assert not alive
        assert blocks == 214

    def test_peeling_rejects_non_block(self):
        with pytest.raises(GraphInputError):
            colour_block_graph_peeling(cycle(4))

    def test_clique_cover_colouring(self):
        g = generate(parse_family("split_random:9,3"))
        c = colour_by_clique_cover(g)
        assert c.verified
        c_mono = colour_by_clique_cover(g, K.MONO)
        assert c_mono.verified

    def test_clique_cover_rejects_independent_kinds(self):
        with pytest.raises(GraphInputError):
            colour_by_clique_cover(path(4), K.GP_I)

    def test_total_domination_path8(self):
        c = colour_by_total_domination(path(8))
        assert c.verified and c.k == 4

    def test_total_domination_c6(self):
        assert colour_by_total_domination(cycle(6)).verified

    def test_total_domination_rejects_diamond(self):
        diamond = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(GraphInputError):
            colour_by_total_domination(diamond)

    @pytest.mark.parametrize("spec", ["complete:4", "g_star:4,6"])
    def test_total_domination_accepts_cliques(self, spec):
        # an edge of a K4 has two common neighbours, but they are adjacent
        g = generate(parse_family(spec))
        c = colour_by_total_domination(g)
        assert c.verified and c.k <= total_domination_number(g)

    def test_total_domination_on_every_diamond_free_catalogue_graph(self):
        """Every catalogue graph with no induced diamond and no isolated
        vertex: the colouring verifies, and chi_gp <= k <= gamma_t, an upper
        bound that bounds() offers."""
        admitted = 0
        for n in range(1, 8):
            for g in graphs_of_order(n):
                if not oracle_is_diamond_free(g) or not all(g.adj[v] for v in range(n)):
                    continue
                admitted += 1
                c = colour_by_total_domination(g)
                gamma = total_domination_number(g)
                assert c.verified and c.k <= gamma, g.edges()
                assert chromatic_position_number(g, K.GP).k <= c.k
                assert bounds(g, K.GP).upper <= gamma
        assert admitted == 298


def test_constructions_match_exact_predictions():
    """Wherever the prediction is exact and a construction exists, they agree."""
    cases = [
        ("cycle:11", K.GP), ("cycle:10", K.MONO), ("kneser2:7", K.GP),
        ("line_complete:9", K.GP), ("cartesian(path:2,path:10)", K.GP),
        ("cartesian(path:3,path:12)", K.GP), ("cartesian(path:4,path:8)", K.GP),
        ("multipartite:4,2,1", K.GP), ("h:4,6", K.GP), ("h:4,6", K.MONO),
        ("strong(path:5,path:7)", K.MU), ("turan:3,5", K.GP), ("turan:7,7", K.GP),
    ]
    for text, kind in cases:
        spec = parse_family(text)
        pred = predicted_chi(spec, kind)
        built = construct_colouring(spec, kind)
        assert pred.status == "exact" and built.k == pred.value, text


def _sweep_specs() -> list[str]:
    specs = [f"path:{n}" for n in range(1, 9)] + [f"cycle:{n}" for n in range(3, 13)]
    specs += [f"kneser2:{n}" for n in range(1, 8)] + [f"line_complete:{n}" for n in range(2, 9)]
    specs += [
        "multipartite:" + ",".join(map(str, parts))
        for parts in [(1,), (3,), (1, 1), (2, 1), (3, 1), (2, 2, 1), (4, 2, 1), (2, 1, 1, 1)]
    ]
    specs += [f"turan:{a},{n}" for n in range(1, 8) for a in range(1, n + 1)]
    specs += [f"h:{r},{s}" for r in range(1, 5) for s in range(4)]
    for product in ("cartesian", "strong"):
        specs += [f"{product}(path:{a},path:{b})" for a in range(1, 6) for b in range(1, 6)]
        specs += [f"{product}(path:{a},path:{b})" for a, b in [(3, 8), (4, 8), (5, 8), (6, 8), (1, 9)]]
        specs += [f"{product}(path:{b},path:{a})" for a, b in [(3, 8), (4, 8), (5, 8), (6, 8), (1, 9)]]
    specs += [f"cartesian(path:{a},cycle:{b})" for a in (1, 2, 5) for b in (3, 7, 9)]
    specs += [f"cartesian(cycle:{b},path:{a})" for a in (1, 5) for b in (3, 7, 9)]
    specs += [f"cartesian(cycle:{a},cycle:{b})" for a, b in [(7, 7), (7, 14), (14, 7), (3, 5)]]
    return specs


def _malformed_variants(specs: list[str]) -> list[str]:
    """Each spec again with one of its arguments made 0, -1 or -7, every one
    outside its family's range."""
    bad = {
        text[: m.start()] + arg + text[m.end() :]
        for text in specs for m in re.finditer(r"\d+", text) for arg in ("0", "-1", "-7")
    }
    return sorted(bad - set(specs))


_SWEEP_SPECS = _sweep_specs()
_MALFORMED = _malformed_variants(_SWEEP_SPECS)


@pytest.mark.parametrize("text", _SWEEP_SPECS + _MALFORMED)
def test_construction_sweep(text):
    """Every construction either gives a verified colouring of the graph its
    spec names or an input error, malformed arguments included.

    An ``exact`` colouring has as many classes as an exact prediction and,
    up to 12 vertices, as the exact solver; any other has at least as many.
    A malformed variant is rejected by ``generate`` and, for every kind, by
    both predictions, so neither claims a value for a graph that cannot exist.
    """
    spec = parse_family(text)
    if text in _MALFORMED:
        with pytest.raises(GraphInputError):
            generate(spec)
        for kind in PositionKind:
            for predict in (predicted_chi, predicted_position_number):
                with pytest.raises(GraphInputError):
                    predict(spec, kind)
    for kind in PositionKind:
        try:
            built = construct_colouring(spec, kind)
        except GraphInputError:
            continue
        g = generate(spec)
        assert built.verified and verify_colouring(g, built.colouring, kind), kind
        exact = built.optimality == "exact"
        pred = predicted_chi(spec, kind)
        if pred.status == "exact":
            assert built.k == pred.value if exact else built.k >= pred.value, (kind, pred)
        if g.n <= 12:
            solved = chromatic_position_number(g, kind)
            assert solved.optimality == "exact"
            assert built.k == solved.k if exact else built.k >= solved.k, (kind, solved.k)


def test_product_check_rejects_a_collinear_class():
    from poscol.constructions import _product_colouring

    torus = parse_family("cartesian(cycle:7,cycle:7)")
    good = [[r * 7 + (2 * r + c) % 7 for r in range(7)] for c in range(7)]
    _product_colouring(torus, good)
    rows = [[r * 7 + c for c in range(7)] for r in range(7)]  # a row holds 0, 1, 2
    with pytest.raises(AssertionError, match="general position"):
        _product_colouring(torus, rows)
    # each class shape is checked once: a collinear class that is not a
    # translate of the others must still be caught among them
    with pytest.raises(AssertionError, match="general position"):
        _product_colouring(torus, good[:3] + rows[3:4] + good[4:])


_GP_PRODUCT_SPECS = [text for text in _SWEEP_SPECS if text.startswith(("cartesian", "strong"))]


def _agreement(texts: list[str], kind: PositionKind, check, seed: int) -> dict:
    """Move 1-3 vertices between the classes of each construction of
    ``texts``, 80 times, and require ``check(spec, classes)`` to raise
    exactly when ``verify_colouring`` on the generated graph rejects; the
    accepted and rejected counts."""
    rng = random.Random(seed)
    outcomes = {True: 0, False: 0}
    for text in texts:
        spec = parse_family(text)
        try:
            built = construct_colouring(spec, kind)
        except UnsupportedConstruction:
            continue
        g = generate(spec)
        classes = built.colouring.classes()
        if len(classes) < 2:
            continue
        for _ in range(80):
            moved = [list(cls) for cls in classes]
            for _ in range(rng.randint(1, 3)):
                source, target = rng.sample(range(len(moved)), 2)
                if moved[source]:
                    v = moved[source].pop(rng.randrange(len(moved[source])))
                    moved[target].insert(rng.randint(0, len(moved[target])), v)
            moved = [cls for cls in moved if cls]
            expected = verify_colouring(g, Colouring.from_classes(g.n, moved), kind)
            try:
                check(spec, moved)
            except AssertionError:
                accepted = False
            else:
                accepted = True
            assert accepted == expected, (text, moved)
            outcomes[accepted] += 1
    return outcomes


def test_product_check_agrees_with_bfs_verification():
    """On every gp product construction of the sweep (grids of both kinds,
    cylinders, tori), moving 1-3 vertices between classes many times, the
    closed-form product check raises exactly when ``verify_colouring`` on the
    generated graph rejects the colouring."""
    from poscol.constructions import _product_colouring

    outcomes = _agreement(_GP_PRODUCT_SPECS, K.GP, _product_colouring, 29)
    assert min(outcomes.values()) >= 400, outcomes


_MU_STRONG_SPECS = sorted(
    {text for text in _SWEEP_SPECS if text.startswith("strong")}
    | {f"strong(path:{m},path:{n})" for m in range(1, 9) for n in range(1, 9)}
)


def test_strong_mu_check_agrees_with_bfs_verification():
    """On every mu strong-grid construction of the sweep and every strong
    grid up to 8x8, moving 1-3 vertices between classes many times, the king
    walks raise exactly when ``verify_colouring`` on the generated graph
    rejects the colouring."""
    from poscol.constructions import _strong_mu_colouring

    outcomes = _agreement(_MU_STRONG_SPECS, K.MU, _strong_mu_colouring, 31)
    assert min(outcomes.values()) >= 400, outcomes


def test_pair_check_agrees_with_bfs_verification():
    """On kneser2:5-12 and line_complete:2-15, moving 1-3 vertices between
    classes many times, the check by the pair labels raises exactly when
    ``verify_colouring`` on the generated graph rejects the colouring."""
    from poscol.constructions import _pair_colouring

    texts = [f"kneser2:{n}" for n in range(5, 13)] + [f"line_complete:{n}" for n in range(2, 16)]
    outcomes = _agreement(texts, K.GP, _pair_colouring, 31)
    # a moved pair mostly lands between two members of a large class
    assert outcomes[True] >= 30 and outcomes[False] >= 1000, outcomes


def test_strong_mu_check_agrees_with_the_oracle():
    """Random sets on strong grids up to 6x7: the king walks accept a set
    exactly when the explicit geodesic enumeration of ``tests/oracles.py``
    finds every pair of it visible."""
    from oracles import oracle_is_position_set
    from poscol.constructions import _strong_mu_colouring

    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for m in range(1, 7):
        for n in range(1, 8):
            spec = parse_family(f"strong(path:{m},path:{n})")
            g = generate(spec)
            for _ in range(25):
                s = rng.sample(range(g.n), rng.randint(min(3, g.n), min(8, g.n)))
                try:
                    _strong_mu_colouring(spec, [s] + [[v] for v in range(g.n) if v not in s])
                except AssertionError:
                    accepted = False
                else:
                    accepted = True
                assert accepted == oracle_is_position_set(g, s, K.MU), (m, n, s)
                outcomes[accepted] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_constructions_verify_without_the_distance_matrix(monkeypatch):
    from poscol.graphs import Graph

    computed = []
    matrix = Graph.distance_matrix
    monkeypatch.setattr(Graph, "distance_matrix", lambda g: computed.append(g.n) or matrix(g))
    cases = [("strong(path:30,path:30)", K.GP), ("strong(path:20,path:30)", K.MU), ("h:20,20", K.MONO)]
    for text, kind in cases:
        assert construct_colouring(parse_family(text), kind).verified
    assert computed == []


def test_an_unsupported_pair_builds_no_graph(monkeypatch):
    """A (family, kind) pair with no construction raises before any graph is
    generated, however large the spec; a malformed one still raises an input
    error first."""
    import poscol.constructions
    import poscol.formulas

    def fail(spec):
        raise AssertionError(f"generated {spec}")

    for module in (poscol.constructions, poscol.formulas):
        monkeypatch.setattr(module, "generate", fail)
    for text, kind in [("complete:1500", K.GP), ("cartesian(path:300,path:300)", K.MU),
                       ("cartesian(cycle:14,cycle:15)", K.GP), ("kneser2:40", K.MONO),
                       ("line_complete:19", K.GP), ("line_complete:25", K.GP)]:
        with pytest.raises(UnsupportedConstruction):
            construct_colouring(parse_family(text), kind)
    with pytest.raises(GraphInputError) as caught:
        construct_colouring(parse_family("complete:0"), K.GP)
    assert not isinstance(caught.value, UnsupportedConstruction)


def test_a_closed_form_construction_builds_no_graph(monkeypatch):
    """Grids, strong-grid blocks, cylinders and tori (gp), the strong-grid
    row pairing (mu) and the Kneser and line-graph classes (gp) are checked
    without their graph, so none of them generates it."""
    import poscol.constructions
    import poscol.formulas

    def fail(spec):
        raise AssertionError(f"generated {spec}")

    for module in (poscol.constructions, poscol.formulas):
        monkeypatch.setattr(module, "generate", fail)
    for text, kind, k in [("cartesian(path:4,path:200)", K.GP, 201), ("strong(path:30,path:30)", K.GP, 225),
                          ("cartesian(path:10,cycle:30)", K.GP, 60), ("cartesian(cycle:98,cycle:98)", K.GP, 1372),
                          ("strong(path:20,path:30)", K.MU, 10), ("kneser2:12", K.GP, 9),
                          ("line_complete:15", K.GP, 7)]:
        built = construct_colouring(parse_family(text), kind)
        assert built.verified and built.k == k, text
