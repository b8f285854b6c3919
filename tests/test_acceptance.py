"""Acceptance criteria, one test per criterion, each printing a PASS line.

All expected values are exact integers; every assertion is equality at
tolerance zero unless the criterion itself states a bracket.
"""

import itertools
import time

from conftest import PETERSEN_EDGES, partitions_descending
from oracles import canonical_key, oracle_cochromatic
from poscol.catalogue import graphs_of_order
from poscol.constructions import (
    colour_block_graph_peeling,
    construct_colouring,
)
from poscol.families import generate, parse_family, random_block_graph, random_split_graph
from poscol.formulas import (
    chi_gp_two_characterization,
    large_value_characterization,
    line_complete_chi_gp,
    multipartite_chi_gp,
    predicted_chi,
    predicted_position_number,
)
from poscol.graphs import build_graph, complement, diameter, is_connected
from poscol.kirkman import audit_triple_system, kirkman_triple_system
from poscol.position import PositionKind, position_number, position_sets_of_size
from poscol.reduction import check_equivalence, parse_cnf, random_nae_instance
from poscol.catalogue import fig6_cnf_text
from poscol.solver import (
    check_inequality_suite,
    chromatic_number,
    chromatic_position_number,
)

K = PositionKind


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_petersen():
    start = time.monotonic()
    pet = build_graph(10, PETERSEN_EDGES)
    values = {
        "gp": chromatic_position_number(pet, K.GP).k,
        "mono": chromatic_position_number(pet, K.MONO).k,
        "mu": chromatic_position_number(pet, K.MU).k,
        "gpi": chromatic_position_number(pet, K.GP_I).k,
        "chi": chromatic_number(pet),
    }
    elapsed = time.monotonic() - start
    assert values == {"gp": 2, "mono": 4, "mu": 2, "gpi": 3, "chi": 3}
    assert values["gpi"] == values["chi"]  # diameter two
    assert elapsed < 5
    report(1, f"Petersen {values} in {elapsed:.2f}s")


def test_criterion_02_cycles():
    start = time.monotonic()
    for n in range(5, 16):
        g = generate(parse_family(f"cycle:{n}"))
        expected = -(-n // 3)
        assert chromatic_position_number(g, K.GP).k == expected
        assert construct_colouring(parse_family(f"cycle:{n}"), K.GP).k == expected
    for n in range(4, 13):
        g = generate(parse_family(f"cycle:{n}"))
        expected = -(-n // 2)
        assert chromatic_position_number(g, K.MONO).k == expected
        assert construct_colouring(parse_family(f"cycle:{n}"), K.MONO).k == expected
    # n = 3: the printed formula gives 2, but C3 is a clique, so one class
    # suffices (the paper's own clique lemma); solver and construction agree
    assert chromatic_position_number(generate(parse_family("cycle:3")), K.MONO).k == 1
    assert construct_colouring(parse_family("cycle:3"), K.MONO).k == 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(2, f"cycle formulas gp 5..15, mono 4..12 (+clique case n=3) in {elapsed:.1f}s")


def test_criterion_03_block_graphs():
    start = time.monotonic()
    for seed in range(50):
        n = 2 + seed % 13  # orders 2..14
        g = random_block_graph(n, seed)
        expected = -(-(diameter(g) + 1) // 2)
        assert chromatic_position_number(g, K.GP).k == expected
        peel = colour_block_graph_peeling(g)
        assert peel.verified and peel.k == expected
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(3, f"50 random block graphs: solver == peeling == diameter formula in {elapsed:.1f}s")


def test_criterion_04_multipartite():
    start = time.monotonic()
    counted = 0
    for n in range(1, 10):
        for parts in partitions_descending(n):
            g = generate(parse_family("multipartite:" + ",".join(map(str, parts))))
            formula = multipartite_chi_gp(parts)
            assert chromatic_position_number(g, K.GP).k == formula, parts
            assert oracle_cochromatic(g) == formula, parts
            counted += 1
    elapsed = time.monotonic() - start
    report(4, f"{counted} multipartite partitions n<=9: solver == formula == cochromatic oracle in {elapsed:.1f}s")


def test_criterion_05_line_graphs():
    start = time.monotonic()
    for n, expected in zip(range(4, 8), (2, 3, 4, 4)):
        g = generate(parse_family(f"line_complete:{n}"))
        assert chromatic_position_number(g, K.GP).k == expected
    for n in (9, 13, 15):
        spec = parse_family(f"line_complete:{n}")
        built = construct_colouring(spec, K.GP)
        formula = line_complete_chi_gp(n)
        pi = predicted_position_number(spec, K.GP).value
        vertices = n * (n - 1) // 2
        lower = -(-vertices // pi)
        assert built.verified and built.k == formula == lower
    for n in (3, 9, 15):
        audit_triple_system(kirkman_triple_system(n))
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(5, f"L(K_n): solver (2,3,4,4) for n=4..7; n=9,13,15 certified via n/pi; KTS audits in {elapsed:.1f}s")


def test_criterion_06_kneser():
    start = time.monotonic()
    for n in (5, 6, 7):
        g = generate(parse_family(f"kneser2:{n}"))
        assert chromatic_position_number(g, K.GP).k == n - 3
    g8 = generate(parse_family("kneser2:8"))
    built = construct_colouring(parse_family("kneser2:8"), K.GP)
    assert built.verified and built.k == 5
    # k = 4 would need four classes of exactly 7 = gp(K(8,2)) vertices;
    # every gp-set of that size is independent, so the colouring would be
    # proper with 4 < 6 = chi(K(8,2)) colours
    assert position_number(g8, K.GP).value == 7
    seen = 0
    for s in position_sets_of_size(g8, K.GP, 7):
        seen += 1
        assert all(b not in g8.adj[a] for a, b in itertools.combinations(sorted(s), 2))
    assert seen > 0
    assert chromatic_number(g8) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 900
    report(6, f"Kneser: n=5,6,7 solved; chi_gp(K(8,2)) = 5 certified ({seen} max sets all independent, chi = 6) in {elapsed:.1f}s")


def test_criterion_07_grids():
    start = time.monotonic()
    for n in range(3, 13):
        spec = parse_family(f"cartesian(path:2,path:{n})")
        expected = predicted_chi(spec, K.GP).value
        r, rem = divmod(n, 3)
        assert expected == 2 * r + (0, 1, 2)[rem]
        assert chromatic_position_number(generate(spec), K.GP).k == expected
    for n in (4, 5):
        spec = parse_family(f"cartesian(path:4,path:{n})")
        assert chromatic_position_number(generate(spec), K.GP).k == n + 1
    for n in range(4, 11):
        built = construct_colouring(parse_family(f"cartesian(path:4,path:{n})"), K.GP)
        assert built.verified and built.k == n + 1
    built = construct_colouring(parse_family("cartesian(path:3,path:12)"), K.GP)
    lower = 12 // 2 + -(-(3 * 12 - 4 * (12 // 2)) // 3)  # central-layer counting
    assert built.verified and built.k == 10 == lower
    elapsed = time.monotonic() - start
    report(7, f"grids: ladder three-case, 4xN = N+1, 3x12 = 10 via central-layer bound in {elapsed:.1f}s")


def test_criterion_08_torus():
    start = time.monotonic()
    built = construct_colouring(parse_family("cartesian(cycle:49,cycle:49)"), K.GP)
    classes = built.colouring.classes()
    assert built.verified and built.k == 343
    assert all(len(cls) == 7 for cls in classes)
    assert sorted(v for cls in classes for v in cls) == list(range(2401))
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(8, f"torus 49x49: 343 verified 7-vertex classes partition 2401 vertices in {elapsed:.1f}s")


def test_criterion_09_strong_grids():
    start = time.monotonic()
    for m in range(2, 9):
        for n in range(m, 9):
            built = construct_colouring(parse_family(f"strong(path:{m},path:{n})"), K.GP)
            assert built.verified
            assert built.k <= -(-m * n // 4) + (m + n + 1) // 4 + 1
    for m in range(2, 5):
        for n in range(m, 5):
            spec = parse_family(f"strong(path:{m},path:{n})")
            solved = chromatic_position_number(generate(spec), K.GP)
            assert solved.optimality == "exact"
            assert solved.k <= construct_colouring(spec, K.GP).k
    for m in range(2, 6):
        for n in range(m, 7):
            spec = parse_family(f"strong(path:{m},path:{n})")
            expected = predicted_chi(spec, K.MU).value
            assert chromatic_position_number(generate(spec), K.MU).k == expected
            built = construct_colouring(spec, K.MU)
            assert built.verified and built.k == (2 if m == 2 else -(-m // 2))
    elapsed = time.monotonic() - start
    report(9, f"strong grids: gp blocks verified m,n<=8; mu rows match solver m<=5,n<=6 in {elapsed:.1f}s")


def test_criterion_10_reduction():
    start = time.monotonic()
    fig6 = parse_cnf(fig6_cnf_text())
    rep = check_equivalence(fig6)
    assert rep.nae_satisfiable and rep.gp_three_colourable and rep.agree
    assert rep.assignment_from_colouring is not None
    assert rep.colouring_from_assignment is not None
    agreements = 0
    for i in range(100):
        p = 3 + i % 3  # p in 3..5
        q = 3 + i % 2  # q in {3, 4}
        inst = random_nae_instance(p, q, 7000 + i)
        if check_equivalence(inst).agree:
            agreements += 1
    assert agreements == 100
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(10, f"reduction: Figure-6 instance certified both ways; 100/100 random agreements in {elapsed:.1f}s")


def test_criterion_11_characterisations():
    start = time.monotonic()
    for n in range(2, 6):
        cat = large_value_characterization(n)
        expect_near = {canonical_key(g) for g in cat.gp_n_minus_1}
        expect_two_gp = {canonical_key(g) for g in cat.gp_n_minus_2}
        expect_two_mono = {canonical_key(g) for g in cat.mono_n_minus_2}
        got_near, got_two_gp, got_two_mono = set(), set(), set()
        for g in graphs_of_order(n):
            kgp = chromatic_position_number(g, K.GP).k
            kmono = chromatic_position_number(g, K.MONO).k
            key = canonical_key(g)
            if kgp == n - 1:
                got_near.add(key)
            if kgp == n - 2:
                got_two_gp.add(key)
            if kmono == n - 2:
                got_two_mono.add(key)
        assert got_near == expect_near, n
        if n >= 3:
            assert got_two_gp == expect_two_gp, n
            assert got_two_mono == expect_two_mono, n
    checked = 0
    for n in range(1, 8):
        for g in graphs_of_order(n):
            assert chi_gp_two_characterization(g) == (
                chromatic_position_number(g, K.GP).k == 2
            ), g.edges()
            checked += 1
    elapsed = time.monotonic() - start
    report(11, f"large-value catalogues n<=5 exact; chi_gp=2 predicate == solver on {checked} graphs n<=7 in {elapsed:.1f}s")


def test_criterion_12_inequality_suite():
    start = time.monotonic()
    from poscol.families import random_connected_graph

    failures = []
    for i in range(500):
        n = 2 + i % 8  # orders 2..9
        g = random_connected_graph(n, 0.35, 12000 + i)
        assert is_connected(g)
        rep = check_inequality_suite(g)
        if not rep.all_hold:
            failures.append((i, [r.name for r in rep.failures]))
    assert failures == []
    elapsed = time.monotonic() - start
    assert elapsed < 900
    report(12, f"500 random connected graphs n<=9: zero inequality violations in {elapsed:.1f}s")


def test_criterion_13_nordhaus_gaddum():
    start = time.monotonic()
    checked = 0
    for n in range(1, 8):
        for g in graphs_of_order(n):
            total = (
                chromatic_position_number(g, K.GP_I).k
                + chromatic_position_number(complement(g), K.GP_I).k
            )
            assert total <= n + 1, (n, g.edges(), total)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    report(13, f"Nordhaus-Gaddum: chi_gpi(G) + chi_gpi(G-bar) <= n+1 on all {checked} graphs n<=7 in {elapsed:.1f}s")


def test_criterion_14_realisation_spot_checks():
    start = time.monotonic()
    h55 = generate(parse_family("h:5,5"))
    assert chromatic_position_number(h55, K.GP).k == 4 == -(-(5 + 3) // 2)
    assert chromatic_position_number(h55, K.MONO).k == 6
    for seed in range(6):
        for n in (6, 7, 8):
            split = random_split_graph(n, seed)
            assert chromatic_position_number(split, K.GP).k == 2
            prism = generate(parse_family(f"complementary_prism(split_random:{n},{seed})"))
            assert chromatic_position_number(prism, K.GP).k == 2
    q_values = {}
    for r in range(4, 10):
        spec = parse_family(f"q:{r}")
        pred = predicted_chi(spec, K.GP)
        solved = chromatic_position_number(generate(spec), K.GP)
        assert solved.optimality == "exact" and solved.verified
        assert pred.low <= solved.k <= pred.high
        q_values[r] = solved.k
    printed = {r: -(-(r - 1) // 2) for r in q_values}
    structural = {r: 1 + -(-(r - 2) // 2) for r in q_values}
    elapsed = time.monotonic() - start
    report(
        14,
        f"H(5,5) = (4, 6); split/prism chi_gp = 2; Q(r) solver {q_values} "
        f"(printed formula {printed}, structural {structural}) in {elapsed:.1f}s",
    )
