import itertools
from collections import Counter

import pytest

from poscol import reduction, solver
from poscol.catalogue import fig6_cnf_text
from poscol.errors import GraphInputError
from poscol.graphs import diameter
from poscol.position import PositionKind
from poscol.reduction import (
    NaeInstance,
    TriviallyNo,
    assignment_to_colouring,
    build_reduction,
    check_equivalence,
    colouring_to_assignment,
    nae_brute_force,
    nae_satisfies,
    normalize,
    parse_cnf,
    random_nae_instance,
    write_cnf,
)
from poscol.solver import feasible_position_colouring, verify_colouring

K = PositionKind

UNSAT_8 = NaeInstance(
    3,
    tuple(
        tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
        for signs in itertools.product([True, False], repeat=3)
    ),
)


def fig6():
    return parse_cnf(fig6_cnf_text())


class TestNormalize:
    def test_all_equal_single_variable_is_no(self):
        assert isinstance(normalize(NaeInstance(1, ((1, 1, 1),))), TriviallyNo)
        assert isinstance(normalize(NaeInstance(2, ((-2, -2, -2), (1, 2, -2)))), TriviallyNo)

    def test_both_polarities_clause_dropped(self):
        norm = normalize(NaeInstance(3, ((1, -1, 2), (1, 2, 3))))
        assert not isinstance(norm, TriviallyNo)
        assert all(len({abs(l) for l in c}) == 3 for c in norm.clauses)

    def test_doubled_literal_expands(self):
        norm = normalize(NaeInstance(2, ((1, 1, 2),)))
        assert norm.p == 3
        assert (1, 2, 3) in norm.clauses and (1, 2, -3) in norm.clauses

    def test_padding_to_three_clauses(self):
        norm = normalize(NaeInstance(3, ((1, 2, 3),)))
        assert norm.q >= 3

    def test_vacuous_instance_is_satisfiable(self):
        norm = normalize(NaeInstance(1, ((1, -1, 1),)))
        assert not isinstance(norm, TriviallyNo)
        assert nae_brute_force(norm) is not None

    def test_equisatisfiable(self):
        import random

        rng = random.Random(5)
        for _ in range(60):
            p = rng.randint(1, 4)
            clauses = []
            for _ in range(rng.randint(1, 4)):
                lits = tuple(
                    rng.choice([1, -1]) * rng.randint(1, p) for _ in range(3)
                )
                clauses.append(lits)
            raw = NaeInstance(p, tuple(clauses))
            norm = normalize(raw)
            raw_sat = nae_brute_force(raw) is not None
            norm_sat = (not isinstance(norm, TriviallyNo)) and nae_brute_force(
                norm
            ) is not None
            assert raw_sat == norm_sat, raw

    def test_malformed_clause(self):
        with pytest.raises(GraphInputError):
            NaeInstance(2, ((1, 2),))
        with pytest.raises(GraphInputError):
            NaeInstance(2, ((1, 2, 5),))

    def test_negative_variable_count(self):
        with pytest.raises(GraphInputError, match="variable count -1"):
            parse_cnf("p nae3 -1 0\n")


class TestBuildReduction:
    def test_fig6_shape(self):
        rg = build_reduction(normalize(fig6()))
        assert rg.graph.n == 26
        assert diameter(rg.graph) == 2

    def test_order_formula_and_hubs(self):
        for seed in range(5):
            inst = random_nae_instance(4, 3, seed)
            rg = build_reduction(normalize(inst))
            p, q = rg.instance.p, rg.instance.q
            assert rg.graph.n == 2 * p * q + 2
            y, z = rg.y, rg.z
            assert z not in rg.graph.adj[y]
            assert all(
                y in rg.graph.adj[v] and z in rg.graph.adj[v]
                for v in range(2 * p * q)
            )
            assert diameter(rg.graph) == 2

    def test_clause_paths_are_p3(self):
        inst = normalize(fig6())
        rg = build_reduction(inst)
        for j, clause in enumerate(inst.clauses):
            v1, v2, v3 = (rg.literal_vertex(l, j) for l in clause)
            assert v2 in rg.graph.adj[v1] and v3 in rg.graph.adj[v2]
            assert v3 not in rg.graph.adj[v1]

    def test_variable_blocks_are_complete_bipartite(self):
        inst = normalize(fig6())
        rg = build_reduction(inst)
        q = inst.q
        for i in range(1, inst.p + 1):
            base = (i - 1) * 2 * q
            for a in range(q):
                for b in range(q):
                    assert base + q + b in rg.graph.adj[base + a]

    def test_requires_normalized(self):
        with pytest.raises(GraphInputError):
            build_reduction(NaeInstance(2, ((1, 1, 2),)))


class TestCertificates:
    def test_fig6_paper_assignment(self):
        inst = normalize(fig6())
        rg = build_reduction(inst)
        col = assignment_to_colouring(inst, rg, (True, False, False, True))
        assert verify_colouring(rg.graph, col, K.GP)

    def test_non_satisfying_assignment_fails_verification(self):
        inst = normalize(fig6())
        rg = build_reduction(inst)
        # all-True makes clause 1 = {x1, x3, x4} monochromatic
        col = assignment_to_colouring(inst, rg, (True, True, True, True))
        assert not verify_colouring(rg.graph, col, K.GP)

    def test_roundtrip_fixed_point(self):
        inst = normalize(fig6())
        rg = build_reduction(inst)
        a = (True, False, False, True)
        back = colouring_to_assignment(rg, assignment_to_colouring(inst, rg, a))
        assert back in (a, tuple(not x for x in a))

    def test_solver_colouring_extracts_satisfying_assignment(self):
        found = 0
        seed = 0
        while found < 20:
            inst = random_nae_instance(4, 3, seed)
            seed += 1
            norm = normalize(inst)
            if isinstance(norm, TriviallyNo) or nae_brute_force(norm) is None:
                continue
            found += 1
            rg = build_reduction(norm)
            col = feasible_position_colouring(rg.graph, K.GP, 3)
            assert col is not None
            assignment = colouring_to_assignment(rg, col)
            assert nae_satisfies(norm, assignment)

    def test_rejects_unverified_colouring(self):
        inst = normalize(fig6())
        rg = build_reduction(inst)
        bad = assignment_to_colouring(inst, rg, (True, True, True, True))
        with pytest.raises(GraphInputError):
            colouring_to_assignment(rg, bad)


class TestBruteForce:
    def test_fig6_satisfiable(self):
        assert nae_brute_force(normalize(fig6())) is not None

    def test_eight_clause_unsatisfiable(self):
        assert nae_brute_force(UNSAT_8) is None

    def test_single_clause(self):
        a = nae_brute_force(NaeInstance(3, ((1, 2, 3),)))
        assert a is not None and len(set(a)) == 2

    def test_lexicographically_least(self):
        a = nae_brute_force(NaeInstance(3, ((1, 2, 3),)))
        assert a == (False, False, True)

    def test_too_many_variables(self):
        with pytest.raises(GraphInputError):
            nae_brute_force(NaeInstance(25, ((1, 2, 3),)))


class TestEquivalence:
    def test_fig6(self):
        rep = check_equivalence(fig6())
        assert rep.nae_satisfiable and rep.gp_three_colourable and rep.agree
        assert rep.assignment_from_colouring is not None

    def test_unsat_eight_clauses(self):
        rep = check_equivalence(UNSAT_8)
        assert not rep.nae_satisfiable and rep.gp_three_colourable is False
        assert rep.agree

    def test_trivially_no_short_circuits(self):
        rep = check_equivalence(NaeInstance(1, ((1, 1, 1),)))
        assert rep.trivially_no and rep.agree and rep.gp_three_colourable is None

    def test_random_instances_agree(self):
        for seed in range(40):
            p = 3 + seed % 3
            q = 3 + seed % 2
            rep = check_equivalence(random_nae_instance(p, q, seed))
            assert rep.agree


def count_verifications(monkeypatch) -> list[int]:
    """Route ``verify_colouring`` in the solver and the reduction through one
    counter; the returned list holds the count."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return verify_colouring(*args, **kwargs)

    monkeypatch.setattr(solver, "verify_colouring", counted)
    monkeypatch.setattr(reduction, "verify_colouring", counted)
    return calls


class TestEquivalenceVerification:
    """The recipe colouring is verified only when its partition differs from
    the solver colouring that ``feasible_position_colouring`` verified."""

    def test_a_recipe_with_another_partition_that_is_no_gp_colouring_raises(self, monkeypatch):
        recipe = assignment_to_colouring

        def all_true(norm, rg, assignment):
            # all-True makes clause 1 of fig6 = {x1, x3, x4} monochromatic
            return recipe(norm, rg, (True,) * norm.p)

        monkeypatch.setattr(reduction, "assignment_to_colouring", all_true)
        with pytest.raises(AssertionError, match="recipe colouring failed verification"):
            check_equivalence(fig6())

    def test_a_recipe_with_the_solvers_partition_is_verified_once(self, monkeypatch):
        norm = normalize(random_nae_instance(6, 16, 1))
        rg = build_reduction(norm)
        solved = feasible_position_colouring(rg.graph, K.GP, 3)
        recipe = assignment_to_colouring(norm, rg, nae_brute_force(norm))
        assert {frozenset(c) for c in solved.classes()} == {frozenset(c) for c in recipe.classes()}
        calls = count_verifications(monkeypatch)
        rep = check_equivalence(random_nae_instance(6, 16, 1))
        assert rep.agree and rep.colouring_from_assignment == recipe
        assert calls[0] == 1

    def test_the_reduction_suite_takes_both_branches(self, monkeypatch):
        """``pos suite reduction --count 200`` (seed 7): 86 recipes share the
        solver's partition (one verification), 112 do not (two), and 2
        instances are unsatisfiable (none: the solver finds no colouring)."""
        calls = count_verifications(monkeypatch)
        tally = Counter()
        for seed in range(7, 207):
            before = calls[0]
            rep = check_equivalence(random_nae_instance(3 + seed % 3, 3 + seed % 2, seed))
            assert rep.agree, seed
            tally[calls[0] - before] += 1
        assert tally == {1: 86, 2: 112, 0: 2}


class TestCnfFormat:
    def test_fig6_parse(self):
        inst = fig6()
        assert inst.p == 4 and inst.q == 3
        assert inst.clauses[1] == (2, -3, -4)

    def test_roundtrip(self):
        inst = random_nae_instance(5, 4, 11)
        assert parse_cnf(write_cnf(inst)) == inst

    def test_trailing_zero_tolerated(self):
        inst = parse_cnf("p nae3 3 1\n1 -2 3 0\n")
        assert inst.clauses == ((1, -2, 3),)

    def test_bad_header(self):
        with pytest.raises(GraphInputError):
            parse_cnf("p cnf 3 1\n1 2 3\n")
        with pytest.raises(GraphInputError):
            parse_cnf("1 2 3\n")

    def test_wrong_clause_count(self):
        with pytest.raises(GraphInputError):
            parse_cnf("p nae3 3 2\n1 2 3\n")
