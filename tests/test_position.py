import itertools
import random

import pytest

from conftest import PETERSEN_GP_CLASSES, complete, cycle, path
from oracles import (
    geodesic_betweenness_triples,
    induced_path_through_arrangements,
    induced_path_triples,
    oracle_is_position_set,
    oracle_position_number,
)
from poscol.catalogue import graphs_of_order
from poscol.errors import GraphInputError
from poscol.families import kneser2_graph
from poscol.graphs import build_graph, disjoint_union, product
from poscol.position import (
    ALL_KINDS,
    PositionKind,
    SetState,
    compiled,
    exists_induced_path_through,
    geodesic_avoiding,
    is_maximal_position_set,
    is_position_set,
    parse_kind,
    position_number,
    position_sets_of_size,
)

K = PositionKind


def random_graph(n, p, rng):
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestKindParsing:
    @pytest.mark.parametrize(
        "text,kind",
        [("gp", K.GP), ("gpi", K.GP_I), ("gp_i", K.GP_I), ("mono", K.MONO),
         ("mpi", K.MONO_I), ("mu", K.MU), ("mui", K.MU_I), ("igp", K.GP_I)],
    )
    def test_aliases(self, text, kind):
        assert parse_kind(text) is kind

    def test_unknown(self):
        with pytest.raises(GraphInputError):
            parse_kind("nope")

    def test_base_and_independence(self):
        assert K.GP_I.base is K.GP and K.GP_I.independent
        assert K.MU.base is K.MU and not K.MU.independent


class TestIsPositionSet:
    def test_collinear_triple_on_path(self):
        assert not is_position_set(path(4), {0, 1, 3}, K.GP)

    def test_petersen_figure_classes(self, petersen):
        for cls in PETERSEN_GP_CLASSES:
            assert is_position_set(petersen, cls, K.GP)

    def test_c6_alternating_set(self):
        # brute-force geodesic enumeration says {0,2,4} is in general position
        # in C6 (each distance-2 pair has a unique geodesic avoiding the third)
        g = cycle(6)
        assert oracle_is_position_set(g, {0, 2, 4}, K.GP)
        assert is_position_set(g, {0, 2, 4}, K.GP)
        assert is_position_set(g, {0, 2, 4}, K.MU)

    def test_out_of_range(self):
        with pytest.raises(GraphInputError):
            is_position_set(path(3), {0, 7}, K.GP)

    def test_independent_variants(self):
        g = complete(4)
        assert is_position_set(g, {0, 1, 2, 3}, K.GP)
        assert not is_position_set(g, {0, 1}, K.GP_I)
        assert is_position_set(g, {0}, K.GP_I)

    def test_cross_component_no_constraint(self):
        from poscol.graphs import disjoint_union

        g = disjoint_union(path(3), path(3))
        # 0,1,2 collinear within a component; picking across components is fine
        assert not is_position_set(g, {0, 1, 2}, K.GP)
        assert is_position_set(g, {0, 2, 3, 5}, K.GP)

    def test_matches_oracle_all_kinds(self):
        rng = random.Random(41)
        for _ in range(120):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            s = [v for v in range(g.n) if rng.random() < 0.5]
            for kind in ALL_KINDS:
                assert is_position_set(g, s, kind) == oracle_is_position_set(
                    g, s, kind
                ), (g.edges(), s, kind)


class TestVerifierAgainstOracle:
    """``is_position_set`` decides each set from its members' distances alone;
    it must agree with the brute-force oracle whether or not the graph has
    its distance matrix cached, and compute no matrix for gp or mu."""

    @staticmethod
    def graphs(rng, count):
        for _ in range(count):
            n = rng.randint(1, 9)
            if n > 2 and rng.random() < 0.3:
                a = rng.randint(1, n - 1)
                yield disjoint_union(random_graph(a, rng.random(), rng), random_graph(n - a, rng.random(), rng))
            else:
                yield random_graph(n, rng.random(), rng)

    def test_random_sets_and_solver_classes(self):
        from poscol.solver import chromatic_position_number

        rng = random.Random(2024)
        accepted_sizes = []
        for g in self.graphs(rng, 70):
            for kind in ALL_KINDS:
                sets = [rng.sample(range(g.n), rng.randint(0, g.n)) for _ in range(4)]
                sets += chromatic_position_number(g, kind).colouring.classes()
                witness = sorted(position_number(g, kind).witness)
                sets.append(witness)
                sets += [witness + [v] for v in range(g.n) if v not in witness]
                for s in sets:
                    expected = oracle_is_position_set(g, s, kind)
                    fresh = build_graph(g.n, g.edges())
                    cached = build_graph(g.n, g.edges())
                    cached.distance_matrix()
                    assert is_position_set(fresh, s, kind) == expected, (g.edges(), s, kind)
                    assert is_position_set(cached, s, kind) == expected, (g.edges(), s, kind)
                    if kind.base is not K.MONO:
                        assert fresh._dist is None
                    if expected:
                        accepted_sizes.append(len(set(s)))
        assert max(accepted_sizes) >= 7


class TestInducedPathThrough:
    def test_cycle_arc(self):
        assert exists_induced_path_through(cycle(5), 0, 1, 2)

    def test_clique_has_no_induced_p3(self):
        assert not exists_induced_path_through(complete(4), 0, 1, 2)

    def test_distinct_required(self):
        with pytest.raises(GraphInputError):
            exists_induced_path_through(path(4), 0, 0, 3)

    def test_matches_exhaustive_enumeration_petersen(self, petersen):
        arrangements = induced_path_through_arrangements(petersen)
        for u, w, v in itertools.permutations(range(10), 3):
            if u < v:
                assert exists_induced_path_through(petersen, u, w, v) == (
                    (u, w, v) in arrangements
                )

    def test_matches_enumeration_random(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng.randint(3, 7), rng.random(), rng)
            arrangements = induced_path_through_arrangements(g)
            for u, w, v in itertools.permutations(range(g.n), 3):
                if u < v:
                    assert exists_induced_path_through(g, u, w, v) == (
                        (u, w, v) in arrangements
                    )


class TestGeodesicAvoiding:
    def test_two_disjoint_geodesics(self):
        assert geodesic_avoiding(cycle(6), 0, 3, {1, 2})

    def test_both_blocked(self):
        assert not geodesic_avoiding(cycle(6), 0, 3, {1, 4})

    def test_unique_geodesic_blocked(self):
        assert not geodesic_avoiding(path(4), 0, 3, {1})

    def test_disconnected_pair_rejected(self):
        g = build_graph(2, [])
        with pytest.raises(GraphInputError):
            geodesic_avoiding(g, 0, 1, set())


def _differential_graphs():
    """Seeded random graphs on at most 9 vertices; every third is disconnected."""
    rng = random.Random(2024)
    out = []
    for i in range(9):
        if i % 3 == 2:
            g = disjoint_union(random_graph(rng.randint(3, 5), 0.6, rng),
                               random_graph(rng.randint(2, 4), 0.6, rng))
        else:
            g = random_graph(rng.randint(5, 9), rng.choice([0.25, 0.4, 0.6]), rng)
        out.append(g)
    return out


class TestSetStateAgainstOracles:
    @pytest.mark.parametrize("index", range(9))
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_random_lifo_sequences(self, index, kind):
        g = _differential_graphs()[index]
        rng = random.Random(index)
        oracle: dict[frozenset, bool] = {}
        state = SetState(g, kind)
        for _ in range(60):
            outside = [v for v in range(g.n) if v not in state.members]
            if not outside or (state.members and rng.random() < 0.3):
                state.pop()
                continue
            v = rng.choice(outside)
            s = frozenset(state.members + [v])
            if s not in oracle:
                oracle[s] = oracle_is_position_set(g, s, kind)
            before = list(state.members)
            assert state.admits(v) == oracle[s], (before, v)
            assert state.members == before
            assert state.try_add(v) == oracle[s], (before, v)
            assert state.members == (before + [v] if oracle[s] else before)

    @pytest.mark.parametrize("index", range(9))
    def test_lines_are_the_collinear_sets(self, index):
        g = _differential_graphs()[index]
        for kind, triples in ((K.GP, geodesic_betweenness_triples(g)),
                              (K.MONO, induced_path_triples(g))):
            core = compiled(g, kind)

            def between(x, y, z):
                return (min(x, z), y, max(x, z)) in triples

            for a, b in itertools.combinations(range(g.n), 2):
                expect = sum(
                    1 << w for w in range(g.n)
                    if w not in (a, b)
                    and (between(a, w, b) or between(w, a, b) or between(a, b, w))
                )
                assert core.line(a, b, g) == core.line(b, a, g) == expect, (kind, a, b)

    @pytest.mark.parametrize("kind, independent", [(K.GP, K.GP_I), (K.MONO, K.MONO_I), (K.MU, K.MU_I)])
    def test_a_kind_and_its_independent_variant_share_one_core(self, petersen, kind, independent):
        assert compiled(petersen, independent) is compiled(petersen, kind)


class TestPositionNumber:
    def test_petersen_gp_six(self, petersen):
        w = position_number(petersen, K.GP)
        assert w.value == 6
        assert is_position_set(petersen, w.witness, K.GP)

    def test_ladder_gp_three(self):
        g = product("cartesian", path(2), path(8))
        assert position_number(g, K.GP).value == 3

    def test_clique_cases(self):
        k7 = complete(7)
        assert position_number(k7, K.MONO).value == 7
        assert position_number(k7, K.GP_I).value == 1

    def test_matches_exhaustive_n7(self):
        # subset-scan oracle over the full catalogues
        for n in range(1, 8):
            sample = graphs_of_order(n)
            if n == 7:
                sample = sample[::13]  # deterministic thinning at the top size
            for g in sample:
                for kind in ALL_KINDS:
                    assert (
                        position_number(g, kind).value
                        == oracle_position_number(g, kind)
                    ), (n, g.edges(), kind)

    def test_gp_number_two_families(self):
        for n in range(2, 9):
            assert position_number(path(n), K.GP).value == 2
        assert position_number(cycle(4), K.GP).value == 2


class TestDownwardClosureAndChain:
    def test_downward_closure(self):
        rng = random.Random(77)
        done = 0
        while done < 500:
            g = random_graph(rng.randint(2, 8), rng.random(), rng)
            s = [v for v in range(g.n) if rng.random() < 0.6]
            kind = rng.choice(ALL_KINDS)
            if not is_position_set(g, s, kind):
                continue
            done += 1
            sub = [v for v in s if rng.random() < 0.6]
            assert is_position_set(g, sub, kind)

    def test_chain_mono_gp_mu(self):
        rng = random.Random(78)
        for _ in range(500):
            g = random_graph(rng.randint(2, 8), rng.random(), rng)
            s = [v for v in range(g.n) if rng.random() < 0.5]
            if is_position_set(g, s, K.MONO):
                assert is_position_set(g, s, K.GP)
            if is_position_set(g, s, K.GP):
                assert is_position_set(g, s, K.MU)


class TestMaximality:
    def test_requires_position_set(self):
        with pytest.raises(GraphInputError):
            is_maximal_position_set(path(4), {0, 1, 3}, K.GP)

    def brute_maximal(self, g, s, kind):
        return not any(
            oracle_is_position_set(g, set(s) | {v}, kind)
            for v in range(g.n)
            if v not in s
        )

    def test_p5_pair_matches_brute_force(self):
        g = path(5)
        assert is_maximal_position_set(g, {0, 4}, K.GP) == self.brute_maximal(
            g, {0, 4}, K.GP
        )

    def test_c4_pair_matches_brute_force(self):
        g = cycle(4)
        assert is_maximal_position_set(g, {0, 2}, K.GP) == self.brute_maximal(
            g, {0, 2}, K.GP
        )

    def test_k62_three_k2_maximal(self):
        g = kneser2_graph(6)
        inside = [i for i, lab in enumerate(g.labels) if set(lab) <= {1, 2, 3, 4}]
        assert len(inside) == 6
        assert is_maximal_position_set(g, inside, K.GP)


def _kneser_maximal_type(g, s):
    """Classify a maximal gp-set of K(n,2) into the four structural types."""
    labels = [set(g.labels[v]) for v in s]
    union = set().union(*labels)
    if len(s) == 3 and len(union) == 3:
        return "triangle-triple"
    if len(s) == 6 and len(union) == 4:
        return "3K2-of-a-4-subset"
    if all(not (a & b) for a, b in itertools.combinations(labels, 2)):
        return "clique-of-disjoint-pairs"
    common = set.intersection(*labels) if labels else set()
    if len(common) == 1:
        return "common-element-star"
    return None


@pytest.mark.parametrize("n", [5, 6])
def test_kneser_maximal_taxonomy(n):
    g = kneser2_graph(n)
    seen = set()
    for size in range(1, 8):
        for s in position_sets_of_size(g, K.GP, size):
            if is_maximal_position_set(g, s, K.GP):
                t = _kneser_maximal_type(g, s)
                assert t is not None, sorted(g.labels[v] for v in s)
                seen.add(t)
    assert "common-element-star" in seen and "3K2-of-a-4-subset" in seen
