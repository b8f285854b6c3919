import itertools
import random

import pytest

from conftest import PETERSEN_GP_CLASSES, complete, cycle, metric_graphs, path, random_graph
from oracles import (
    all_geodesics,
    floyd_warshall,
    geodesic_betweenness_triples,
    induced_path_through_arrangements,
    induced_path_triples,
    oracle_is_position_set,
    oracle_position_number,
    row_layers,
)
from poscol.catalogue import graphs_of_order
from poscol.errors import UNLIMITED, BudgetExceededError, GraphInputError, Limits
from poscol.graph6 import graph6_decode
from poscol.constructions import construct_colouring
from poscol.families import generate, kneser2_graph, parse_family
from poscol.graphs import (
    build_graph, degree_order, disjoint_union, distance_layers, product, relabel,
)
from poscol.reduction import NaeInstance, build_reduction, normalize, random_nae_instance
from poscol.solver import Colouring, chromatic_position_number, verify_colouring
from poscol.position import (
    ALL_KINDS,
    PositionKind,
    SetState,
    are_position_sets,
    compiled,
    completions,
    exists_induced_path_through,
    is_maximal_position_set,
    is_position_set,
    known_position_number,
    parse_kind,
    position_number,
    position_sets_of_size,
    sees,
)

K = PositionKind


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

    def test_overlapping_or_out_of_range_sets_are_rejected(self):
        with pytest.raises(GraphInputError, match="disjoint"):
            are_position_sets(path(5), [[0, 1, 2], [2, 3]], K.MU)
        with pytest.raises(GraphInputError, match="out-of-range"):
            are_position_sets(path(5), [[0, 1], [3, 5]], K.MU_I)

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
                    distance_layers(cached)
                    assert is_position_set(fresh, s, kind) == expected, (g.edges(), s, kind)
                    assert is_position_set(cached, s, kind) == expected, (g.edges(), s, kind)
                    assert "distance_layers" not in fresh._memo
                    # nor does it read the compiled form or the induced-path walk
                    assert {("constraints", kind.base), "induced_paths"}.isdisjoint(fresh._memo)
                    if expected:
                        accepted_sizes.append(len(set(s)))
        assert max(accepted_sizes) >= 7

    @pytest.mark.parametrize("kind", [K.MU, K.MU_I])
    def test_mu_sweep_over_random_partitions(self, kind):
        """One sweep checks every class of a colouring at once; it must
        accept exactly the partitions whose classes the oracle accepts one by
        one, and build neither the compiled form nor the distance layers."""
        rng = random.Random(77)
        verdicts = set()
        for g in self.graphs(rng, 150):
            for _ in range(4):
                k = rng.randint(1, g.n)
                assignment = [rng.randrange(k) for _ in range(g.n)]
                ids = {c: i for i, c in enumerate(sorted(set(assignment)))}
                c = Colouring(tuple(ids[x] for x in assignment), len(ids))
                expect = all(oracle_is_position_set(g, cls, kind) for cls in c.classes())
                fresh = build_graph(g.n, g.edges())
                assert verify_colouring(fresh, c, kind) == expect, (g.edges(), c, kind)
                assert {("constraints", kind.base), "distance_layers"}.isdisjoint(fresh._memo)
                verdicts.add((expect, max(map(len, c.classes())) > 2))
        assert {(True, True), (False, True)} <= verdicts

    def test_mu_construction_with_each_vertex_moved(self):
        """The strong(P6, P8) mu colouring, and each of its 96 colourings with
        one vertex moved into another class, judged as the oracle judges them."""
        spec = parse_family("strong(path:6,path:8)")
        g = generate(spec)
        classes = construct_colouring(spec, K.MU).colouring.classes()
        assert verify_colouring(g, Colouring.from_classes(g.n, classes), K.MU)
        moves = rejected = 0
        for i, j in itertools.permutations(range(len(classes)), 2):
            for v in classes[i]:
                moved = [[u for u in cls if u != v] for cls in classes]
                moved[j].append(v)
                expect = all(oracle_is_position_set(g, cls, K.MU) for cls in moved)
                c = Colouring.from_classes(g.n, [cls for cls in moved if cls])
                assert verify_colouring(g, c, K.MU) == expect, (v, i, j)
                moves += 1
                rejected += not expect
        assert (moves, rejected) == (96, 84)


class TestCollinearTripleAgainstOracle:
    """The gp verifier tests each member against the ORed buckets of its
    later members at each distance, and the mu verifier sweeps from every
    member at once.  Their verdicts must be the oracle's, on a fresh graph
    (for gp, one walk per member) and on one with its layers cached."""

    @staticmethod
    def verdicts(g, s, kind):
        fresh = build_graph(g.n, g.edges())
        cached = build_graph(g.n, g.edges())
        distance_layers(cached)
        return [is_position_set(fresh, s, kind), is_position_set(cached, s, kind)]

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_subset_of_every_small_graph(self, n):
        for g in graphs_of_order(n):
            for size in range(3, n + 1):
                for s in itertools.combinations(range(n), size):
                    for kind in (K.GP, K.GP_I, K.MU, K.MU_I):
                        expect = oracle_is_position_set(g, s, kind)
                        assert self.verdicts(g, s, kind) == [expect, expect], (g.edges(), s, kind)

    @staticmethod
    def large_class_colouring(case):
        if case == "nae":
            inst = normalize(NaeInstance(4, ((1, 2, 3), (-1, 2, 4), (1, -3, -4))))
            g = build_reduction(inst).graph
            return g, chromatic_position_number(g, K.GP).colouring.classes()
        spec = parse_family(case)
        return generate(spec), construct_colouring(spec, K.GP).colouring.classes()

    @pytest.mark.parametrize("case", ["kneser2:7", "line_complete:7", "nae"])
    def test_large_classes_and_each_vertex_moved(self, case):
        """Each class is accepted, and each class that gains a vertex of
        another is judged as the oracle judges it."""
        g, classes = self.large_class_colouring(case)
        assert max(map(len, classes)) >= 6
        for cls in classes:
            assert self.verdicts(g, cls, K.GP) == [True, True], cls
        rejected = 0
        for i, j in itertools.permutations(range(len(classes)), 2):
            for v in classes[i]:
                grown = classes[j] + [v]
                expect = oracle_is_position_set(g, grown, K.GP)
                assert self.verdicts(g, grown, K.GP) == [expect, expect], grown
                rejected += not expect
        assert rejected

    def test_grid_triples_that_span_distance_199(self):
        """P4 x P200: the two 3-member classes of the construction, and a
        collinear triple with its middle point first, second and last in
        vertex order.  The grid's metric is |dr| + |dc|."""
        spec = parse_family("cartesian(path:4,path:200)")
        g = generate(spec)
        cell = {label: v for v, label in enumerate(g.labels)}
        built = [c for c in construct_colouring(spec, K.GP).colouring.classes() if len(c) == 3]
        collinear = [
            [(2, 100), (2, 199), (3, 1)],
            [(1, 1), (1, 100), (1, 200)],
            [(1, 200), (2, 2), (2, 150)],
        ]
        assert len(built) == 2
        for s in built + [[cell[c] for c in cells] for cells in collinear]:
            cells = [g.labels[v] for v in s]
            d = [abs(r - q) + abs(c - e) for (r, c), (q, e) in itertools.combinations(cells, 2)]
            assert max(d) == 199
            expect = 2 * max(d) != sum(d)
            assert self.verdicts(g, s, K.GP) == [expect, expect], cells
            assert expect == (s in built)


class TestInducedPathThrough:
    def test_cycle_arc(self):
        assert exists_induced_path_through(cycle(5), 0, 1, 2)

    def test_clique_has_no_induced_p3(self):
        assert not exists_induced_path_through(complete(4), 0, 1, 2)

    def test_distinct_required(self):
        with pytest.raises(GraphInputError):
            exists_induced_path_through(path(4), 0, 0, 3)

    @pytest.mark.parametrize("u, w, v", [(0, 1, 7), (-1, 1, 2), (0, 4, 2), (9, 1, -3)])
    def test_vertices_out_of_range_are_rejected_before_the_memo(self, u, w, v):
        g = path(4)
        with pytest.raises(GraphInputError, match="vertices of the graph"):
            exists_induced_path_through(g, u, w, v)
        assert not g._memo.get("induced_through")

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


class TestSees:
    @pytest.mark.parametrize("index", range(9))
    def test_matches_geodesic_enumeration(self, index):
        """``sees`` from every source against every shortest path, with seeded
        target and blocked sets that sometimes hold the source, a target or
        a vertex of another component; a source sees itself past any set."""
        g = _differential_graphs()[index]
        rng = random.Random(index)
        adj = [sum(1 << u for u in g.adj[v]) for v in range(g.n)]
        everyone = (1 << g.n) - 1
        for a, row in enumerate(floyd_warshall(g)):
            layers = row_layers(row)
            assert sees(adj, layers, a, 1 << a, everyone)
            for _ in range(12):
                targets = set(rng.sample(range(g.n), rng.randint(1, 3)))
                blocked = set(rng.sample(range(g.n), rng.randint(0, g.n)))
                if rng.random() < 0.3:
                    targets.add(a)
                if rng.random() < 0.3:
                    blocked.add(a)
                if rng.random() < 0.3:
                    blocked |= targets
                expect = all(
                    any(not blocked & set(p[1:-1]) for p in all_geodesics(g, a, b))
                    for b in targets
                )
                got = sees(adj, layers, a, sum(1 << b for b in targets),
                           sum(1 << x for x in blocked))
                assert got == expect, (g.edges(), a, targets, blocked)


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
        """``fits`` agrees with the oracle on every outside vertex before each
        add and after each pop, so mu's recorded answers are undone with the
        members they were made for; ``try_add`` agrees too."""
        g = _differential_graphs()[index]
        rng = random.Random(index)
        oracle: dict[frozenset, bool] = {}

        def fits_by_oracle(members):
            out = 0
            for v in range(g.n):
                if v not in members:
                    s = frozenset(members + [v])
                    if s not in oracle:
                        oracle[s] = oracle_is_position_set(g, s, kind)
                    out |= oracle[s] << v
            return out

        state = SetState(compiled(g, kind), kind.independent)
        for _ in range(60):
            outside = [v for v in range(g.n) if v not in state.members]
            if not outside or (state.members and rng.random() < 0.3):
                state.pop()
                everyone_else = sum(1 << v for v in range(g.n) if v not in state.members)
                assert state.fits(everyone_else) == fits_by_oracle(state.members)
                continue
            v = rng.choice(outside)
            before = list(state.members)
            expect = fits_by_oracle(before)
            assert state.fits(sum(1 << u for u in outside)) == expect, before
            assert state.members == before
            assert state.try_add(v) == bool(expect >> v & 1), (before, v)
            assert state.members == (before + [v] if expect >> v & 1 else before)

    @pytest.mark.parametrize("graphs", [f"order{n}" for n in range(2, 7)] + [
        f"differential{i}" for i in range(9)])
    @pytest.mark.parametrize("kind", [K.MU, K.MU_I], ids=lambda k: k.value)
    def test_mu_batch_fits_matches_try_add_and_the_oracle(self, graphs, kind):
        """Every catalogue graph of order <= 6 and every differential graph:
        for each set S of 2-4 vertices that the oracle accepts, grown in the
        order S[1], ..., S[-1], S[0] (so its member pairs come in both id
        orders), the batch answer ``fits(V \\ S)`` is exactly the vertices v
        that ``try_add`` takes on a second state grown the same way, and those
        with S + v a position set by the oracle."""
        if graphs.startswith("order"):
            cases = graphs_of_order(int(graphs.removeprefix("order")))
        else:
            cases = [_differential_graphs()[int(graphs.removeprefix("differential"))]]
        for g in cases:
            core = compiled(g, kind)
            for size in range(2, 5):
                for s in itertools.combinations(range(g.n), size):
                    if not oracle_is_position_set(g, s, kind):
                        continue
                    batch, single = SetState(core, kind.independent), SetState(core, kind.independent)
                    for v in s[1:] + s[:1]:
                        assert batch.try_add(v) and single.try_add(v)
                    rest = [v for v in range(g.n) if v not in s]
                    by_try_add = by_oracle = 0
                    for v in rest:
                        if single.try_add(v):
                            single.pop()
                            by_try_add |= 1 << v
                        by_oracle |= oracle_is_position_set(g, s + (v,), kind) << v
                    got = batch.fits(sum(1 << v for v in rest))
                    assert got == by_try_add == by_oracle, (g.edges(), s)

    @pytest.mark.parametrize("index", range(9))
    def test_lines_are_the_collinear_sets(self, index):
        """On differential graph ``index``, one ninth of the metric graphs and a
        randomly relabelled copy of each."""
        rng = random.Random(index)
        for g in [_differential_graphs()[index], *metric_graphs()[index::9]]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            copy = relabel(g, perm)
            for kind, triples in ((K.GP, geodesic_betweenness_triples(g)),
                                  (K.MONO, induced_path_triples(g))):

                def between(x, y, z):
                    return (min(x, z), y, max(x, z)) in triples

                for a, b in itertools.combinations(range(g.n), 2):
                    expect = [
                        w for w in range(g.n)
                        if w not in (a, b)
                        and (between(a, w, b) or between(w, a, b) or between(a, b, w))
                    ]
                    for h, name in ((g, range(g.n)), (copy, perm)):
                        core = compiled(h, kind)
                        x, y = name[a], name[b]
                        mask = sum(1 << name[w] for w in expect)
                        assert core.lines_through(x, [y]) == core.lines_through(y, [x]) == mask, (
                            g.edges(), kind, a, b,
                        )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_behind_masks_are_the_later_ends_of_geodesics_through_v(self, n):
        """On every catalogue graph of order n, ``_behind(a, v)`` holds the
        vertices b > a, b != v, with d(a, v) + d(v, b) = d(a, b) finite."""
        for g in graphs_of_order(n):
            dist = floyd_warshall(g)
            core = compiled(g, K.MU)
            for a, v in itertools.permutations(range(n), 2):
                if dist[a][v] == float("inf"):
                    continue
                expect = sum(
                    1 << b for b in range(a + 1, n)
                    if b != v and dist[a][v] + dist[v][b] == dist[a][b] < float("inf")
                )
                assert core._behind(a, v) == expect, (g.edges(), a, v)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lines_through_a_joining_vertex_are_the_collinear_sets(self, n):
        """On every catalogue graph of order n, for the gp and mono cores, a
        vertex v and every member set of at most three other vertices:
        ``lines_through(v, members)`` is the union over members b of the
        vertices collinear with v and b, and each of those lines is then
        stored under both of its ends."""
        for g in graphs_of_order(n):
            for kind, triples in ((K.GP, geodesic_betweenness_triples(g)),
                                  (K.MONO, induced_path_triples(g))):

                def between(x, y, z):
                    return (min(x, z), y, max(x, z)) in triples

                def line(a, b):
                    return sum(
                        1 << w for w in range(n)
                        if w not in (a, b)
                        and (between(a, w, b) or between(w, a, b) or between(a, b, w))
                    )

                core = compiled(g, kind)
                for v in range(n):
                    others = [b for b in range(n) if b != v]
                    for size in range(4):
                        for members in itertools.combinations(others, size):
                            expect = 0
                            for b in members:
                                expect |= line(v, b)
                            assert core.lines_through(v, members) == expect, (
                                g.edges(), kind, v, members,
                            )
                            for b in members:
                                assert core.lines[b].get(v) == core.lines[v][b], (g.edges(), kind)

    @pytest.mark.parametrize("case", [
        *(f"nae {p} {q}" for p in range(3, 6) for q in range(3, 5)),
        "path:9", "cartesian(path:3,path:5)", "complete:4 with a path:5 tail",
    ])
    def test_gp_lines_through_on_gadgets_and_uneven_eccentricities(self, case):
        """On the reduction gadgets (n = 20 to 42, diameter 2) and on graphs
        where one end of a line has eccentricity equal to the distance while
        the other goes further, ``lines_through(v, members)`` for seeded
        member sets of at most four vertices is the union of the oracle's
        lines, and each line is then stored under both of its ends."""
        if case.startswith("nae"):
            p, q = map(int, case.split()[1:])
            g = build_reduction(normalize(random_nae_instance(p, q, 10 * p + q))).graph
        elif case.startswith("complete"):
            edges = [(a, b) for a, b in itertools.combinations(range(4), 2)]
            g = build_graph(9, edges + [(v, v + 1) for v in range(3, 8)])
        else:
            g = generate(parse_family(case))
        n, triples = g.n, geodesic_betweenness_triples(g)

        def line(a, b):
            return sum(
                1 << w for w in range(n)
                if w not in (a, b) and any(
                    (min(x, z), y, max(x, z)) in triples
                    for x, y, z in ((a, w, b), (w, a, b), (a, b, w))
                )
            )

        core = compiled(g, K.GP)
        rng = random.Random(case)
        for _ in range(8):
            for v in range(n):
                members = rng.sample([b for b in range(n) if b != v], rng.randint(0, 4))
                expect = 0
                for b in members:
                    expect |= line(v, b)
                assert core.lines_through(v, members) == expect, (case, v, members)
                for b in members:
                    assert core.lines[b][v] == core.lines[v][b] == line(v, b), (case, v, b)

    @pytest.mark.parametrize("kind, independent", [(K.GP, K.GP_I), (K.MONO, K.MONO_I), (K.MU, K.MU_I)])
    def test_a_kind_and_its_independent_variant_share_one_core(self, petersen, kind, independent):
        assert compiled(petersen, independent) is compiled(petersen, kind)

    def test_the_base_kinds_share_the_graphs_metric(self, petersen):
        gp, mono, mu = (compiled(petersen, kind) for kind in (K.GP, K.MONO, K.MU))
        assert gp.layers is mu.layers and mono.layers is None
        assert gp.component is mono.component is mu.component
        assert gp.adj is mono.adj is mu.adj

    def test_a_compile_stopped_by_the_budget_caches_nothing(self):
        """The mono walk is the compile's one budgeted step; a stop leaves no
        core and no walk behind, and a later unbudgeted compile succeeds."""
        g = graph6_decode("Q??ELCm?A?BO?e?A@C???`?g?_O")  # random:18,0.2,3
        with pytest.raises(BudgetExceededError):
            compiled(g, K.MONO, Limits(node_limit=100))
        assert {("constraints", K.MONO), "induced_paths"}.isdisjoint(g._memo)
        core = compiled(g, K.MONO)
        assert g._memo[("constraints", K.MONO)] is core and core.paths is g._memo["induced_paths"]


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

    def test_the_empty_graph_costs_its_root_alone(self):
        for kind in ALL_KINDS:
            ticker = Limits(node_limit=10).ticker()
            assert position_number(build_graph(0, []), kind, ticker).witness == frozenset()
            assert ticker.nodes_left == 9

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_a_stop_inside_the_walk_caches_nothing(self, kind):
        """Compiled first, so the 50-node stop falls inside the walk, which
        needs at least 238 nodes on P4xP6 for every kind."""
        g = generate(parse_family("cartesian(path:4,path:6)"))
        compiled(g, kind)
        with pytest.raises(BudgetExceededError):
            position_number(g, kind, Limits(node_limit=50))
        assert ("pi_witness", kind) not in g._memo and known_position_number(g, kind) is None
        found = position_number(g, kind)
        assert found.value == {"gp": 4, "mono": 2, "mu": 8}[kind.base.value]
        assert known_position_number(g, kind) is found


@pytest.mark.parametrize("n", range(1, 7))
def test_the_rising_walk_yields_one_larger_set_each_time(n):
    """On every catalogue graph of order n and for all six kinds, the rising
    walk yields position sets of sizes 1, 2, ..., pi in turn, and pops every
    member before it returns."""
    for g in graphs_of_order(n):
        for kind in ALL_KINDS:
            state = SetState(compiled(g, kind), kind.independent)
            sizes = []
            for _ in completions(state, degree_order(g), 1, UNLIMITED.ticker(), rising=True):
                assert oracle_is_position_set(g, state.members, kind), (g.edges(), kind)
                sizes.append(len(state.members))
            assert sizes == list(range(1, oracle_position_number(g, kind) + 1)), (g.edges(), kind)
            assert state.members == [] and state.mask == 0


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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_subset_of_the_catalogue_matches_brute_force(self, n):
        """On every catalogue graph of order n, for all six kinds, a subset
        that is no oracle position set is refused, and one that is is
        maximal exactly when no vertex added gives an oracle position set."""
        for g in graphs_of_order(n):
            for kind in ALL_KINDS:
                for size in range(n + 1):
                    for s in itertools.combinations(range(n), size):
                        if not oracle_is_position_set(g, s, kind):
                            with pytest.raises(GraphInputError):
                                is_maximal_position_set(g, s, kind)
                            continue
                        assert is_maximal_position_set(g, s, kind) == self.brute_maximal(
                            g, s, kind), (g.edges(), kind, s)

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


@pytest.mark.parametrize("n", range(1, 7))
def test_sets_of_each_size_are_the_oracle_position_sets(n):
    """On every catalogue graph of order n, for all six kinds and every
    size, the fixed-size walk yields each oracle position set once and
    nothing else."""
    for g in graphs_of_order(n):
        for kind in ALL_KINDS:
            for size in range(n + 1):
                found = list(position_sets_of_size(g, kind, size))
                expect = {
                    frozenset(s) for s in itertools.combinations(range(n), size)
                    if oracle_is_position_set(g, s, kind)
                }
                assert len(found) == len(set(found)), (g.edges(), kind, size)
                assert set(found) == expect, (g.edges(), kind, size)


def test_a_negative_size_is_rejected_before_any_walk(petersen):
    with pytest.raises(GraphInputError):
        list(position_sets_of_size(petersen, K.GP, -1, Limits(node_limit=100)))


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
