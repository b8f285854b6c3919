"""Closed-form predictions and structural characterisations.

``predicted_chi`` returns what the theory proves about a family instance:
an exact value, a bracket, or an honest Unknown.  The exact solver is the
arbiter in tests; predictions never feed back into it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catalogue import graphs_of_order
from .errors import DEFAULT_LIMITS, GraphInputError, Limits
from .families import FamilySpec, generate, resolve, turan_parts
from .graphs import (
    Graph,
    _cliques_apart,
    adjacency_masks,
    build_graph,
    diameter,
    distance_layers,
    is_block_graph,
    is_connected,
    is_disjoint_union_of_cliques,
)
from .position import PositionKind


@dataclass(frozen=True)
class Prediction:
    """Exact(k), Bounds(lo, hi) or Unknown, with the source of the claim."""

    status: str  # "exact" | "bounds" | "unknown"
    low: int | None = None
    high: int | None = None
    source: str = ""

    @staticmethod
    def exact(k: int, source: str) -> "Prediction":
        return Prediction("exact", k, k, source)

    @staticmethod
    def bounds(lo: int, hi: int, source: str) -> "Prediction":
        return Prediction("bounds", lo, hi, source)

    @staticmethod
    def unknown() -> "Prediction":
        return Prediction("unknown")

    @property
    def value(self) -> int:
        if self.status != "exact":
            raise GraphInputError("prediction is not exact")
        assert self.low is not None
        return self.low


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def multipartite_chi_gp(parts: tuple[int, ...]) -> int:
    """min{r, min_i n_i + i - 1} over descending parts.

    The printed index in the source formula (smallest part first) returns 1
    on the star K_{1,3}, contradicting its gp-chromatic number 2; this
    orientation agrees with a brute-force cochromatic oracle.
    """
    r = len(parts)
    return min([r] + [parts[i] + i for i in range(r)])


def line_complete_chi_gp(n: int) -> int:
    if n < 3:
        raise GraphInputError("line_complete formula needs n >= 3")
    if n in (6, 12):
        return n // 2 + 1
    r = n % 6
    if r in (1, 5):
        return (n + 1) // 2
    if r in (2, 4) or (r == 0 and n >= 18):
        return n // 2
    return (n - 1) // 2  # n = 3 mod 6


def _grid_chi_gp(m: int, n: int) -> Prediction:
    if m > n:
        m, n = n, m
    if m == 1:
        return Prediction.exact(max(1, _ceil(n, 2)), "path pairing")
    if m == 2:
        if n == 2:
            return Prediction.exact(2, "C4 pairing")
        r, rem = divmod(n, 3)
        return Prediction.exact(2 * r + (0, 1, 2)[rem], "ladder three-case formula")
    if m == 3:
        if n % 4:
            return Prediction.unknown()
        # the central-layer count, met by the pattern's n/2 + ceil(n/3) classes
        return Prediction.exact(
            n // 2 + _ceil(3 * n - 4 * (n // 2), 3), "three-row grid: central-layer count"
        )
    if m == 4:
        return Prediction.exact(n + 1, "four-row diagonal packing")
    if m >= 16 and n >= 16:
        return Prediction.bounds(
            _ceil(m * n, 4), (m + 2) * (n + 2) // 4 - 4, "long-grid bracketing"
        )
    return Prediction.unknown()


def _strong_mu(m: int, n: int) -> Prediction:
    if m > n:
        m, n = n, m
    if m == 1:
        return Prediction.exact(_ceil(n, 2), "path: mu-sets have at most two vertices")
    if (m, n) == (2, 2):
        return Prediction.exact(1, "clique")
    if m == 2:
        return Prediction.exact(2, "two-row strong grid")
    return Prediction.exact(_ceil(m, 2), "strong-grid diagonal count")


def predicted_chi(spec: FamilySpec, kind: PositionKind) -> Prediction:
    """What the theory predicts for chi_kind of this family instance."""
    spec = resolve(spec)
    name, args = spec.name, spec.args
    K = PositionKind
    if name == "complete":
        n = args[0]
        if kind.independent:
            return Prediction.exact(n, "clique: singleton classes only")
        return Prediction.exact(1, "cliques are position sets")
    if name == "path":
        n = args[0]
        if kind in (K.GP, K.MONO):
            return Prediction.exact(max(1, _ceil(n, 2)), "position number two: pairing")
    if name == "cycle":
        n = args[0]
        if kind is K.GP:
            if n == 3:
                return Prediction.exact(1, "triangle is a clique")
            if n == 4:
                return Prediction.exact(2, "gp number two: pairing")
            return Prediction.exact(_ceil(n, 3), "cycle arc classes")
        if kind is K.MONO:
            # the printed claim covers n >= 3, but C3 is a clique (class count 1)
            if n == 3:
                return Prediction.exact(1, "triangle is a clique")
            return Prediction.exact(_ceil(n, 2), "mono position number two: pairing")
    if name == "multipartite":
        parts = tuple(args)
        if kind is K.GP:
            return Prediction.exact(multipartite_chi_gp(parts), "cochromatic formula")
        if kind in (K.GP_I, K.MU_I):
            return Prediction.exact(len(parts), "diameter <= 2: equals chromatic number")
        if kind is K.MONO_I:
            # independent classes, so at least the chromatic number; the parts are mono_i sets
            return Prediction.exact(len(parts), "independent parts: equals chromatic number")
        if kind is K.MONO and multipartite_chi_gp(parts) == len(parts):
            # every mono set is a gp set, and the parts are mono sets
            return Prediction.exact(len(parts), "parts, as many as the gp classes")
    if name == "turan":
        return predicted_chi(FamilySpec("multipartite", turan_parts(*args)), kind)
    if name == "kneser2":
        n = args[0]
        if kind is K.GP:
            return Prediction.exact(n - 3, "four-set plus common-element stars")
        if kind in (K.GP_I, K.MU_I):
            return Prediction.exact(n - 2, "diameter two: equals chromatic number")
    if name == "line_complete":
        n = args[0]
        if kind is K.GP and n == 2:
            return Prediction.exact(1, "L(K_2) is K_1")
        if kind is K.GP and n >= 3:
            return Prediction.exact(line_complete_chi_gp(n), "Kirkman-system classes")
    if name == "h":
        r, s = args
        if kind is K.GP:
            return Prediction.exact(_ceil(s + 3, 2), "hub-layer classes")
        if kind is K.MONO:
            if r <= s:
                return Prediction.exact(_ceil(r + s + 1, 2), "triples through the tail")
            return Prediction.exact(r + 1, "tail-limited triples")
    if name == "j":
        r, s = args
        if kind is K.GP:
            return Prediction.exact(r + s, "strong-block plus tail")
        if kind is K.MU:
            return Prediction.exact(s + 1, "strong-block plus tail")
    if name == "g_star":
        a, n = args  # a star K_{1,n-1} when a = 1, so chromatic number 2 once n >= 2
        if kind in (K.GP_I, K.MU_I):
            return Prediction.exact(max(a, min(n, 2)), "diameter <= 2: equals chromatic number")
    if name == "g":
        a, b = args
        if kind in (K.GP_I, K.MONO_I):
            return Prediction.exact(b, "clique colours recur once on the path")
    if name == "q":
        r = args[0]
        lo = _ceil(r - 1, 2)
        hi = 1 + _ceil(r - 2, 2)
        return (
            Prediction.bounds(lo, hi, "open question: printed formula vs structure")
            if kind is K.GP
            else Prediction.unknown()
        )
    if name == "split_random":
        n = args[0]
        if n >= 3 and kind in (K.GP, K.MONO):
            return Prediction.exact(2, "connected non-complete split graph")
    if name == "complementary_prism":
        base = args[0]
        if kind is K.GP and base.name == "split_random" and base.args[0] >= 3:
            return Prediction.exact(2, "complementary prism of a split graph")
    if name == "cartesian":
        a, b = args
        if (a.name, b.name) == ("cycle", "cycle") and kind is K.GP:
            n1, n2 = a.args[0], b.args[0]
            if n1 % 7 == 0 and n2 % 7 == 0 and min(n1, n2) >= 49:
                return Prediction.exact(n1 * n2 // 7, "torus tessellation by seven-sets")
            return Prediction.unknown()
        if (a.name, b.name) == ("path", "path") and kind is K.GP:
            return _grid_chi_gp(a.args[0], b.args[0])
        return Prediction.unknown()
    if name == "strong":
        a, b = args
        if (a.name, b.name) == ("path", "path") and kind is K.MU:
            return _strong_mu(a.args[0], b.args[0])
        if (a.name, b.name) == ("path", "path") and kind is K.GP:
            m, n = sorted((a.args[0], b.args[0]))
            if m <= 2:
                # the diameter bound, ceil(n / 2), is the number of 2x2 blocks
                return Prediction.exact(_ceil(n, 2), "diameter bound meets the 2x2 blocks")
        return Prediction.unknown()
    # generic block-graph clause: the diameter formula is exact for gp, and for
    # trees induced paths are geodesics so it covers mono as well
    if name in ("tree_leaves", "t", "s", "block_random", "g") and kind in (K.GP, K.MONO):
        g = generate(spec)
        if is_block_graph(g):
            value = _ceil(diameter(g) + 1, 2)
            if kind is K.GP:
                return Prediction.exact(value, "block-graph diameter formula")
            if g.m == g.n - 1 and is_connected(g):
                return Prediction.exact(value, "tree: induced paths are geodesics")
    return Prediction.unknown()


def predicted_position_number(spec: FamilySpec, kind: PositionKind) -> Prediction:
    """Stated position numbers for the families the theory covers."""
    spec = resolve(spec)
    name, args = spec.name, spec.args
    K = PositionKind
    if kind is K.GP:
        if name == "path":
            return Prediction.exact(2 if args[0] >= 2 else 1, "paths have gp number two")
        if name == "cycle":
            n = args[0]
            return Prediction.exact(
                {3: 3, 4: 2}.get(n, 3), "cycle gp numbers"
            )
        if name == "kneser2":
            n = args[0]
            return Prediction.exact(6 if n in (5, 6) else n - 1, "Kneser maximal-set taxonomy")
        if name == "line_complete":
            n = args[0]
            return Prediction.exact(n if n % 3 == 0 else n - 1, "stars-and-triangles structure")
        if name == "q":
            return Prediction.exact(3, "hub triple only")
        if name == "cartesian":
            a, b = args
            if (a.name, b.name) == ("path", "path"):
                m, n = sorted((a.args[0], b.args[0]))
                if m == 2 and n >= 3:
                    return Prediction.exact(3, "ladder gp number three")
            if {a.name, b.name} == {"path", "cycle"}:
                n1 = a.args[0] if a.name == "path" else b.args[0]
                n2 = b.args[0] if b.name == "cycle" else a.args[0]
                if n1 == 1:  # P_1 x C_n is C_n
                    return predicted_position_number(FamilySpec("cycle", (n2,)), kind)
                if (n1, n2) == (2, 3):
                    return Prediction.exact(3, "cylinder gp numbers")
                if n1 >= 5 and (n2 == 7 or n2 >= 9):
                    return Prediction.exact(5, "cylinder gp numbers")
                return Prediction.exact(4, "cylinder gp numbers")
        if name == "strong":
            a, b = args
            if (a.name, b.name) == ("path", "path") and min(a.args[0], b.args[0]) >= 2:
                return Prediction.exact(4, "strong grids have gp number four")
    if kind is K.MONO:
        if name == "path":
            return Prediction.exact(2 if args[0] >= 2 else 1, "paths have mono number two")
        if name == "cycle":
            n = args[0]
            return Prediction.exact(3 if n == 3 else 2, "long arcs are induced")
    return Prediction.unknown()


# -- characterisations ----------------------------------------------------------


def chi_gp_two_characterization(g: Graph, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Structural test for chi_gp(G) = 2: a 2-partition into independent
    unions of cliques with diam* <= 3 and the cross-clique distance condition.

    Disjoint unions of cliques satisfy the partition condition but have
    chi_gp = 1, so they are excluded up front; with that exclusion the
    predicate matches the exact solver on every graph of order <= 7.
    """
    n = g.n
    if n < 2 or is_disjoint_union_of_cliques(g):
        return False
    if diameter(g) > 3:
        return False
    adj = adjacency_masks(g)
    at_two = [row[2] if len(row) > 2 else 0 for row in distance_layers(g)]
    ticker = limits.ticker()
    for mask in range(1 << (n - 1)):
        ticker.tick()
        side0 = mask << 1 | 1  # vertex 0 is always on side 0
        side1 = (1 << n) - 1 ^ side0
        if side1 and _cliques_apart(adj, side0) and _cliques_apart(adj, side1):
            if _cross_condition(adj, at_two, side0, side1) and _cross_condition(adj, at_two, side1, side0):
                return True
    return False


def _cross_condition(adj, at_two, side_w: int, side_c: int) -> bool:
    # side_c induces disjoint cliques, so the clique of v is its closed neighbourhood there
    n = len(adj)
    clique = [adj[v] & side_c | 1 << v for v in range(n)]
    for w in range(n):
        if side_w >> w & 1:
            nb = [u for u in range(n) if (adj[w] & side_c) >> u & 1]
            for i, u in enumerate(nb):
                for v in nb[i + 1 :]:
                    if not clique[u] >> v & 1 and (clique[v] & ~at_two[u] or clique[u] & ~at_two[v]):
                        return False
    return True


@dataclass(frozen=True)
class LargeValueCatalogues:
    """The stated catalogues of graphs with chi near the order n."""

    gp_n_minus_1: tuple[Graph, ...]
    mono_n_minus_1: tuple[Graph, ...]
    gp_n_minus_2: tuple[Graph, ...]
    mono_n_minus_2: tuple[Graph, ...]
    gpi_n_minus_1: tuple[Graph, ...]


def large_value_characterization(n: int) -> LargeValueCatalogues:
    """Catalogues for chi = n-1 and n-2 at order ``n`` (supported n <= 6)."""
    if not 1 <= n <= 6:
        raise GraphInputError("large-value catalogues supported for 1 <= n <= 6")
    near = []
    if n == 2:
        near = [build_graph(2, [(0, 1)]), build_graph(2, [])]  # P2, 2K1
    elif n == 3:
        near = [build_graph(3, [(0, 1), (1, 2)])]  # P3
    gp2: list[Graph] = []
    if n == 3:
        gp2 = [
            build_graph(3, itertools.combinations(range(3), 2)),  # K3
            build_graph(3, []),  # 3K1
            build_graph(3, [(0, 1)]),  # K2 + K1
        ]
    elif n == 4:
        gp2 = [
            g for g in graphs_of_order(4) if not is_disjoint_union_of_cliques(g)
        ]
    elif n == 5:
        gp2 = [build_graph(5, [(i, i + 1) for i in range(4)])]  # P5
    mono2 = list(gp2)
    if n == 5:
        mono2.append(build_graph(5, [(i, (i + 1) % 5) for i in range(5)]))  # C5
    gpi1 = []
    if n >= 3:
        for d in range(1, n - 1):
            edges = [*itertools.combinations(range(n - 1), 2), *((i, n - 1) for i in range(d))]
            gpi1.append(build_graph(n, edges))
    return LargeValueCatalogues(
        tuple(near), tuple(near), tuple(gp2), tuple(mono2), tuple(gpi1)
    )
