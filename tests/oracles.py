"""Independent brute-force oracles used to validate the library.

These deliberately avoid the library's algorithmic shortcuts: distances come
from Floyd-Warshall, betweenness from explicit path enumeration, optima from
exhaustive subset or partition scans.
"""

from __future__ import annotations

import itertools
import math

from poscol import Graph, PositionKind

INF = math.inf  # the distance between two components


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    dist = [[0 if i == j else (1 if j in g.adj[i] else INF) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is INF:
                continue
            for j in range(n):
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def row_layers(row: list[float]) -> list[int]:
    """Entry d is the bitmask of the vertices at distance d in the distance row ``row``."""
    layers = [0] * (1 + max(d for d in row if d != INF))
    for u, d in enumerate(row):
        if d != INF:
            layers[d] |= 1 << u
    return layers


# (n, edges) -> Floyd-Warshall matrix; keyed by the edge list rather than
# the graph object so that no library cache is involved
_DISTANCES: dict[tuple, list[list[float]]] = {}


def _edge_key(g: Graph) -> tuple:
    return (g.n, tuple(sorted(g.edges())))


def _distances(g: Graph) -> list[list[float]]:
    """``floyd_warshall(g)``, computed once per edge list; the caller must not modify it."""
    key = _edge_key(g)
    if key not in _DISTANCES:
        _DISTANCES[key] = floyd_warshall(g)
    return _DISTANCES[key]


def oracle_components(g: Graph) -> list[list[int]]:
    """The vertices of each component, ascending, components by least vertex:
    the vertices at finite Floyd-Warshall distance."""
    dist = _distances(g)
    return sorted({tuple(u for u in range(g.n) if dist[v][u] is not INF) for v in range(g.n)})


def all_geodesics(g: Graph, u: int, v: int) -> list[list[int]]:
    """Every shortest u-v path, by distance layering plus backtracking."""
    dist = _distances(g)
    if dist[u][v] is INF:
        return []
    target = dist[u][v]
    paths = []
    stack = [[u]]
    while stack:
        path = stack.pop()
        last = path[-1]
        if last == v:
            paths.append(path)
            continue
        for w in g.adj[last]:
            if dist[u][w] == len(path) and dist[w][v] == target - len(path):
                stack.append(path + [w])
    return paths


def all_induced_paths(g: Graph) -> list[list[int]]:
    """Every induced path with at least two vertices (each listed once per direction)."""
    out = []
    for start in range(g.n):
        stack = [[start]]
        while stack:
            path = stack.pop()
            if len(path) >= 2:
                out.append(path)
            last = path[-1]
            for w in g.adj[last]:
                if w in path:
                    continue
                if any(w in g.adj[p] for p in path[:-1]):
                    continue
                stack.append(path + [w])
    return out


def geodesic_betweenness_triples(g: Graph) -> set[tuple[int, int, int]]:
    """(u, w, v): w is interior to some shortest u-v path (u < v)."""
    triples = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            for path in all_geodesics(g, u, v):
                for w in path[1:-1]:
                    triples.add((u, w, v))
    return triples


def induced_path_triples(g: Graph) -> set[tuple[int, int, int]]:
    """(a, w, b) with a < b: some induced path contains all three of them."""
    triples = set()
    for path in all_induced_paths(g):
        for a, w, b in itertools.combinations(path, 3):
            for x, y, z in itertools.permutations((a, w, b)):
                if x < z:
                    triples.add((x, y, z))
    return triples


def induced_path_through_arrangements(g: Graph) -> set[tuple[int, int, int]]:
    """(u, w, v) with u < v: some induced path with endpoints u, v contains w."""
    out = set()
    for path in all_induced_paths(g):
        a, b = path[0], path[-1]
        lo, hi = min(a, b), max(a, b)
        for w in path[1:-1]:
            out.add((lo, w, hi))
    return out


# (base kind, n, edges) -> betweenness triples, keyed like _DISTANCES
_TRIPLES: dict[tuple, set[tuple[int, int, int]]] = {}


def _triples(g: Graph, base: PositionKind) -> set[tuple[int, int, int]]:
    key = (base, *_edge_key(g))
    if key not in _TRIPLES:
        scan = geodesic_betweenness_triples if base is PositionKind.GP else induced_path_triples
        _TRIPLES[key] = scan(g)
    return _TRIPLES[key]


def oracle_is_position_set(g: Graph, s, kind: PositionKind) -> bool:
    s = sorted(set(s))
    if kind.independent:
        for a, b in itertools.combinations(s, 2):
            if b in g.adj[a]:
                return False
    base = kind.base
    if base in (PositionKind.GP, PositionKind.MONO):
        triples = _triples(g, base)
        return not any(
            (a, w, b) in triples
            for a, w, b in itertools.permutations(s, 3)
            if a < b
        )
    dist = _distances(g)
    inside = set(s)
    for a, b in itertools.combinations(s, 2):
        if dist[a][b] is INF:
            continue
        if not any(
            not (set(path[1:-1]) & (inside - {a, b}))
            for path in all_geodesics(g, a, b)
        ):
            return False
    return True


def oracle_position_number(g: Graph, kind: PositionKind) -> int:
    for r in range(g.n, 0, -1):
        for s in itertools.combinations(range(g.n), r):
            if oracle_is_position_set(g, s, kind):
                return r
    return 0


def set_partitions(items: list):
    """All partitions of ``items`` into nonempty blocks (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def oracle_chromatic_position(g: Graph, kind: PositionKind, membership=None) -> int:
    """Minimum class count over all partitions; intended for n <= 6."""
    check = membership or (lambda cls: oracle_is_position_set(g, cls, kind))
    if g.n == 0:
        return 0
    best = g.n
    for part in set_partitions(list(range(g.n))):
        if len(part) < best and all(check(cls) for cls in part):
            best = len(part)
    return best


def oracle_cochromatic(g: Graph) -> int:
    def clique_or_independent(cls):
        pairs = list(itertools.combinations(cls, 2))
        return all(b in g.adj[a] for a, b in pairs) or all(
            b not in g.adj[a] for a, b in pairs
        )

    if g.n == 0:
        return 0
    best = g.n
    for part in set_partitions(list(range(g.n))):
        if len(part) < best and all(clique_or_independent(cls) for cls in part):
            best = len(part)
    return best


def oracle_total_domination(g: Graph) -> int:
    for r in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), r):
            covered = set()
            for u in s:
                covered |= g.adj[u]
            if len(covered) == g.n:
                return r
    raise AssertionError("graph has an isolated vertex")


def all_simple_cycles(g: Graph):
    """Vertex sets of all simple cycles (length >= 3)."""
    cycles = set()
    for start in range(g.n):
        stack = [[start]]
        while stack:
            path = stack.pop()
            last = path[-1]
            for w in g.adj[last]:
                if w == start and len(path) >= 3:
                    cycles.add(frozenset(path))
                elif w not in path and w > start:
                    stack.append(path + [w])
    return cycles


def oracle_is_block_graph(g: Graph) -> bool:
    """Every simple cycle's vertex set induces a clique."""
    for cyc in all_simple_cycles(g):
        for a, b in itertools.combinations(sorted(cyc), 2):
            if b not in g.adj[a]:
                return False
    return True


def oracle_monophonic_diameter(g: Graph) -> int:
    paths = all_induced_paths(g)
    return max((len(p) - 1 for p in paths), default=0)


def canonical_key(g: Graph) -> tuple:
    """Isomorphism-invariant key by minimising over all vertex permutations."""
    n = g.n
    best = None
    for perm in itertools.permutations(range(n)):
        mask = 0
        bit = 0
        for i in range(n):
            ai = g.adj[perm[i]]
            for j in range(i + 1, n):
                if perm[j] in ai:
                    mask |= 1 << bit
                bit += 1
        if best is None or mask < best:
            best = mask
    return (n, best)
