"""Immutable simple graphs with cached metric structure.

Vertices are always the integers ``0..n-1``.  Distances use ``math.inf`` as
the sentinel for pairs in distinct components, never a large integer, so any
arithmetic on a disconnected pair stays infinite instead of silently
producing a plausible-looking bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .errors import DEFAULT_LIMITS, TICK_BLOCK, BudgetTicker, GraphInputError, Limits

INF = math.inf

Edge = tuple[int, int]


class Graph:
    """A finite simple undirected graph on vertices ``0..n-1``.

    Instances are immutable after construction and safe to share across
    threads.  The all-pairs distance matrix is computed on first use and then
    cached; recomputation by a racing thread is harmless because the result
    is deterministic and the final assignment is atomic.
    """

    __slots__ = ("n", "adj", "labels", "_dist", "_memo")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        labels: Sequence[Any] | None = None,
    ):
        if n < 0:
            raise GraphInputError(f"vertex count must be >= 0, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphInputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise GraphInputError("labels length must equal vertex count")
        self.labels = labels
        self._dist: tuple[tuple[float, ...], ...] | None = None
        self._memo: dict[Any, Any] = {}

    # -- basic accessors ---------------------------------------------------

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"

    # -- metric ------------------------------------------------------------

    def distance_matrix(self) -> tuple[tuple[float, ...], ...]:
        """All-pairs hop distances, ``INF`` across components (cached)."""
        if self._dist is None:
            self._dist = tuple(tuple(row) for row in _bfs_all_pairs(self))
        return self._dist


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbourhoods as int bitmasks, bit u of entry v set iff uv is an edge (cached)."""
    masks = g._memo.get("adjacency_masks")
    if masks is None:
        masks = g._memo["adjacency_masks"] = tuple(sum(1 << u for u in nb) for nb in g.adj)
    return masks


def _bfs_all_pairs(g: Graph) -> list[list[float]]:
    dist = [[INF] * g.n for _ in range(g.n)]
    for s in range(g.n):
        row = dist[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = row[u]
            for w in g.adj[u]:
                if row[w] is INF:
                    row[w] = du + 1
                    queue.append(w)
    return dist


@dataclass(frozen=True)
class ComponentStructure:
    """Connected components with per-component diameters.

    ``diam_star`` is the maximum component diameter (0 for the empty graph).
    """

    component: tuple[int, ...]
    diameters: tuple[int, ...]

    @property
    def diam_star(self) -> int:
        return max(self.diameters, default=0)

    @property
    def count(self) -> int:
        return len(self.diameters)


# -- construction ---------------------------------------------------------


def build_graph(n: int, edges: Iterable[Edge], labels: Sequence[Any] | None = None) -> Graph:
    """Build a graph, collapsing duplicate edges; rejects loops and bad ids."""
    return Graph(n, edges, labels)


def all_pairs_distances(g: Graph) -> tuple[tuple[float, ...], ...]:
    """BFS-exact hop distances, cached on the graph."""
    return g.distance_matrix()


def components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    out: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(comp)
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def diameter(g: Graph) -> ComponentStructure:
    """Per-component diameters and their maximum ``diam_star``."""
    key = "component_structure"
    cached = g._memo.get(key)
    if cached is not None:
        return cached
    comp_id = [0] * g.n
    comps = components(g)
    dist = g.distance_matrix()
    diams = []
    for idx, comp in enumerate(comps):
        best = 0
        for u in comp:
            comp_id[u] = idx
            row = dist[u]
            for v in comp:
                if row[v] > best:
                    best = row[v]
        diams.append(int(best))
    result = ComponentStructure(tuple(comp_id), tuple(diams))
    g._memo[key] = result
    return result


def monophonic_diameter(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
    """Length of a longest induced path, maximised over components.

    Exact, by backtracking over induced extensions, each of which counts as
    a search node of ``limits``; aborts with :class:`BudgetExceededError`
    rather than guessing once the budget runs out.
    """
    key = "monophonic_diameter"
    cached = g._memo.get(key)
    if cached is not None:
        return cached
    ticker = limits.ticker()
    best = 0
    left = TICK_BLOCK
    adj = g.adj
    for start in range(g.n):
        # banned: the neighbours of each path vertex but the last, bar its successor
        stack: list[tuple[list[int], set[int]]] = [([start], set())]
        while stack:
            path, banned = stack.pop()
            left -= 1
            if not left:
                ticker.tick(TICK_BLOCK)
                left = TICK_BLOCK
            if len(path) - 1 > best:
                best = len(path) - 1
            last = path[-1]
            for w in adj[last]:
                if w in banned or w in path:
                    continue
                stack.append((path + [w], banned | (adj[last] - {w})))
    g._memo[key] = best
    ticker.tick(TICK_BLOCK - left)
    return best


def complement(g: Graph) -> Graph:
    """The complement of ``g``, built once and cached on ``g``.

    The complement keeps no link back to ``g``, so no reference cycle forms
    and ``complement(complement(g))`` is a new graph.
    """
    gbar = g._memo.get("complement")
    if gbar is None:
        edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if v not in g.adj[u]
        ]
        gbar = g._memo["complement"] = Graph(g.n, edges, g.labels)
    return gbar


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Cartesian or strong product; vertex ``(i, j)`` flattens to ``i*h.n + j``."""
    if kind not in ("cartesian", "strong"):
        raise GraphInputError(f"unknown product kind {kind!r}")
    if g.n == 0 or h.n == 0:
        raise GraphInputError("product factors must be nonempty")
    edges = []
    for i in range(g.n):
        base = i * h.n
        for j in range(h.n):
            v = base + j
            for j2 in h.adj[j]:
                if j2 > j:
                    edges.append((v, base + j2))
            for i2 in g.adj[i]:
                if i2 > i:
                    edges.append((v, i2 * h.n + j))
                    if kind == "strong":
                        for j2 in h.adj[j]:
                            edges.append((v, i2 * h.n + j2))
    lg = g.labels or tuple(range(g.n))
    lh = h.labels or tuple(range(h.n))
    labels = tuple((lg[i], lh[j]) for i in range(g.n) for j in range(h.n))
    return Graph(g.n * h.n, edges, labels)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    labels = None
    if g.labels is not None or h.labels is not None:
        lg = g.labels or tuple(range(g.n))
        lh = h.labels or tuple(range(h.n))
        labels = lg + lh
    return Graph(g.n + h.n, edges, labels)


def join(g: Graph, h: Graph) -> Graph:
    base = disjoint_union(g, h)
    cross = [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return Graph(base.n, base.edges() + cross, base.labels)


# -- structural predicates -------------------------------------------------


def extreme_vertices(g: Graph) -> set[int]:
    """Vertices whose open neighbourhood induces a clique."""
    out = set()
    for v in range(g.n):
        nb = list(g.adj[v])
        if all(nb[j] in g.adj[nb[i]] for i in range(len(nb)) for j in range(i + 1, len(nb))):
            out.add(v)
    return out


def is_diamond_free(g: Graph) -> bool:
    """True iff no edge has two common neighbours (no K4-minus-an-edge)."""
    for u in range(g.n):
        for v in g.adj[u]:
            if u < v and len(g.adj[u] & g.adj[v]) >= 2:
                return False
    return True


def degree_order(g: Graph) -> list[int]:
    """Vertices by descending degree, ties by id: the searches' branching order."""
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))


def complete_graph_edges(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def is_disjoint_union_of_cliques(g: Graph) -> bool:
    """True iff every component induces a clique (no induced P3 anywhere)."""
    for w in range(g.n):
        nb = sorted(g.adj[w])
        for i, u in enumerate(nb):
            for v in nb[i + 1 :]:
                if v not in g.adj[u]:
                    return False
    return True


def is_chordal(g: Graph) -> bool:
    """Chordality via maximum cardinality search + perfect elimination check."""
    n = g.n
    weight = [0] * n
    order: list[int] = []
    placed = [False] * n
    for _ in range(n):
        v = max((u for u in range(n) if not placed[u]), key=lambda u: (weight[u], -u))
        placed[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not placed[w]:
                weight[w] += 1
    order.reverse()  # perfect elimination order if chordal
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in g.adj[v] if pos[w] > i]
        if not later:
            continue
        w = min(later, key=pos.get)
        if any(x != w and x not in g.adj[w] for x in later):
            return False
    return True


def is_block_graph(g: Graph) -> bool:
    """True iff every biconnected block induces a clique.

    Equivalent form used here: chordal and the common neighbourhood of every
    edge induces a clique (no induced diamond).
    """
    for u in range(g.n):
        for v in g.adj[u]:
            if u < v:
                common = sorted(g.adj[u] & g.adj[v])
                for i, x in enumerate(common):
                    for y in common[i + 1 :]:
                        if y not in g.adj[x]:
                            return False
    return is_chordal(g)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of ``g`` under vertex permutation ``perm`` (old id -> new id)."""
    if sorted(perm) != list(range(g.n)):
        raise GraphInputError("perm must be a permutation of the vertex ids")
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    labels = None
    if g.labels is not None:
        new = [None] * g.n
        for old, lab in enumerate(g.labels):
            new[perm[old]] = lab
        labels = tuple(new)
    return Graph(g.n, edges, labels)


def induced_subgraph(g: Graph, verts: Sequence[int]) -> Graph:
    """Subgraph induced on ``verts``, re-indexed to 0..len(verts)-1 in order."""
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u in verts
        for v in g.adj[u]
        if v in index and index[u] < index[v]
    ]
    labels = tuple(g.labels[v] for v in verts) if g.labels is not None else None
    return Graph(len(verts), edges, labels)
