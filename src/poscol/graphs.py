"""Immutable simple graphs with cached metric structure.

Vertices are always the integers ``0..n-1``.  The metric is the distance
layers: ``layers[v][d]`` is the bitmask of the vertices at distance d from
v, so a pair in distinct components is in no layer at all, never at a large
or infinite distance.

The layers come from two breadth-first searches on bitmask neighbourhoods:
``distance_layers`` sweeps from every vertex at once and is cached, and
``layer_walk`` walks from one vertex for the callers that need only a few.
The sweep also yields the components, as the balls it ends with, diam*, as
the longest layer list, and the adjacency masks, as layer 1 when it runs
first.  Visibility past a set of vertices is read off these layers by
``position.sees``.  ``Graph.distance_matrix`` reads a float matrix off the
layers; nothing in the library calls it, and it stays only as the hook that
the benchmark's tracer wraps.

Every clique question reads the adjacency masks through ``_is_clique``.
``simplicial_rounds`` strips the simplicial vertices round by round: the
rounds empty exactly the chordal graphs, and they are the classes of the
block-graph peeling colouring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .errors import DEFAULT_LIMITS, TICK_BLOCK, BudgetTicker, GraphInputError, Limits

Edge = tuple[int, int]


class Graph:
    """A finite simple undirected graph on vertices ``0..n-1``.

    Instances are immutable after construction and safe to share across
    threads.  Derived structure (the distance layers first) is computed on
    first use and cached in ``_memo``; recomputation by a racing thread is
    harmless because the result is deterministic and the final assignment is
    atomic.  ``_dist`` caches only the float matrix of ``distance_matrix``.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"

    # -- metric ------------------------------------------------------------

    def distance_matrix(self) -> tuple[tuple[float, ...], ...]:
        """All-pairs hop distances, ``math.inf`` across components (cached).

        Row v is read off ``distance_layers(self)[v]``.  The library reads the
        layers, never this matrix; it stays as the benchmark tracer's hook.
        """
        if self._dist is None:
            rows = []
            for by_dist in distance_layers(self):
                row = [math.inf] * self.n
                for d, layer in enumerate(by_dist):
                    while layer:
                        low = layer & -layer
                        layer ^= low
                        row[low.bit_length() - 1] = d
                rows.append(tuple(row))
            self._dist = tuple(rows)
        return self._dist


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbourhoods as int bitmasks, bit u of entry v set iff uv is an edge (cached):
    layer 1 of each vertex when :func:`distance_layers` has run, else summed."""
    masks = g._memo.get("adjacency_masks")
    if masks is None:
        layers = g._memo.get("distance_layers")
        if layers is None:
            masks = tuple(sum(1 << u for u in nb) for nb in g.adj)
        else:  # an isolated vertex has no layer 1
            masks = tuple(sum(row[1:2]) for row in layers)
        g._memo["adjacency_masks"] = masks
    return masks


def layer_walk(adj: tuple[int, ...], a: int, targets: int) -> list[int]:
    """Breadth-first search from ``a`` on bitmasks, one distance layer at a time.

    ``adj`` holds bitmask neighbourhoods.  The walk stops once every vertex of
    ``targets`` is reached or the component of ``a`` runs out, and then its
    last layer is empty.  Entry d of the result is the mask of the targets at
    distance d from ``a``; targets in another component are in no entry.
    """
    reached = frontier = 1 << a
    hit = targets & reached
    found = [hit]
    targets ^= hit
    while targets and frontier:
        layer = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            layer |= adj[low.bit_length() - 1]
        frontier = layer & ~reached
        reached |= frontier
        hit = frontier & targets
        found.append(hit)
        targets ^= hit
    return found


def distance_layers(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``layers[v][d]`` is the mask of the vertices at distance d from v (cached).

    One breadth-first sweep from every vertex at once.  ``reached[v]`` is the
    ball around v; each round ORs the balls of v's neighbours into it, and
    the new bits are v's next layer.  A vertex whose ball stops growing has
    reached its whole component and drops out.  ``len(layers[v]) - 1`` is
    the eccentricity of v within its component.  The final balls are the
    components, and become the graph's ``component_masks`` unless it has them.
    """
    layers = g._memo.get("distance_layers")
    if layers is None:
        adj = g.adj
        reached = [1 << v for v in range(g.n)]
        rows = [[ball] for ball in reached]
        growing = [v for v in range(g.n) if adj[v]]
        while growing:
            last = reached[:]  # the balls of the round before
            still = []
            for v in growing:
                ball = old = last[v]
                for u in adj[v]:
                    ball |= last[u]
                if ball != old:
                    rows[v].append(ball ^ old)
                    reached[v] = ball
                    still.append(v)
            growing = still
        layers = g._memo["distance_layers"] = tuple(map(tuple, rows))
        g._memo.setdefault("component_masks", tuple(reached))
    return layers


def component_masks(g: Graph) -> tuple[int, ...]:
    """Entry v is the mask of the component of v (cached): the final balls of
    :func:`distance_layers` when it has run, else one walk per component."""
    masks = g._memo.get("component_masks")
    if masks is None:
        adj = adjacency_masks(g)
        everyone = (1 << g.n) - 1
        out = [0] * g.n
        for v in range(g.n):
            if not out[v]:
                comp = rest = sum(layer_walk(adj, v, everyone))
                while rest:
                    low = rest & -rest
                    rest ^= low
                    out[low.bit_length() - 1] = comp
        masks = g._memo["component_masks"] = tuple(out)
    return masks


def is_connected(g: Graph) -> bool:
    return not g.n or component_masks(g)[0] == (1 << g.n) - 1


def diameter(g: Graph) -> int:
    """diam*, the largest diameter of a component: the longest layer list less
    one, since a diameter is the largest eccentricity (0 for the empty graph)."""
    return max(map(len, distance_layers(g)), default=1) - 1


# -- construction ---------------------------------------------------------


def build_graph(n: int, edges: Iterable[Edge], labels: Sequence[Any] | None = None) -> Graph:
    """Build a graph, collapsing duplicate edges; rejects loops and bad ids."""
    return Graph(n, edges, labels)


@dataclass(frozen=True)
class InducedPaths:
    """Every induced path of a graph, summarised per ordered vertex pair as bitmasks.

    For a != b, ``between[a][b]`` is the union of the induced a-b paths (a
    and b included, 0 when there is none), and ``beyond[a][b]`` the mask of
    the vertices z for which some induced a-z path has b in its interior.
    ``longest`` is the length of a longest induced path.
    """

    between: tuple[tuple[int, ...], ...]
    beyond: tuple[tuple[int, ...], ...]
    longest: int


def induced_paths(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> InducedPaths:
    """The :class:`InducedPaths` of ``g`` (cached), from one walk per start vertex.

    The walk extends a path only by a neighbour of its last vertex that is
    off the path and not adjacent to an earlier path vertex, so it meets
    every induced path from its start exactly once.  ``between`` is filled
    as a path is reached, ``beyond`` as the subtree below it finishes.  Each
    path counts as a search node of ``limits``; a spent budget stops the
    call before it walks, and a walk stopped midway caches nothing.  A walk
    that finishes is cached even when its last charge spends the budget.
    """
    found = g._memo.get("induced_paths")
    if found is not None:
        return found
    ticker = limits.ticker()
    ticker.tick(0)
    adj = adjacency_masks(g)
    n = g.n
    between, beyond = [], []
    longest = steps = 0
    # per depth d of the walk: the path's last vertex and mask, the neighbours
    # of the whole path (its start included), the extensions left to try, and
    # the last vertices of the paths found below it so far
    last, path, near, ahead, below = ([0] * n for _ in range(5))
    for s in range(n):
        through, past = [0] * n, [0] * n
        last[0], path[0], near[0], ahead[0], below[0] = s, 1 << s, adj[s] | 1 << s, adj[s], 0
        d = 0
        while d >= 0:
            options = ahead[d]
            if options:
                low = options & -options
                ahead[d] = options ^ low
                w = low.bit_length() - 1
                grown = path[d] | low
                through[w] |= grown
                banned = near[d]
                nxt = adj[w] & ~banned
                if nxt:
                    d += 1
                    last[d], path[d], near[d], ahead[d], below[d] = w, grown, banned | adj[w], nxt, 0
                    if d > longest:
                        longest = d
                else:  # a path that cannot grow ends here, without a level of its own
                    below[d] |= low
                    if d >= longest:
                        longest = d + 1
                steps += 1
                if steps == TICK_BLOCK:
                    ticker.tick(TICK_BLOCK)
                    steps = 0
            else:
                x, ends = last[d], below[d]
                past[x] |= ends
                d -= 1
                if d >= 0:
                    below[d] |= ends | 1 << x
        past[s] = 0  # no path has its start in its interior
        between.append(tuple(through))
        beyond.append(tuple(past))
    found = g._memo["induced_paths"] = InducedPaths(tuple(between), tuple(beyond), longest)
    ticker.tick(steps)
    return found


def monophonic_diameter(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
    """Length of a longest induced path, maximised over components.

    Read from :func:`induced_paths`, under ``limits``; aborts with
    :class:`BudgetExceededError` rather than guessing once the budget runs
    out.
    """
    return induced_paths(g, limits).longest


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


def _is_clique(adj: Sequence[int], s: int, within: int) -> bool:
    """True iff each member of the mask ``s`` has ``s`` as its closed neighbourhood
    in the mask ``within``: ``s`` is a clique that no other member of ``within`` touches."""
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        if (adj[low.bit_length() - 1] | low) & within != s:
            return False
    return True


def _cliques_apart(adj: Sequence[int], s: int) -> bool:
    """True iff the mask ``s`` induces a disjoint union of cliques (no induced P3),
    taking off the clique of its least member at a time."""
    while s:
        low = s & -s
        part = adj[low.bit_length() - 1] & s | low
        if not _is_clique(adj, part, s):
            return False
        s ^= part
    return True


def extreme_vertices(g: Graph) -> set[int]:
    """Vertices whose open neighbourhood induces a clique."""
    adj = adjacency_masks(g)
    return {v for v in range(g.n) if _is_clique(adj, adj[v], adj[v])}


def is_diamond_free(g: Graph) -> bool:
    """True iff no induced diamond (K4 minus an edge), so K4 is diamond-free: each
    edge's common neighbourhood is a clique, that is, each neighbourhood is a
    disjoint union of cliques (an edge uv and non-adjacent x, y make x-v-y in N(u))."""
    adj = adjacency_masks(g)
    return all(_cliques_apart(adj, nb) for nb in adj)


def degree_order(g: Graph) -> tuple[int, ...]:
    """Vertices by descending degree, ties by id: the searches' branching order (cached)."""
    order = g._memo.get("degree_order")
    if order is None:
        order = tuple(sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v)))
        g._memo["degree_order"] = order
    return order


def is_disjoint_union_of_cliques(g: Graph, vertices: Iterable[int] | None = None) -> bool:
    """True iff ``vertices`` (default: all) induce a disjoint union of cliques,
    that is, no induced P3.  Raises GraphInputError for a vertex out of range."""
    s = 0
    for v in range(g.n) if vertices is None else vertices:
        if not 0 <= v < g.n:
            raise GraphInputError("set contains out-of-range vertex")
        s |= 1 << v
    return _cliques_apart(adjacency_masks(g), s)


def simplicial_rounds(g: Graph) -> list[int] | None:
    """Masks of the simplicial vertices stripped round by round, or None once a
    round strips nothing: the rounds empty the graph iff it is chordal
    (Fulkerson and Gross).  A round changes only its vertices' neighbours'
    neighbourhoods, so the next round tests just those."""
    adj = adjacency_masks(g)
    alive = retest = (1 << g.n) - 1
    rounds = []
    while alive:
        strip = 0
        while retest:
            low = retest & -retest
            retest ^= low
            nb = adj[low.bit_length() - 1] & alive
            if _is_clique(adj, nb, nb):
                strip |= low
        if not strip:
            return None
        rounds.append(strip)
        alive ^= strip
        while strip:
            low = strip & -strip
            strip ^= low
            retest |= adj[low.bit_length() - 1]
        retest &= alive
    return rounds


def is_block_graph(g: Graph) -> bool:
    """True iff every biconnected block induces a clique: diamond-free and chordal."""
    return is_diamond_free(g) and simplicial_rounds(g) is not None


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
