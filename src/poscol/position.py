"""Membership, maximality and exact maxima for the six position-set kinds.

A set is in *general position* (gp) when no three of its vertices lie on a
common shortest path, in *monophonic position* (mono) when no three lie on a
common induced path, and is a *mutual-visibility set* (mu) when every pair
inside one component still sees each other along some shortest path whose
interior avoids the set.  The ``_i`` variants additionally require the set to
be independent.  On disconnected graphs a set qualifies exactly when its
restriction to every component does, so pairs and triples spanning components
impose no constraint.

All six properties are closed under taking subsets, which the exact searches
exploit for pruning.

The properties are decided twice here, on purpose.  The searches
(:class:`SetState`, ``position_number``, ``position_sets_of_size`` and the
solver's greedy and partition searches) run on :class:`Constraints`, the
bitmask form of one graph and base kind, compiled once and cached on the
graph.  ``is_position_set`` works from the distances among the set's own
members and the induced-path oracle alone and never touches the compiled
form, so it re-verifies every search result independently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DEFAULT_LIMITS, TICK_BLOCK, BudgetTicker, GraphInputError, Limits
from .graphs import Graph, INF, adjacency_masks, degree_order


class PositionKind(enum.Enum):
    GP = "gp"
    MONO = "mono"
    MU = "mu"
    GP_I = "gp_i"
    MONO_I = "mono_i"
    MU_I = "mu_i"

    # plain attributes, set on every member just below: the membership
    # checks read them on every call
    independent: bool
    base: "PositionKind"


for _kind in PositionKind:
    _kind.independent = _kind.value.endswith("_i")
    _kind.base = PositionKind(_kind.value.removesuffix("_i"))


_KIND_ALIASES = {
    "gp": PositionKind.GP,
    "mono": PositionKind.MONO,
    "mp": PositionKind.MONO,
    "mu": PositionKind.MU,
    "gp_i": PositionKind.GP_I,
    "gpi": PositionKind.GP_I,
    "igp": PositionKind.GP_I,
    "mono_i": PositionKind.MONO_I,
    "monoi": PositionKind.MONO_I,
    "mpi": PositionKind.MONO_I,
    "imp": PositionKind.MONO_I,
    "mu_i": PositionKind.MU_I,
    "mui": PositionKind.MU_I,
}

ALL_KINDS = tuple(PositionKind)


def parse_kind(text: str) -> PositionKind:
    try:
        return _KIND_ALIASES[text.strip().lower()]
    except KeyError:
        raise GraphInputError(f"unknown position kind {text!r}") from None


@dataclass(frozen=True)
class PositionWitness:
    """An exact position number together with one maximum set achieving it."""

    value: int
    witness: frozenset[int]
    kind: PositionKind


# -- elementary oracles ------------------------------------------------------


def exists_induced_path_through(
    g: Graph, u: int, w: int, v: int, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> bool:
    """True iff some induced u-v path of ``g`` contains ``w``.

    Backtracks over induced extensions from ``u``; a branch dies as soon as
    ``v`` or ``w`` becomes adjacent to the path interior, since an induced
    path can never pick such a vertex up later.  Each extension counts as a
    search node of ``limits``.  Results are memoised on the graph (the
    endpoints are symmetric).
    """
    if len({u, w, v}) != 3:
        raise GraphInputError("u, w, v must be three distinct vertices")
    memo = g._memo.setdefault("induced_through", {})
    key = (min(u, v), w, max(u, v))
    hit = memo.get(key)
    if hit is not None:
        return hit
    dist = g.distance_matrix()
    if dist[u][v] is INF or dist[u][w] is INF:
        memo[key] = False
        return False
    ticker = limits.ticker()
    adj = g.adj
    left = [TICK_BLOCK]

    def extend(path: list[int], on_path: set[int], banned: set[int]) -> bool:
        left[0] -= 1
        if not left[0]:
            ticker.tick(TICK_BLOCK)
            left[0] = TICK_BLOCK
        last = path[-1]
        if v in adj[last] and v not in banned and w in on_path:
            return True
        # prune: once v or w is banned (adjacent to interior) it can never join
        if v in banned or (w not in on_path and w in banned):
            return False
        for x in adj[last]:
            if x in on_path or x in banned or x == v:
                continue
            path.append(x)
            on_path.add(x)
            if extend(path, on_path, banned | (adj[last] - {x})):
                return True
            path.pop()
            on_path.remove(x)
        return False

    try:
        found = extend([u], {u}, set())
    finally:
        del extend  # a recursive closure is a reference cycle; free it now
    memo[key] = found
    ticker.tick(TICK_BLOCK - left[0])
    return found


def geodesic_avoiding(g: Graph, u: int, v: int, blocked: Iterable[int]) -> bool:
    """True iff some shortest u-v path has its interior disjoint from ``blocked``.

    Walks the geodesic-interval DAG: from ``u`` only distance-decreasing
    steps toward ``v`` are taken, skipping blocked interior vertices.
    """
    blocked = set(blocked) - {u, v}
    dist = g.distance_matrix()
    duv = dist[u][v]
    if duv is INF:
        raise GraphInputError("geodesic_avoiding requires u, v in one component")
    du, dv = dist[u], dist[v]
    frontier = {u}
    for step in range(int(duv)):
        nxt = set()
        for x in frontier:
            for y in g.adj[x]:
                if du[y] == step + 1 and dv[y] == duv - step - 1:
                    if y == v:
                        return True
                    if y not in blocked:
                        nxt.add(y)
        frontier = nxt
        if not frontier:
            return False
    return u == v


def _walk(adj: tuple[int, ...], a: int, targets: int, blocked: int) -> tuple[list[int], int]:
    """Walk the distance layers of ``a`` until every vertex of ``targets`` is reached.

    ``adj`` holds bitmask neighbourhoods.  Returns ``(found, hidden)``: the
    masks of the targets at each distance from ``a``, and the mask of those
    that no shortest path from ``a`` reaches with its interior outside
    ``blocked``.  Targets in another component are in neither.
    """
    reached = frontier = clear = 1 << a
    found = [0]
    hidden = 0
    while targets and frontier:
        layer = near = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nb = adj[low.bit_length() - 1]
            layer |= nb
            if clear & low:
                near |= nb
        frontier = layer & ~reached
        reached |= frontier
        hit = frontier & targets
        found.append(hit)
        hidden |= hit & ~near
        targets ^= hit
        clear = near & frontier & ~blocked
    return found, hidden


def _member_distances(g: Graph, s: list[int]) -> list:
    """Each member's distances to the later members of ``s``, by vertex.

    Read from the distance matrix when ``g`` already has it; otherwise one
    walk per member, which stops once the later members are all reached.
    """
    dist = g._dist
    if dist is not None:
        return [dist[a] for a in s]
    adj = adjacency_masks(g)
    later = sum(1 << v for v in s)
    rows = []
    for a in s:
        later ^= 1 << a
        row = dict.fromkeys(s, INF)
        for t, hit in enumerate(_walk(adj, a, later, 0)[0]):
            while hit:
                low = hit & -hit
                hit ^= low
                row[low.bit_length() - 1] = t
        rows.append(row)
    return rows


def has_collinear_triple(rows: list, ids: list[int] | range) -> bool:
    """True iff one of some points lies on a shortest path between two others.

    ``rows[i][ids[j]]`` is the distance from point i to a later point j,
    ``INF`` across components.  ``near[i]`` packs the buckets of point i: bit
    t*k + j is set when point j is at distance t from it.  For a pair i, j at
    distance d, bucket t of i meets bucket d + t of j exactly when i lies
    between j and a point at distance t from i, so one shifted AND per
    direction tests every t at once.
    """
    k = len(ids)
    near = [0] * k
    pairs = []
    for i, row in enumerate(rows):
        for j in range(i + 1, k):
            d = row[ids[j]]
            if d is not INF:
                near[i] |= 1 << d * k + j
                near[j] |= 1 << d * k + i
                pairs.append((i, j, d * k))
    for i, j, shift in pairs:
        a, b = near[i], near[j]
        if a & b >> shift or b & a >> shift:
            return True
    return False


def is_position_set(
    g: Graph,
    s: Iterable[int],
    kind: PositionKind,
    limits: Limits | BudgetTicker = DEFAULT_LIMITS,
) -> bool:
    """Decide whether ``s`` has the position property ``kind`` in ``g``.

    A set of at most two vertices has no triple, and a pair sees itself.
    Otherwise gp tests the members' distances for a collinear triple, mu
    walks once from each member toward the later ones, and mono asks the
    induced-path oracle about every triple.
    """
    s = sorted(set(s))
    if s and not (0 <= s[0] and s[-1] < g.n):
        raise GraphInputError("set contains out-of-range vertex")
    if kind.independent:
        for i, a in enumerate(s):
            for b in s[i + 1 :]:
                if b in g.adj[a]:
                    return False
    base = kind.base
    if len(s) < 3:
        return True
    if base is PositionKind.GP:
        return not has_collinear_triple(_member_distances(g, s), s)
    if base is PositionKind.MONO:
        ticker = limits.ticker()
        for i, a in enumerate(s):
            for j in range(i + 1, len(s)):
                b = s[j]
                for w in s:
                    if w == a or w == b:
                        continue
                    if exists_induced_path_through(g, a, w, b, ticker):
                        return False
        return True
    # mutual visibility: each member must see the later ones past the set
    adj = adjacency_masks(g)
    members = later = sum(1 << v for v in s)
    for a in s:
        later ^= 1 << a
        if _walk(adj, a, later, members)[1]:
            return False
    return True


# -- compiled constraints (shared by the exact searches) ----------------------


class Constraints:
    """One graph and base kind (gp, mono or mu) compiled into int bitmasks;
    bit v is vertex v.  A kind and its ``_i`` variant share it.

    ``adj[v]`` is the neighbourhood of v and ``layers[v][d]`` the set of
    vertices at distance d from v.  For gp and mono three vertices are in
    conflict exactly when they are collinear: one of them lies between the
    other two, on a shortest path for gp and on an induced path for mono.
    Collinearity is a property of the unordered triple, so ``line(a, b)``,
    the mask of the vertices collinear with a and b, describes every
    conflict of the pair; it is filled lazily.  For mu, ``sees`` walks the
    distance layers of one vertex with mask ANDs, so one walk decides the
    visibility of many targets.

    Built once per graph and base kind by :func:`compiled` and cached in the
    graph's memo.
    It keeps no reference to the graph, so the memo forms no reference cycle.
    """

    __slots__ = (
        "kind", "mu", "n", "dist", "adj", "layers", "component",
        "_lines", "_behind_masks",
    )

    def __init__(self, g: Graph, kind: PositionKind):
        self.kind = kind.base
        self.mu = self.kind is PositionKind.MU
        self.n = g.n
        self.dist = dist = g.distance_matrix()
        self.adj = adjacency_masks(g)
        layers = []
        for row in dist:
            by_dist = [0] * (1 + max(d for d in row if d is not INF))
            for w, d in enumerate(row):
                if d is not INF:
                    by_dist[d] |= 1 << w
            layers.append(by_dist)
        self.layers = tuple(layers)
        self.component = tuple(sum(by_dist) for by_dist in layers)
        self._lines: dict[int, int] = {}
        self._behind_masks: dict[int, int] = {}

    def line(self, a: int, b: int, g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
        """Mask of the vertices w for which one of a, b, w lies between the others.

        ``g`` is the graph this was compiled from; the mono kinds ask its
        induced-path oracle, under ``limits``.
        """
        key = a * self.n + b if a < b else b * self.n + a
        found = self._lines.get(key)
        if found is None:
            found = 0 if self.dist[a][b] is INF else self._collinear(a, b, g, limits)
            self._lines[key] = found
        return found

    def _collinear(self, a: int, b: int, g: Graph, limits: Limits | BudgetTicker) -> int:
        d = self.dist[a][b]
        la, lb = self.layers[a], self.layers[b]
        out = self._beyond(a, b) | self._beyond(b, a)
        for t in range(1, d):  # w between a and b
            out |= la[t] & lb[d - t]
        if self.kind is PositionKind.MONO:
            # shortest paths are induced; the oracle decides the other vertices
            rest = self.component[a] & ~(out | 1 << a | 1 << b)
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                if (
                    exists_induced_path_through(g, a, w, b, limits)
                    or exists_induced_path_through(g, w, a, b, limits)
                    or exists_induced_path_through(g, a, b, w, limits)
                ):
                    out |= low
        return out

    def _beyond(self, a: int, b: int) -> int:
        """Mask of the vertices w other than b with b on some shortest a-w path."""
        d = self.dist[a][b]
        la, lb = self.layers[a], self.layers[b]
        out = 0
        for t in range(1, min(len(lb), len(la) - d)):
            out |= lb[t] & la[d + t]
        return out

    def sees(self, a: int, targets: int, blocked: int) -> bool:
        """True iff ``a`` sees every vertex of the mask ``targets``.

        ``a`` sees ``b`` when some shortest a-b path has no interior vertex
        in ``blocked``.  One walk from ``a`` serves all the targets: layer t
        holds the vertices at distance t that such a path reaches.  The
        targets must lie in the component of ``a``.
        """
        la, adj = self.layers[a], self.adj
        free = ~blocked
        frontier = 1 << a
        for t in range(1, len(la)):
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            reach &= la[t]
            targets &= ~reach
            frontier = reach & free
            if not targets or not frontier:
                break
        return not targets

    def keeps_visibility(self, mask: int, v: int) -> bool:
        """Whether the mutual-visibility set ``mask`` stays one when ``v`` joins.

        ``v`` must see every member of its component, and a member pair can
        only lose sight of each other when ``v`` lies on a shortest path
        between them, so only those pairs are checked again.
        """
        near = mask & self.component[v]
        if not self.sees(v, near, mask):
            return False
        grown = mask | 1 << v
        while near:
            low = near & -near
            near ^= low
            a = low.bit_length() - 1
            behind = self._behind(a, v) & mask
            if behind and not self.sees(a, behind, grown):
                return False
        return True

    def _behind(self, a: int, v: int) -> int:
        """Mask of the vertices b > a with ``v`` inside some shortest a-b path."""
        key = a * self.n + v
        found = self._behind_masks.get(key)
        if found is None:
            found = self._behind_masks[key] = self._beyond(a, v) & -(2 << a)
        return found


def compiled(g: Graph, kind: PositionKind) -> Constraints:
    """The :class:`Constraints` of ``g`` and the base of ``kind``, built on first use."""
    key = ("constraints", kind.base)
    core = g._memo.get(key)
    if core is None:
        core = g._memo[key] = Constraints(g, kind)
    return core


class SetState:
    """A growing candidate position set with incremental feasibility checks.

    Runs on the compiled :class:`Constraints` of its graph and base kind.  For
    gp and mono, and for the independence of the ``_i`` kinds, the set keeps
    one ``forbidden`` mask: ``v`` may join exactly when its bit is clear, and
    on joining it adds its lines through every member (and, for ``_i``
    kinds, its neighbourhood).  For mu the visibility of the affected pairs
    is checked again on every addition.  Subset closure makes these
    extension checks sound.
    """

    __slots__ = ("g", "budget", "core", "independent", "members", "mask", "forbidden", "_saved")

    def __init__(
        self, g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
    ):
        self.g = g
        self.budget = limits.ticker()
        self.core = compiled(g, kind)
        self.independent = kind.independent
        self.members: list[int] = []
        self.mask = 0
        self.forbidden = 0
        self._saved: list[int] = []  # ``forbidden`` before each addition

    def __len__(self) -> int:
        return len(self.members)

    @property
    def mask_decides(self) -> bool:
        """Whether a clear ``forbidden`` bit alone admits a vertex: all kinds but mu."""
        return not self.core.mu

    def admits(self, v: int) -> bool:
        """Whether ``try_add(v)`` would succeed; the set is left unchanged."""
        if self.forbidden >> v & 1:
            return False
        return not self.core.mu or self.core.keeps_visibility(self.mask, v)

    def try_add(self, v: int) -> bool:
        """Add ``v`` if the set stays a position set; report success."""
        if self.forbidden >> v & 1:
            return False
        core = self.core
        grown = self.forbidden
        if core.mu:
            if not core.keeps_visibility(self.mask, v):
                return False
        else:
            g, budget = self.g, self.budget
            for b in self.members:
                grown |= core.line(v, b, g, budget)
        if self.independent:
            grown |= core.adj[v]
        self._saved.append(self.forbidden)
        self.forbidden = grown
        self.members.append(v)
        self.mask |= 1 << v
        return True

    def pop(self) -> None:
        """Undo the last successful ``try_add`` (adds and pops must nest LIFO)."""
        self.mask ^= 1 << self.members.pop()
        self.forbidden = self._saved.pop()


# -- exact maxima -------------------------------------------------------------


def position_number(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> PositionWitness:
    """Exact maximum size of a ``kind`` position set, with one witness.

    Branch and bound over vertex inclusion in descending-degree order;
    subset closure lets infeasible extensions be filtered permanently.
    The result is cached on the graph.
    """
    cached = g._memo.get(("pi_witness", kind))
    if cached is not None:
        return cached
    ticker = limits.ticker()
    state = SetState(g, kind, ticker)
    best: list[int] = []

    def search(cands: list[int]) -> None:
        ticker.tick()
        if len(state.members) > len(best):
            best[:] = state.members
        if len(state.members) + len(cands) <= len(best):
            return
        for idx, v in enumerate(cands):
            if len(state.members) + len(cands) - idx <= len(best):
                return
            if state.try_add(v):
                forbidden = state.forbidden
                search([u for u in cands[idx + 1 :] if not forbidden >> u & 1])
                state.pop()

    try:
        search(degree_order(g))
    finally:
        del search  # a recursive closure is a reference cycle; free it now
    result = PositionWitness(len(best), frozenset(best), kind)
    g._memo[("pi_witness", kind)] = result
    return result


def position_sets_of_size(
    g: Graph, kind: PositionKind, size: int, limits: Limits = DEFAULT_LIMITS
) -> Iterator[frozenset[int]]:
    """Yield every ``kind`` position set of exactly ``size`` vertices."""
    ticker = limits.ticker()
    state = SetState(g, kind, ticker)

    def search(cands: list[int]) -> Iterator[frozenset[int]]:
        ticker.tick()
        if len(state.members) == size:
            yield frozenset(state.members)
            return
        need = size - len(state.members)
        for idx, v in enumerate(cands):
            if len(cands) - idx < need:
                return
            if state.try_add(v):
                forbidden = state.forbidden
                yield from search([u for u in cands[idx + 1 :] if not forbidden >> u & 1])
                state.pop()

    try:
        yield from search(degree_order(g))
    finally:
        del search  # a recursive closure is a reference cycle; free it now


def is_maximal_position_set(
    g: Graph, s: Iterable[int], kind: PositionKind, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """True iff ``s`` is a ``kind`` position set no single vertex can extend.

    Single-vertex extensions suffice: the properties are subset-closed, so a
    larger superset would extend through one of them.
    """
    s = set(s)
    ticker = limits.ticker()
    if not is_position_set(g, s, kind, ticker):
        raise GraphInputError("is_maximal_position_set requires a valid position set")
    for v in range(g.n):
        if v in s:
            continue
        if is_position_set(g, s | {v}, kind, ticker):
            return False
    return True
