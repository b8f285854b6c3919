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
(``position_number``, ``position_sets_of_size`` and the solver's) run on
:class:`Constraints`, the bitmask form of one graph and base kind, cached on
the graph.  Each search compiles it once, on its own budget, and grows
:class:`SetState` objects that wrap it; all three share one set walk,
:func:`completions`, which ``position_number`` drives with a rising target.
The verifier, ``are_position_sets`` (and ``is_position_set``, the same on
one set), works from the distances among the members alone and the
induced-path oracle and never touches the compiled form, so it re-verifies
every search result independently: for gp it packs each member's later
members by distance into one int and tests every triple with a few shifted
ANDs per member and distance (:func:`has_collinear_triple`).  For mu one
breadth-first sweep from every member of every set at once finds any pair
that no shortest path joins past the rest of its set (:func:`_hides_a_pair`),
so a whole colouring costs one sweep.  For mono the two sides do not share a search either: the
compiled lines come from :func:`~poscol.graphs.induced_paths`, one walk
over every induced path of the graph, while the verifier asks
``exists_induced_path_through`` about each triple of the set.

Both take the metric from :mod:`poscol.graphs`: the cached distance layers,
built by one sweep from every vertex at once, and the component masks.  The
compiled forms of gp and mu read the layers, mono only the component masks;
the gp and mono forms fill their lines per join, every line between the
joining vertex and the members in one call of ``Constraints.lines_through``;
the gp verifier masks the layers down to the later members when the graph
already has them, and otherwise walks from each member only as far as the
later members, with the single-source ``layer_walk``.  The mu sweep reads
only the component masks.  Whether one vertex sees some targets past a set
is one walk along its distance layers, :func:`sees`, which the mu search
runs for the one vertex that joins a class.  Which candidates can join a mu
class is one batch, ``Constraints.visible_joins``: one such walk from each
member, going on only from non-members, gives what the member sees past the
class at each distance, and the pairs of members read off those walks the
vertices that every clear shortest path between them passes.  Maximality
grows one :class:`SetState` through a verified set and asks which vertices
still fit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_LIMITS, TICK_BLOCK, BudgetTicker, GraphInputError, Limits
from .graphs import (
    Graph, adjacency_masks, component_masks, degree_order, distance_layers, induced_paths,
    layer_walk,
)


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

    Backtracks over induced extensions from ``u``, carrying the path and
    the vertices adjacent to its interior as masks; a branch dies as soon
    as ``v`` or ``w`` becomes adjacent to the path interior, since an induced
    path can never pick such a vertex up later.  Each extension counts as a
    search node of ``limits``.  Results are memoised on the graph (the
    endpoints are symmetric).
    """
    lo, hi = (u, v) if u < v else (v, u)
    if not (0 <= lo < hi < g.n and 0 <= w < g.n) or w == lo or w == hi:
        raise GraphInputError("u, w, v must be three distinct vertices of the graph")
    memo = g._memo.setdefault("induced_through", {})
    key = (lo, w, hi)
    hit = memo.get(key)
    if hit is not None:
        return hit
    comp = component_masks(g)[u]
    if not (comp >> v & 1 and comp >> w & 1):
        memo[key] = False
        return False
    ticker = limits.ticker()
    nbr = adjacency_masks(g)
    vbit, wbit = 1 << v, 1 << w
    left = TICK_BLOCK
    # one frame [last, on_path, banned, steps not yet tried] per path vertex
    stack: list[list[int]] = []
    last, on_path, banned = u, 1 << u, 0
    found = False
    while True:
        left -= 1
        if not left:
            ticker.tick(TICK_BLOCK)
            left = TICK_BLOCK
        # prune: once v or w is banned (adjacent to interior) it can never join
        if not (banned & vbit or banned & ~on_path & wbit):
            if nbr[last] & vbit and on_path & wbit:
                found = True
                break
            stack.append([last, on_path, banned, nbr[last] & ~(on_path | banned | vbit)])
        while stack:
            frame = stack[-1]
            prev, path, ban, step = frame
            if step:
                bit = step & -step
                frame[3] = step ^ bit
                last, on_path, banned = bit.bit_length() - 1, path | bit, ban | nbr[prev] ^ bit
                break
            stack.pop()
        else:
            break
    memo[key] = found
    ticker.tick(TICK_BLOCK - left)
    return found


def sees(adj: Sequence[int], layers: Sequence[int], a: int, targets: int, blocked: int) -> bool:
    """True iff ``a`` sees every vertex of the mask ``targets`` past ``blocked``.

    ``a`` sees ``b`` when some shortest a-b path has no interior vertex in
    ``blocked``, so ``a`` sees itself and nothing outside its component.
    ``layers[d]`` holds the vertices at distance d from ``a``; one walk along
    them serves all the targets and goes on only from vertices not blocked.
    """
    targets &= ~(1 << a)
    frontier = 1 << a
    free = ~blocked
    for t in range(1, len(layers)):
        if not targets or not frontier:
            break
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
        reach &= layers[t]
        targets &= ~reach
        frontier = reach & free
    return not targets


def has_collinear_triple(ids: Sequence[int], found, width: int) -> bool:
    """True iff one of the points ``ids`` lies on a shortest path between two others.

    Point i is bit i of a mask of ``width`` bits.  ``found(a, later)`` lists
    the points of the mask ``later`` by distance from a, none across
    components.  Going backwards, ``near[a]`` packs that list, bucket t at
    bit t*width.  For each distance t from a, the buckets of the later points
    b at that distance are ORed, and shifted ANDs with a's buckets and their
    reversal find any r after b with b between a and r, a between b and r,
    or r between a and b.  So each triple is tested at its first two points.
    """
    near: dict[int, int] = {}
    later = 0
    for a in reversed(ids):
        layers = found(a, later)
        later |= 1 << a
        top = len(layers) - 1
        mine = rev = 0
        for t, layer in enumerate(layers):
            if layer:
                mine |= layer << t * width
                rev |= layer << (top - t) * width
        near[a] = mine
        for t, layer in enumerate(layers):
            theirs = 0
            while layer:
                low = layer & -layer
                layer ^= low
                theirs |= near[low.bit_length() - 1]
            up = t * width
            if theirs and (mine & theirs << up or theirs & (mine << up | rev >> (top - t) * width)):
                return True
    return False


def _hides_a_pair(g: Graph, sets: Sequence[tuple[list[int], int]]) -> bool:
    """True iff two members of one of the disjoint ``sets`` (each its members
    and their mask), in one component, see each other along no shortest path
    past the rest of their set.

    One sweep from every member at once, in the rounds of
    :func:`~poscol.graphs.distance_layers`.  ``state[v]`` packs two masks:
    its low n bits are the members within the current radius of v, and its
    high n bits those that reach v along a shortest path whose interior
    avoids their own set, and may go on through v.  Each round ORs the
    states of v's neighbours into v's.  The new low bits are the members at
    exactly that distance, and those of them in the ORed high bits arrive
    along a clear path.  A new member of v's own set with no clear path
    hides a pair; those with one stop at v.  The sweep ends once every
    member has reached the rest of its set within its component.
    """
    n, comp, nbrs = g.n, component_masks(g), g.adj
    full = (1 << n) - 1
    own = [0] * n
    state = [0] * n
    waiting = 0  # members not yet reached by all of their set
    for members, mask in sets:
        for v in members:
            low = 1 << v
            own[v] = mask
            state[v] = low | low << n
            waiting += mask & comp[v] != low
    while waiting:
        last = state[:]
        for v in range(n):
            old = acc = last[v]
            for u in nbrs[v]:
                acc |= last[u]
            new = (acc ^ old) & full
            if new:
                clear = acc >> n & new
                mine = own[v]
                if new & mine:
                    if new & mine & ~clear:
                        return True
                    if not mine & comp[v] & ~(old | new):
                        waiting -= 1
                        if not waiting:
                            return False
                    clear &= ~mine
                state[v] = old | new | clear << n
    return False


def are_position_sets(
    g: Graph,
    sets: Iterable[Iterable[int]],
    kind: PositionKind,
    limits: Limits | BudgetTicker = DEFAULT_LIMITS,
) -> bool:
    """Decide whether each of the disjoint ``sets`` has the position property ``kind``.

    The ``_i`` kinds first AND each member's neighbourhood with its set.  A
    set of at most two vertices has no triple, and a pair sees itself, so
    it passes the rest.  Otherwise gp hands each member's later members, by
    distance, to :func:`has_collinear_triple`, and mono asks the
    induced-path oracle about every triple, set by set; mu checks every
    set in one sweep (:func:`_hides_a_pair`).
    """
    n = g.n
    adj = adjacency_masks(g)
    checked: list[tuple[list[int], int]] = []  # each set in order, and its mask
    taken = 0
    for s in sets:
        s = sorted(set(s))
        if s and not (0 <= s[0] and s[-1] < n):
            raise GraphInputError("set contains out-of-range vertex")
        mask = 0
        for v in s:
            mask |= 1 << v
        if mask & taken:
            raise GraphInputError("the sets must be disjoint")
        taken |= mask
        checked.append((s, mask))
    if kind.independent:
        for s, mask in checked:
            for a in s:
                if adj[a] & mask:
                    return False
    large = [(s, mask) for s, mask in checked if len(s) > 2]
    if not large:
        return True
    base = kind.base
    if base is PositionKind.MU:
        return not _hides_a_pair(g, large)
    if base is PositionKind.GP:
        layers = g._memo.get("distance_layers")
        if layers is None:
            found = lambda a, later: layer_walk(adj, a, later)
        else:
            found = lambda a, later: [x & later for x in layers[a]]
        for s, _ in large:
            if has_collinear_triple(s, found, n):
                return False
        return True
    ticker = limits.ticker()
    for s, _ in large:
        for j, a in enumerate(s):
            for b in s[j + 1 :]:
                for w in s:
                    if w != a and w != b and exists_induced_path_through(g, a, w, b, ticker):
                        return False
    return True


def is_position_set(
    g: Graph,
    s: Iterable[int],
    kind: PositionKind,
    limits: Limits | BudgetTicker = DEFAULT_LIMITS,
) -> bool:
    """Decide whether ``s`` has the position property ``kind`` in ``g``.

    :func:`are_position_sets` on the one set ``s``.
    """
    return are_position_sets(g, [s], kind, limits)


# -- compiled constraints (shared by the exact searches) ----------------------


class Constraints:
    """One graph and base kind (gp, mono or mu) compiled into int bitmasks;
    bit v is vertex v.  A kind and its ``_i`` variant share it.

    ``adj[v]`` is the neighbourhood of v and ``component[v]`` the component
    of v.  gp and mu also read ``layers[v][d]``, the set of vertices at
    distance d from v, and mono reads ``paths``, the
    :func:`~poscol.graphs.induced_paths` of the graph, one walk over every
    induced path; each base kind reads only the one it needs, and all come
    from the graph's own caches in :mod:`poscol.graphs`, so the base kinds of
    one graph share them.  For gp and mono three vertices are in conflict
    exactly when they are collinear: one of them lies between the other two,
    on a shortest path for gp and on an induced path for mono.  Collinearity
    is a property of the unordered triple, so the line of a and b, the mask
    of the vertices collinear with a and b, describes every conflict of the
    pair.  It has one shape for both: the vertices between a and b, those
    beyond b seen from a, and those beyond a seen from b.  Lines are filled
    lazily into ``lines``, one join at a time: ``lines_through(v, members)``
    fills every line still missing between a joining vertex v and the
    members in one call, under both ends, so ``lines[a][b]`` and
    ``lines[b][a]`` hold the same mask.  For
    mu, ``keeps_visibility`` hands the distance layers of one vertex to
    :func:`sees`, so one walk decides the visibility of many targets, and
    ``visible_joins`` answers for many candidates at once from one walk per
    member of the class.

    Built once per graph and base kind by :func:`compiled` and cached in the
    graph's memo.
    It keeps no reference to the graph, so the memo forms no reference cycle.
    """

    __slots__ = ("mu", "n", "adj", "component", "layers", "paths", "lines", "_behind_masks")

    def __init__(self, g: Graph, kind: PositionKind, limits: Limits | BudgetTicker):
        mono = kind.base is PositionKind.MONO
        self.paths = induced_paths(g, limits) if mono else None
        self.layers = None if mono else distance_layers(g)
        self.mu = kind.base is PositionKind.MU
        self.n = g.n
        self.adj = adjacency_masks(g)
        self.component = component_masks(g)
        self.lines: list[dict[int, int]] = [{} for _ in range(g.n)]
        self._behind_masks: dict[int, int] = {}

    def lines_through(self, a: int, members: Sequence[int]) -> int:
        """The OR over b in ``members`` of the line of a and b: the mask of the
        vertices w for which one of a, b, w lies between the other two.

        Each line not yet in ``lines`` is filled in, under both of its ends.
        """
        known, out = self.lines[a], 0
        for b in members:
            found = known.get(b)
            if found is None:
                break
            out |= found
        else:  # every line is known
            return out
        comp, paths, layers = self.component[a], self.paths, self.layers
        if paths is None:
            la = layers[a]
            na = len(la)
        for b in members:
            found = known.get(b)
            if found is None:
                if not comp >> b & 1:
                    found = 0
                elif paths is not None:
                    found = paths.between[a][b] | paths.beyond[a][b] | paths.beyond[b][a]
                    found &= ~(1 << a | 1 << b)
                else:
                    lb, d = layers[b], 1
                    while not la[d] >> b & 1:
                        d += 1
                    found = 0
                    for t in range(1, d):  # w between a and b
                        found |= la[t] & lb[d - t]
                    # the eccentricities of a and b differ by at most d, so lb[t]
                    # and la[t] exist wherever la[d + t] and lb[d + t] do
                    if na > d + 1:
                        for t in range(1, na - d):  # b between a and w
                            found |= lb[t] & la[d + t]
                    if len(lb) > d + 1:
                        for t in range(1, len(lb) - d):  # a between b and w
                            found |= la[t] & lb[d + t]
                known[b] = self.lines[b][a] = found
            out |= found
        return out

    def keeps_visibility(self, mask: int, v: int) -> bool:
        """Whether the mutual-visibility set ``mask`` stays one when ``v`` joins.

        ``v`` must see every member of its component, and a member pair can
        only lose sight of each other when ``v`` lies on a shortest path
        between them, so only those pairs are checked again.
        """
        near = mask & self.component[v]
        if not sees(self.adj, self.layers[v], v, near, mask):
            return False
        grown = mask | 1 << v
        while near:
            low = near & -near
            near ^= low
            a = low.bit_length() - 1
            behind = self._behind(a, v) & mask
            if behind and not sees(self.adj, self.layers[a], a, behind, grown):
                return False
        return True

    def visible_joins(self, members: Sequence[int], mask: int, cands: int) -> int:
        """The vertices of ``cands`` (none of them in ``mask``) that can join
        the mutual-visibility set ``mask`` of two or more ``members`` and
        leave it one: ``keeps_visibility`` for all of them at once.

        One walk from each member m along ``layers[m]``, going on only from
        non-members, gives ``clear[t]``, the vertices at distance t that m
        sees past the set; a candidate must be in one of them for every
        member of its component.  For a member pair a, b at distance d >= 2,
        ``clear_a[t] & clear_b[d - t]`` less the members holds the vertices at
        position t of the shortest a-b paths that avoid the set, so a middle
        set of one vertex is a candidate that would hide the pair.
        """
        adj, free, out = self.adj, ~mask, cands
        walks = {}
        for m in members:
            layers = self.layers[m]
            clear, frontier, seen = [1 << m], 1 << m, 0
            for t in range(1, len(layers)):
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    reach |= adj[low.bit_length() - 1]
                reach &= layers[t]
                clear.append(reach)
                seen |= reach
                frontier = reach & free
                if not frontier:
                    break
            out &= seen | ~self.component[m]
            walks[m] = clear
        later = mask
        for a in members:
            later ^= 1 << a
            ca = walks[a]
            for d in range(2, len(ca)):
                ends = ca[d] & later  # the later members b with d(a, b) = d
                while ends:
                    low = ends & -ends
                    ends ^= low
                    cb = walks[low.bit_length() - 1]
                    for t in range(1, d):
                        middle = ca[t] & cb[d - t] & free
                        if not middle & (middle - 1):
                            out &= ~middle
        return out

    def _behind(self, a: int, v: int) -> int:
        """Mask of the vertices b > a with ``v`` inside some shortest a-b path."""
        key = a * self.n + v
        found = self._behind_masks.get(key)
        if found is None:
            la, lv = self.layers[a], self.layers[v]
            bit, d = 1 << v, 1
            while not la[d] & bit:
                d += 1
            found = 0
            for t in range(1, len(la) - d):  # v between a and b
                found |= lv[t] & la[d + t]
            found = self._behind_masks[key] = found & -(2 << a)
        return found


def compiled(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> Constraints:
    """The :class:`Constraints` of ``g`` and the base of ``kind``, built on first use.

    Only the build draws from ``limits`` (for mono, the induced-path walk);
    a build the budget stops caches nothing.  A search calls it once and
    hands the core to every :class:`SetState` it makes.
    """
    key = ("constraints", kind.base)
    core = g._memo.get(key)
    if core is None:
        core = g._memo[key] = Constraints(g, kind, limits)
    return core


class SetState:
    """A growing candidate position set with incremental feasibility checks.

    Wraps ``core``, the compiled :class:`Constraints` of a graph and base
    kind that its search built once; ``independent`` adds the independence
    of the ``_i`` kinds.  The set keeps one ``forbidden`` mask of vertices
    known not to fit: ``v`` may join only when its bit is clear.  For gp and mono, and for the
    independence of the ``_i`` kinds, a clear bit alone decides: on joining,
    a vertex adds its lines through every member (and, for ``_i`` kinds, its
    neighbourhood).  For mu the visibility of the affected pairs is checked
    again; ``fits`` records each answer for the current members, a
    ``forbidden`` bit for a vertex that does not fit and an ``ok`` bit for
    one that does, and both masks go back to their old values on ``pop``.
    Subset closure makes all of this sound: a vertex that cannot join a set
    cannot join any superset.
    """

    __slots__ = ("core", "independent", "members", "mask", "forbidden", "ok", "_saved")

    def __init__(self, core: Constraints, independent: bool):
        self.core = core
        self.independent = independent
        self.members: list[int] = []
        self.mask = 0
        self.forbidden = 0
        self.ok = 0  # mu: vertices known to keep the current members mutually visible
        self._saved: list[tuple[int, int]] = []  # ``forbidden`` and ``ok`` before each addition

    def fits(self, free: int) -> int:
        """The mask of the vertices of ``free`` that ``try_add`` would accept.

        A set of at most one member takes any vertex its ``forbidden`` mask
        allows, since a pair always sees itself.  A mu set of two or more
        asks ``Constraints.visible_joins`` once about all the vertices it has
        no answer for yet, one walk per member, and records the answers.
        """
        out = free & ~self.forbidden
        if not self.core.mu or len(self.members) < 2:
            return out
        unknown = out & ~self.ok
        if unknown:
            good = self.core.visible_joins(self.members, self.mask, unknown)
            self.ok |= good
            self.forbidden |= unknown & ~good
            out &= ~unknown | good
        return out

    def try_add(self, v: int) -> bool:
        """Add ``v`` if the set stays a position set; report success."""
        if self.forbidden >> v & 1:
            return False
        core = self.core
        grown = self.forbidden
        if core.mu:
            if not (
                len(self.members) < 2 or self.ok >> v & 1 or core.keeps_visibility(self.mask, v)
            ):
                return False
        else:
            grown |= core.lines_through(v, self.members)
        if self.independent:
            grown |= core.adj[v]
        self._saved.append((self.forbidden, self.ok))
        self.forbidden = grown
        self.ok = 0
        self.members.append(v)
        self.mask |= 1 << v
        return True

    def pop(self) -> None:
        """Undo the last successful ``try_add`` (adds and pops must nest LIFO)."""
        self.mask ^= 1 << self.members.pop()
        self.forbidden, self.ok = self._saved.pop()


# -- exact maxima -------------------------------------------------------------


def known_position_number(g: Graph, kind: PositionKind) -> PositionWitness | None:
    """The position number and witness if an earlier search has cached them."""
    return g._memo.get(("pi_witness", kind))


def position_number(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> PositionWitness:
    """Exact maximum size of a ``kind`` position set, with one witness.

    Branch and bound over vertex inclusion in descending-degree order: the
    rising walk of :func:`completions`, whose target is always one more than
    the best set so far, so a node is pruned once its members and the
    candidates left cannot beat that set.  Subset closure lets infeasible
    extensions be filtered permanently.  The result is cached on the graph
    (:func:`known_position_number`); a budget stop caches nothing.
    """
    cached = known_position_number(g, kind)
    if cached is not None:
        return cached
    ticker = limits.ticker()
    state = SetState(compiled(g, kind, ticker), kind.independent)
    best: list[int] = []
    for _ in completions(state, degree_order(g), 1, ticker, rising=True):
        best = state.members[:]
    result = g._memo[("pi_witness", kind)] = PositionWitness(len(best), frozenset(best), kind)
    return result


def completions(
    state: SetState, cands: Sequence[int], size: int, ticker: BudgetTicker, rising: bool = False
) -> Iterator[None]:
    """Grow ``state`` to ``size`` members from ``cands``, each way once.

    The one set walk of ``position_number``, ``position_sets_of_size`` and
    the solver's packing.  Yields at each completion, with the set in
    ``state``; the members added follow ``cands``'s order, and a branch
    stops when too few candidates remain.  When ``rising``, each completion
    raises ``size`` by one and the walk goes on down from it, so each set
    yielded is one larger.  Each node charges ``ticker`` one tick.  The path
    is an explicit stack of ``[candidates, next index]`` frames, one per
    member added, so no set is too large for it.  Every member added is
    popped before the walk returns; one stopped early keeps its last set.
    """
    members = state.members
    ticker.tick()  # the root
    if len(members) == size:
        yield
        if not rising:
            return
        size += 1
    stack = [[cands, 0]]
    while stack:
        frame = stack[-1]
        cands, idx = frame
        need = size - len(members)
        while len(cands) - idx >= need:
            v = cands[idx]
            idx += 1
            if not state.try_add(v):
                continue
            ticker.tick()
            if need == 1:
                yield
                if not rising:
                    state.pop()
                    continue
                size += 1
            forbidden = state.forbidden
            frame[1] = idx
            stack.append([[u for u in cands[idx:] if not forbidden >> u & 1], 0])
            break
        else:
            stack.pop()
            if stack:
                state.pop()


def position_sets_of_size(
    g: Graph, kind: PositionKind, size: int, limits: Limits = DEFAULT_LIMITS
) -> Iterator[frozenset[int]]:
    """Yield every ``kind`` position set of exactly ``size`` vertices."""
    if size < 0:
        raise GraphInputError(f"set size must be >= 0, got {size}")
    ticker = limits.ticker()
    state = SetState(compiled(g, kind, ticker), kind.independent)
    for _ in completions(state, degree_order(g), size, ticker):
        yield frozenset(state.members)


def is_maximal_position_set(
    g: Graph, s: Iterable[int], kind: PositionKind, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """True iff ``s`` is a ``kind`` position set no single vertex can extend.

    Single-vertex extensions suffice: the properties are subset-closed, so a
    larger superset would extend through one of them.  Once the verifier
    accepts ``s``, one :class:`SetState` on the compiled core grows through
    it and ``fits`` decides every extension at once.
    """
    s = set(s)
    ticker = limits.ticker()
    if not is_position_set(g, s, kind, ticker):
        raise GraphInputError("is_maximal_position_set requires a valid position set")
    state = SetState(compiled(g, kind, ticker), kind.independent)
    for v in sorted(s):
        state.try_add(v)
    return not state.fits((1 << g.n) - 1 & ~state.mask)
