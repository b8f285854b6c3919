"""Exact position chromatic numbers and the auxiliary colouring parameters.

Every colouring number here is the fewest classes in a partition of V(G)
into sets from a subset-closed family, and one backtracking partition
search, ``_PartitionSearch``, decides each k for all of them.  It keeps its
path on an explicit stack, not in recursion, so no graph is too deep for it,
and a budget stop leaves it where it was: a later ``run`` goes on with the
same depth-first search.  The
position chromatic number solver iteratively deepens over k; its classes
grow through :class:`poscol.position.SetState`, whose extension checks are
sound because every position property is closed under subsets.  The
chromatic number, the clique cover number (the chromatic number of the
complement) and the cochromatic number deepen the same search over classes
that must be independent sets, or for the cochromatic number independent
sets or cliques.  The greedy bound, ``position_number``, the partition search
and the exact-cover packing run on the compiled bitmask constraints of
:mod:`poscol.position`, compiled once per entry point: the private searches
get the vertex order and a factory of classes that wrap the core, never the
graph, and the packing completes its classes with ``completions``, the
one set walk, which also serves ``position_number`` and
``position_sets_of_size``.  A node of the partition search takes, for each
class, the mask of the unassigned vertices it would accept: one AND with the
class's ``forbidden`` mask, except that a mu class answers ``fits``, since it
completes that mask only when asked.  The node folds those masks into the
vertices that fit at least one, two and three classes: a
vertex that fits none fails the node, and the search branches on a vertex
with the fewest classes (Brelaz's DSATUR rule, with forward checking as in
Haralick & Elliott).  Every position colouring is re-verified by
``verify_colouring``, which uses the independent membership oracles and not
the compiled constraints, before it is reported.  Symmetry between colour
classes is broken by only letting a vertex open class j when classes 0..j-1
are nonempty.  Budgets make the solver interruptible: partial results are
tagged ``upper_bound_only``, never passed off as exact.  A solve runs the
greedy upper bound, then the lower bounds that need no search: the
(monophonic) diameter bound, a greedy clique for the ``_i`` kinds (their
classes carry the independence mask, so no chromatic number is searched
for) and 2 for mu on a graph with a component that is not complete.  The
deepening starts at the largest.  A level that a quick slice of its search
does not settle computes the position number pi, which may refute it, and
then gives Culberson's iterated greedy a short slice to find the colouring
by recolouring before the same search resumes where the slice stopped.
Once pi is known, the level's search is capped at pi: it also fails a node
whose classes cannot hold its unassigned vertices with at most pi members
each, the paper's bound n/pi applied to the room every class has left.
The packing, its walk and the total domination search keep their paths
on explicit stacks too.  Each top-level call starts one budget,
and every phase but the distance layers and the final verification draws
from it; the greedy's first fit only reads its clock.  A search pays once,
up front, to compile its constraints (for the mono kinds, the walk over
every induced path) and nothing per line; a greedy that the budget stops
still returns a colouring.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DEFAULT_LIMITS, TICK_BLOCK, UNLIMITED, BudgetExceededError, BudgetTicker, GraphInputError,
    Limits, json_int,
)
from .graphs import (
    Graph,
    adjacency_masks,
    complement,
    degree_order,
    diameter,
    is_diamond_free,
    monophonic_diameter,
)
from .position import (
    ALL_KINDS,
    PositionKind,
    SetState,
    are_position_sets,
    compiled,
    completions,
    known_position_number,
    position_number,
)


@dataclass(frozen=True)
class Colouring:
    """Total vertex -> class assignment with contiguous nonempty classes."""

    assignment: tuple[int, ...]
    k: int

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.assignment):
            out[c].append(v)
        return out

    @staticmethod
    def from_classes(n: int, classes: Sequence[Iterable[int]]) -> "Colouring":
        assignment = [-1] * n
        for c, cls in enumerate(classes):
            for v in cls:
                if not 0 <= v < n:
                    raise GraphInputError(f"vertex {v} out of range")
                if assignment[v] != -1:
                    raise GraphInputError(f"vertex {v} assigned twice")
                assignment[v] = c
        if any(c == -1 for c in assignment):
            raise GraphInputError("colouring leaves a vertex unassigned")
        if any(not cls for cls in classes):
            raise GraphInputError("empty colour class")
        return Colouring(tuple(assignment), len(classes))


@dataclass(frozen=True)
class CertifiedColouring:
    colouring: Colouring
    kind: PositionKind
    verified: bool
    provenance: str
    optimality: str  # "exact" | "upper_bound_only"

    @property
    def k(self) -> int:
        return self.colouring.k


@dataclass(frozen=True)
class BoundPair:
    lower: int
    upper: int
    lower_reason: str
    upper_reason: str


def verify_colouring(
    g: Graph, c: Colouring, kind: PositionKind, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """True iff every colour class of ``c`` is a ``kind`` position set of ``g``.

    The classes go to :func:`~poscol.position.are_position_sets` together,
    so a mu colouring is checked in one sweep from all its members.
    """
    if len(c.assignment) != g.n:
        raise GraphInputError("colouring does not cover the vertex set")
    seen = [False] * c.k
    for cls in c.assignment:
        if not 0 <= cls < c.k:
            raise GraphInputError(f"class id {cls} outside 0..{c.k - 1}")
        seen[cls] = True
    if not all(seen):
        raise GraphInputError("gap in class ids: some class is empty")
    return are_position_sets(g, c.classes(), kind, limits)


# -- partition search --------------------------------------------------------


class _PartitionSearch:
    """A partition of the vertices into at most ``k`` classes, searched in slices.

    ``order`` lists every vertex, in the caller's ``degree_order`` of the
    graph.  ``new_class()`` makes an empty class of the family: a
    :class:`SetState` for a position kind, a :class:`_CliqueOrIndependent`
    for the classic parameters.  Every such family is closed under subsets, so a class only
    ever has to check the vertex that joins it, and a vertex that fits no
    class fits none below the node either.  A node asks each open class
    which unassigned vertices it takes (one AND with its ``forbidden`` mask,
    or ``fits`` for a mu class, which completes that mask lazily) and
    folds the answers into the masks of the vertices that fit at least one,
    two and three classes.  Forward checking on every vertex: one that fits
    no class fails the node.  Otherwise the node branches on the unassigned
    vertex with the fewest feasible classes (deterministic tie-break: first
    in ``order``), trying its classes in order; the vertices are counted
    one by one only when each fits three classes or more.  A ``run`` given
    a cap on the class size also fails a node that ``_can_hold`` rejects.
    Those nodes have no colouring below them, so the cap changes neither
    the answer nor the colouring found, only the nodes charged.

    The depth-first search keeps its path on an explicit stack, one frame
    ``[v, fit, c, free, opened]`` per branching node: the vertex branched
    on, the masks its classes took, the class it is in now, and the node's
    unassigned vertices and open class count.  So no graph is too deep for
    it, and it can stop and go on: ``run`` charges each node one tick of its
    budget, and when a charge raises :class:`BudgetExceededError` the stack
    stays as it was, so the next ``run`` continues the same search from the
    node whose charge raised, without charging that node again.
    """

    __slots__ = ("_states", "_lazy", "_sizes", "_runs", "_pairs", "_assignment", "_stack",
                 "_next", "_charge_next", "_result")

    def __init__(
        self,
        order: Sequence[int],
        new_class: Callable[[], SetState | _CliqueOrIndependent],
        k: int,
    ):
        n = len(order)
        self._states = [new_class() for _ in range(k)]
        # mu classes complete their ``forbidden`` mask only when ``fits`` asks
        self._lazy = k > 0 and isinstance(self._states[0], SetState) and self._states[0].core.mu
        self._sizes = [0] * k  # the members of each class
        self._pairs = [(v, 1 << v) for v in order]
        self._runs: list[int] = []  # the masks of the maximal id-ascending runs of ``order``
        last = n
        for v in order:
            if v < last:
                self._runs.append(0)
            self._runs[-1] |= 1 << v
            last = v
        self._assignment = [-1] * n
        self._stack: list[list] | None = []  # None once the search has its answer
        self._next = ((1 << n) - 1, 0)  # ``free`` and ``opened`` of the node to expand
        self._charge_next = True  # only the root is charged in ``run`` itself
        self._result: Colouring | None = None
        if n == 0:
            self._stack, self._result = None, Colouring((), 0)
        elif k <= 0:
            self._stack = None

    def run(self, budget: BudgetTicker, cap: int | None = None) -> Colouring | None:
        """The colouring found, or None once the search has refuted ``k``.

        ``cap``, when given, bounds the size of every class that can occur
        (the position number, for a position kind), and the nodes this run
        expands must also pass ``_can_hold``.
        """
        stack = self._stack
        if stack is None:
            return self._result
        states, lazy, sizes, assignment = self._states, self._lazy, self._sizes, self._assignment
        runs, pairs = self._runs, self._pairs
        tick = budget.tick
        free, opened = self._next
        if self._charge_next:
            self._charge_next = False
            tick()
        while True:  # expand the node (free, opened), already charged
            if not free:
                self._stack = None
                self._result = Colouring(tuple(assignment), max(assignment) + 1)
                return self._result
            fit = []
            one = two = three = 0
            for st in states[: opened + 1]:  # the open classes and one empty one, if left
                a = st.fits(free) if lazy else free & ~st.forbidden
                fit.append(a)
                three |= two & a
                two |= one & a
                one |= a
            if not free & ~one and (cap is None or self._can_hold(fit, free, two, opened, cap)):
                fewest = free & ~two or free & ~three
                if fewest:  # its first vertex in order: the lowest of its first run
                    for run in runs:
                        run &= fewest
                        if run:
                            v = (run & -run).bit_length() - 1
                            break
                else:  # every vertex fits three classes or more: count them
                    v, least = -1, len(fit) + 1
                    for u, bit in pairs:
                        if free & bit:
                            count = 0
                            for a in fit:
                                if a & bit:
                                    count += 1
                            if count < least:
                                v, least = u, count
                                if count == 3:
                                    break
                stack.append([v, fit, -1, free, opened])
            # move to the next class of the deepest frame that has one left
            while stack:
                frame = stack[-1]
                v, fit, c, free, opened = frame
                bit = 1 << v
                if c >= 0:
                    states[c].pop()
                    sizes[c] -= 1
                for c in range(c + 1, len(fit)):
                    if fit[c] & bit:
                        break
                else:
                    stack.pop()
                    continue
                states[c].try_add(v)  # its mask in ``fit`` vetted it
                sizes[c] += 1
                assignment[v] = c
                frame[2] = c
                free ^= bit
                if opened <= c:
                    opened = c + 1
                try:
                    tick()
                except BudgetExceededError:
                    self._next = (free, opened)
                    raise
                break
            else:
                self._stack = None
                return None

    def _can_hold(self, fit: list[int], free: int, two: int, opened: int, cap: int) -> bool:
        """Whether classes of at most ``cap`` members each can still hold ``free``.

        ``fit`` holds the masks the open classes and the empty one take, and
        ``two`` the vertices that fit two classes or more.  An open class has
        room for ``cap`` less its members, the empty class for ``cap`` in
        each of the classes not yet opened.  The node fails when the vertices
        that fit only one class outnumber its room, or when the classes,
        each taking no more than its room of the vertices it fits, cannot
        take every vertex of ``free``.
        """
        sizes, unopened = self._sizes, len(self._states) - opened
        alone = ~two  # with ``a``, the vertices that fit only that class
        held = 0
        for c, a in enumerate(fit):
            room = cap - sizes[c] if c < opened else unopened * cap
            if (a & alone).bit_count() > room:
                return False
            a = a.bit_count()
            held += room if room < a else a  # not min(): its call doubled the cost here
        return held >= free.bit_count()


def _perfect_packing(
    n: int, new_class: Callable[[], SetState], pi: int, budget: BudgetTicker
) -> Colouring | None:
    """n/pi classes of exactly ``pi`` vertices each (the tight case k*pi == n).

    Exact-cover style search: the lowest unassigned vertex anchors the next
    class, and :func:`~poscol.position.completions` grows it to ``pi``
    members from the later unassigned vertices, in increasing id order, so
    class symmetry disappears entirely.  The path is an explicit stack with
    one class and its walk per frame, so no partition is too deep for it.
    """
    classes: list[tuple[SetState, int, Iterator[None]]] = []  # with the vertices free before it
    free = (1 << n) - 1
    budget.tick()  # the root
    while free:
        anchor = (free & -free).bit_length() - 1
        state = new_class()
        state.try_add(anchor)
        allowed = free & ~state.forbidden
        cands = [v for v in range(anchor + 1, n) if allowed >> v & 1]
        classes.append((state, free, completions(state, cands, pi, budget)))
        # the next completion of the deepest class that has one left
        while next(classes[-1][2], False) is not None:  # None at a completion
            classes.pop()
            if not classes:
                return None
        state, before, _ = classes[-1]
        free = before & ~state.mask
        budget.tick()
    return Colouring.from_classes(n, [st.members for st, _, _ in classes])


def _first_fit(
    order: Sequence[int],
    new_class: Callable[[], SetState | _CliqueOrIndependent],
    budget: BudgetTicker,
    assignment: list[int],
) -> Colouring:
    """First fit: each vertex of ``order``, which lists every vertex, joins
    the first class that takes it, or a new class from ``new_class()`` when
    none does, and ``assignment``, all -1 at the start, records its class.

    The clock of ``budget`` is read about once per ``TICK_BLOCK`` class
    tests.  The reads charge no node, so no node limit stops a first fit.
    A stop at the deadline leaves the vertices not yet placed at -1.
    """
    states: list = []
    tests = 0
    for v in order:
        for c, st in enumerate(states):
            if st.try_add(v):
                assignment[v] = c
                break
        else:
            st = new_class()
            st.try_add(v)
            states.append(st)
            assignment[v] = len(states) - 1
        tests += assignment[v] + 1
        if tests >= TICK_BLOCK:
            budget.check_clock()
            tests = 0
    return Colouring(tuple(assignment), len(states))


def greedy_position_colouring(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> Colouring:
    """First-fit colouring in descending-degree order, drawing on ``limits``.

    The compile of the constraints draws from ``limits`` (for the mono
    kinds it runs the walk over every induced path), and the first fit
    reads its clock.  If the budget stops either, the vertices not yet
    placed go two to a class along the same order, or one to a class for an
    adjacent pair of an ``_i`` kind: a set of at most two vertices has no
    three in line and sees itself.  So a colouring is always returned.
    """
    order = degree_order(g)
    budget = limits.ticker()
    assignment = [-1] * g.n
    try:
        core = compiled(g, kind, budget)
        return _first_fit(order, partial(SetState, core, kind.independent), budget, assignment)
    except BudgetExceededError:
        pass
    k, single = max(assignment, default=-1) + 1, -1  # ``single``: a vertex alone in class k - 1
    for v in order:
        if assignment[v] != -1:
            continue
        if single == -1 or kind.independent and v in g.adj[single]:
            k, single = k + 1, v
        else:
            single = -1
        assignment[v] = k - 1
    return Colouring(tuple(assignment), k)


def _iterated_greedy(
    order: Sequence[int],
    new_class: Callable[[], SetState | _CliqueOrIndependent],
    k: int,
    budget: BudgetTicker,
) -> Colouring:
    """A colouring with at most ``k`` classes, by Culberson's iterated greedy.

    The first round is first fit in ``order``, every vertex in the caller's
    ``degree_order`` of the graph.  Each later round runs first fit again
    over the vertices of the last colouring, concatenated class by class:
    largest class first with probability 0.5, the classes reversed with 0.2
    and shuffled with 0.3, drawn from ``random.Random(1)``, so the rounds
    are the same on every call.  Every class family here is closed under
    subsets, so a round never needs more classes than the one before.  Each
    round charges ``budget`` one node per vertex.  The rounds stop only at
    ``k`` classes or when the budget raises :class:`BudgetExceededError`, so
    the caller caps the budget.  Ref:
    Culberson & Luo, "Exploring the k-colorable landscape with Iterated
    Greedy" (DIMACS 1996).
    """
    rng = random.Random(1)
    while True:
        budget.tick(len(order))
        found = _first_fit(order, new_class, budget, [-1] * len(order))
        if found.k <= k:
            return found
        classes: list[list[int]] = [[] for _ in range(found.k)]
        for v in order:
            classes[found.assignment[v]].append(v)
        roll = rng.random()
        if roll < 0.5:
            classes.sort(key=len, reverse=True)
        elif roll < 0.7:
            classes.reverse()
        else:
            rng.shuffle(classes)
        order = [v for cls in classes for v in cls]


def _lower_bounds(g: Graph, kind: PositionKind, budget: BudgetTicker) -> Iterator[tuple[int, str]]:
    """The cheap lower bounds on chi_kind of a nonempty graph, with their reasons.

    Cheapest first, so a caller whose budget runs out midway keeps the
    bounds found before the stop.  Only ``bounds()`` adds ceil(n/pi) and the
    chromatic number; only a solve adds ``_solve_bound``, which never
    exceeds either of them, so as a ``bounds()`` candidate it would only
    take ties from their reasons.
    """
    yield 1, "trivial"
    if kind in (PositionKind.GP, PositionKind.GP_I):
        yield -(-(diameter(g) + 1) // 2), "diameter"
    if kind in (PositionKind.MONO, PositionKind.MONO_I):
        yield -(-(monophonic_diameter(g, budget) + 1) // 2), "monophonic diameter"


def _solve_bound(g: Graph, kind: PositionKind) -> int:
    """The lower bound on chi_kind that a solve adds to ``_lower_bounds``.

    For the ``_i`` kinds the size of a greedy clique, whose vertices need an
    independent class each.  For mu 2 when some component is not complete:
    the middle of every shortest path between two vertices at distance 2
    lies in V, so V is no mutual-visibility set.  Else 1.  Neither searches.
    """
    if kind.independent:
        return len(_greedy_clique(g))
    return 2 if kind is PositionKind.MU and diameter(g) >= 2 else 1


def chromatic_position_number(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> CertifiedColouring:
    """Exact chi_kind by iterative deepening from the cheap lower bounds.

    The greedy first-fit colouring supplies the initial upper bound, so a
    feasible colouring always exists at the top of the deepening range; it
    draws from the same budget, and if it spends it, no search runs.  The
    deepening starts at the largest of the ``_lower_bounds`` and
    ``_solve_bound`` (a greedy clique for the ``_i`` kinds, 2 for mu on a
    graph with a component that is not complete).  Each level runs
    ``_level``, which computes pi only if its quick search stalls; no
    chromatic, clique cover or cochromatic number is searched for.  If the
    budget runs out first, the best colouring found so far is returned,
    ``exact`` only when the bounds, the levels refuted and any cached pi
    already meet it, else tagged ``upper_bound_only``.
    """
    if g.n == 0:
        return CertifiedColouring(Colouring((), 0), kind, True, "solver", "exact")
    budget = limits.ticker()
    best = greedy_position_colouring(g, kind, budget)
    lower = _solve_bound(g, kind)
    try:
        for value, _ in _lower_bounds(g, kind, budget):
            lower = max(lower, value)
        while lower < best.k:
            found = _level(g, kind, lower, budget)
            if found is not None:
                best = found
                break
            lower += 1
    except BudgetExceededError:
        pass
    known = known_position_number(g, kind)
    if known is not None:
        lower = max(lower, -(-g.n // known.value))
    if not verify_colouring(g, best, kind, UNLIMITED):
        raise AssertionError("solver produced an invalid colouring")
    return CertifiedColouring(
        best, kind, True, "solver", "exact" if lower >= best.k else "upper_bound_only"
    )


# the slice of a level's quick search, and again of its iterated greedy: benchmark
# levels settled without pi took <= 466 nodes, and quick slices of 3k and 10k ran slower
_QUICK_NODES = 1_000


def _level(g: Graph, kind: PositionKind, k: int, budget: BudgetTicker) -> Colouring | None:
    """One colouring with at most ``k`` classes, or None if none exists.

    The constraints are compiled first, on the whole budget, so that no
    capped slice stops the mono kinds' walk over every induced path midway;
    the searches below share that core and one ``degree_order``.  One
    :class:`_PartitionSearch` serves the level.  A cached pi with k*pi < n
    refutes the level outright.  Without pi, a slice of at most
    ``_QUICK_NODES`` nodes of the search usually settles it; only when that
    stalls is pi computed, in at most 200k nodes, and cached.  Then k*pi < n
    refutes the level and k*pi == n calls ``_perfect_packing``.  Otherwise
    ``_iterated_greedy`` gets a slice of ``_QUICK_NODES`` nodes to find the
    colouring, and if it does not, the search resumes where its slice
    stopped, on the rest of the budget, so no node is searched twice.  That
    run, or the only one when pi was cached before the level, is capped at
    pi when pi is known.
    """
    new_class = partial(SetState, compiled(g, kind, budget), kind.independent)
    order = degree_order(g)
    search = _PartitionSearch(order, new_class, k)
    known = known_position_number(g, kind)
    if known is None:
        try:
            with budget.capped(_QUICK_NODES):
                return search.run(budget)
        except BudgetExceededError:
            try:
                with budget.capped(200_000):
                    known = position_number(g, kind, budget)
            except BudgetExceededError:
                pass
    pi = None if known is None else known.value
    if pi is not None and k * pi < g.n:
        return None
    if pi and k * pi == g.n:  # pi is 0 only on the empty graph
        return _perfect_packing(g.n, new_class, pi, budget)
    try:
        with budget.capped(_QUICK_NODES):
            return _iterated_greedy(order, new_class, k, budget)
    except BudgetExceededError:
        pass
    return search.run(budget, pi)


def feasible_position_colouring(
    g: Graph, kind: PositionKind, k: int, limits: Limits = DEFAULT_LIMITS
) -> Colouring | None:
    """A verified colouring with at most ``k`` classes, or None if none exists.

    One deepening level (``_level``): a quick slice of the search, and only
    if that stalls pi, the iterated greedy and the rest of the search, all
    drawn from one budget.
    """
    found = _level(g, kind, k, limits.ticker())
    if found is not None and not verify_colouring(g, found, kind, UNLIMITED):
        raise AssertionError("solver produced an invalid colouring")
    return found


# -- classic parameters ------------------------------------------------------


class _CliqueOrIndependent:
    """A growing class that must stay an independent set or stay a clique.

    ``_apart`` holds the vertices whose joining would break independence
    (the members and their neighbours), ``_close`` those whose joining would
    break being a clique (the non-neighbours of some member, the members
    among them).  A join that breaks a mode sets its mask to all ones, so a
    vertex may join exactly when its bit of ``forbidden``, the AND of the
    two, is clear.  A class that may only be independent starts with
    ``_close`` all ones.
    """

    __slots__ = ("adj", "full", "_apart", "_close", "forbidden", "_saved")

    def __init__(self, adj: tuple[int, ...], clique_allowed: bool):
        self.adj = adj
        self.full = (1 << len(adj)) - 1
        self._apart = 0
        self._close = 0 if clique_allowed else self.full
        self.forbidden = 0
        self._saved: list[tuple[int, int]] = []  # both masks before each addition

    def try_add(self, v: int) -> bool:
        """Add ``v`` if the class stays a clique or an independent set."""
        if self.forbidden >> v & 1:
            return False
        apart, close, full, nb = self._apart, self._close, self.full, self.adj[v]
        self._saved.append((apart, close))
        self._apart = full if apart >> v & 1 else apart | nb | 1 << v
        self._close = full if close >> v & 1 else close | full & ~nb
        self.forbidden = self._apart & self._close
        return True

    def pop(self) -> None:
        """Undo the last successful ``try_add``."""
        self._apart, self._close = self._saved.pop()
        self.forbidden = self._apart & self._close


def _fewest_classes(
    g: Graph, clique_allowed: bool, lower: int, limits: Limits | BudgetTicker
) -> Colouring:
    """Fewest independent (or, if allowed, clique) classes, deepening from ``lower``."""
    budget = limits.ticker()
    new_class = partial(_CliqueOrIndependent, adjacency_masks(g), clique_allowed)
    order = degree_order(g)
    k = lower
    while (found := _PartitionSearch(order, new_class, k).run(budget)) is None:
        k += 1
    return found


def _greedy_clique(g: Graph) -> list[int]:
    clique: list[int] = []
    common, adj = -1, adjacency_masks(g)  # ``common``: the vertices adjacent to every member
    for v in degree_order(g):
        if common >> v & 1:
            clique.append(v)
            common &= adj[v]
    return clique


def chromatic_number_with_colouring(
    g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> tuple[int, Colouring]:
    """Exact chromatic number and a proper colouring.

    The partition search into independent classes, deepening from the size
    of a greedy clique.
    """
    found = _fewest_classes(g, False, len(_greedy_clique(g)), limits)
    return found.k, found


def _chromatic(g: Graph, limits: Limits | BudgetTicker) -> tuple[int, Colouring]:
    """``chromatic_number_with_colouring``, solved once per graph object."""
    key = "chromatic"
    if key not in g._memo:
        g._memo[key] = chromatic_number_with_colouring(g, limits)
    return g._memo[key]


def chromatic_number(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
    return _chromatic(g, limits)[0]


def clique_cover(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> tuple[int, Colouring]:
    """Minimum partition into cliques: a proper colouring of the complement.

    It is solved on the complement that ``complement(g)`` caches on ``g``, so
    the clique cover of G and the chromatic number of its complement are one
    solve.
    """
    return _chromatic(complement(g), limits)


def clique_cover_number(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
    return clique_cover(g, limits)[0]


def cochromatic_number(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
    """Fewest classes in a partition of V into cliques and independent sets.

    The partition search with both modes open, deepening from 1.
    """
    return _fewest_classes(g, True, 1, limits).k


def total_dominating_set(
    g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> tuple[int, frozenset[int]]:
    """Exact minimum total dominating set by set-cover branch and bound.

    A node, charged one tick, fails when its dominators plus ceil(uncovered
    / max degree), the fewest more that can cover the rest, cannot beat the
    best set so far.  Else each neighbour of its first uncovered vertex in
    (degree, id) order becomes a dominator in turn, lowest first, with the
    path on an explicit stack of masks.  Undefined when a vertex is isolated.
    The answer is cached on the graph; a budget stop caches nothing.
    """
    if any(not g.adj[v] for v in range(g.n)):
        raise GraphInputError("total domination undefined: isolated vertex present")
    if g.n == 0:
        return 0, frozenset()
    cached = g._memo.get("total_domination")
    if cached is not None:
        return cached
    tick = limits.ticker().tick
    n, adj = g.n, adjacency_masks(g)
    by_degree: dict[int, int] = {}  # the mask of the vertices of each degree
    for v, nbrs in enumerate(g.adj):
        by_degree[len(nbrs)] = by_degree.get(len(nbrs), 0) | 1 << v
    most, buckets = max(by_degree), [by_degree[d] for d in sorted(by_degree)]
    stack: list[list[int]] = []  # [covered before u, options left, u] per dominator u
    best, witness, covered = n + 1, frozenset(), 0
    while True:  # the node with the dominators on ``stack``
        tick()
        left = n - covered.bit_count()
        if len(stack) - (-left // most) < best:
            if not left:
                best, witness = len(stack), frozenset(frame[2] for frame in stack)
            else:
                for bucket in buckets:  # its first uncovered vertex in (degree, id) order
                    bucket &= ~covered
                    if bucket:
                        v = (bucket & -bucket).bit_length() - 1
                        break
                stack.append([covered, adj[v], -1])
        while stack:  # the next dominator of the deepest frame with one left
            covered, options, _ = frame = stack[-1]
            if options:
                low = options & -options
                frame[1] = options ^ low
                frame[2] = u = low.bit_length() - 1
                covered |= adj[u]
                break
            stack.pop()
        else:
            found = g._memo["total_domination"] = best, witness
            return found


def total_domination_number(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
    return total_dominating_set(g, limits)[0]


# -- bounds -------------------------------------------------------------------


def bounds(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> BoundPair:
    """Best applicable lower and upper bounds on chi_kind, each annotated.

    Lower bounds: ceil(n/pi); the (monophonic) diameter bound for gp and
    mono kinds; the chromatic number for independent kinds (a solve does
    without it).  Upper bounds: n - pi + 1; pairing the leftovers for the
    non-independent kinds; the clique cover number for the non-independent
    kinds; splitting a longest geodesic for independent kinds; total
    domination for gp on diamond-free graphs without isolated vertices.
    """
    n = g.n
    if n == 0:
        return BoundPair(0, 0, "empty graph", "empty graph")
    budget = limits.ticker()
    lo = max(_lower_bounds(g, kind, budget))
    if kind.independent:
        lo = max(lo, (chromatic_number(g, budget), "chromatic number"))
    pi = position_number(g, kind, budget).value
    lo = max(lo, (-(-n // pi), "ceil(n/pi)"))
    upper: list[tuple[int, str]] = [(n - pi + 1, "n-pi+1")]
    if kind.independent:
        # splitting a longest geodesic into independent pairs needs diam >= 2
        diam = diameter(g)
        if diam >= 2:
            upper.append((n - (diam + 1) // 2, "geodesic split"))
    else:
        upper.append((-(-(n - pi + 2) // 2), "pairing"))
        upper.append((clique_cover_number(g, budget), "clique cover"))
    if kind is PositionKind.GP and is_diamond_free(g) and all(g.adj[v] for v in range(n)):
        upper.append((total_domination_number(g, budget), "total domination"))
    up = min(upper)
    return BoundPair(lo[0], up[0], lo[1], up[1])


# -- inequality suite ---------------------------------------------------------


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    holds: bool
    detail: str


@dataclass
class InequalityReport:
    records: list[InequalityRecord] = field(default_factory=list)

    def check(self, name: str, holds: bool, detail: str) -> None:
        self.records.append(InequalityRecord(name, holds, detail))

    @property
    def failures(self) -> list[InequalityRecord]:
        return [r for r in self.records if not r.holds]

    @property
    def all_hold(self) -> bool:
        return not self.failures


def check_inequality_suite(g: Graph, limits: Limits = DEFAULT_LIMITS) -> InequalityReport:
    """Evaluate every applicable inequality between the colouring parameters.

    Each kind's bounds in pi, diameters, order and classic parameters are one
    ``bounds (<kind>)`` record that checks chi against ``bounds()``.
    """
    rep = InequalityReport()
    n = g.n
    budget = limits.ticker()
    chi = {kind: chromatic_position_number(g, kind, budget).k for kind in ALL_KINDS}
    K = PositionKind
    chrom = chromatic_number(g, budget)
    theta = clique_cover_number(g, budget)

    rep.check(
        "chain mu<=gp<=mono",
        chi[K.MU] <= chi[K.GP] <= chi[K.MONO],
        f"{chi[K.MU]} <= {chi[K.GP]} <= {chi[K.MONO]}",
    )
    rep.check(
        "chain gp<=gpi<=mpi",
        chi[K.GP] <= chi[K.GP_I] <= chi[K.MONO_I],
        f"{chi[K.GP]} <= {chi[K.GP_I]} <= {chi[K.MONO_I]}",
    )
    rep.check(
        "chain mono<=mpi",
        chi[K.MONO] <= chi[K.MONO_I],
        f"{chi[K.MONO]} <= {chi[K.MONO_I]}",
    )
    for kind in ALL_KINDS:
        b = bounds(g, kind, budget)
        rep.check(
            f"bounds ({kind.value})",
            b.lower <= chi[kind] <= b.upper,
            f"{b.lower} ({b.lower_reason}) <= {chi[kind]} <= {b.upper} ({b.upper_reason})",
        )
    if diameter(g) <= 3:
        zeta = cochromatic_number(g, budget)
        rep.check(
            "diam<=3: gpi equals chromatic",
            chi[K.GP_I] == chrom,
            f"{chi[K.GP_I]} == {chrom}",
        )
        rep.check(
            "diam<=3: gp,mu below chromatic",
            chi[K.GP] <= chrom and chi[K.MU] <= chrom,
            f"gp {chi[K.GP]}, mu {chi[K.MU]} <= {chrom}",
        )
        rep.check(
            "diam<=3: gp below cochromatic",
            chi[K.GP] <= zeta,
            f"{chi[K.GP]} <= {zeta}",
        )
    if all(g.adj[v] for v in range(n)):
        gamma_t = total_domination_number(g, budget)
        rep.check(
            "mu below total domination",
            chi[K.MU] <= gamma_t,
            f"{chi[K.MU]} <= {gamma_t}",
        )
    gbar = complement(g)
    theta_bar, chrom_bar = chrom, theta  # θ(Ḡ) = χ(G) and χ(Ḡ) = θ(G)
    for kind in (K.GP, K.MONO):
        chi_bar = chromatic_position_number(gbar, kind, budget).k
        rep.check(
            f"nordhaus-gaddum sum chain ({kind.value})",
            chi[kind] + chi_bar <= theta + theta_bar <= n + 1,
            f"{chi[kind]}+{chi_bar} <= {theta}+{theta_bar} <= {n + 1}",
        )
    if n >= 1:
        # the classical product bound is chi * chi-bar >= n; it implies the
        # 2*sqrt(n) form only once n >= 4 (K2 already violates the latter)
        floor_val = max(n, 2 * math.sqrt(n)) if n >= 4 else n
        for kind in (K.GP_I, K.MONO_I):
            chi_bar = chromatic_position_number(gbar, kind, budget).k
            rep.check(
                f"nordhaus-gaddum product chain ({kind.value})",
                chi[kind] * chi_bar >= chrom * chrom_bar >= floor_val,
                f"{chi[kind]}*{chi_bar} >= {chrom}*{chrom_bar} >= {floor_val:.2f}",
            )
    return rep


# -- JSON ----------------------------------------------------------------------


def colouring_to_dict(c: Colouring, kind: PositionKind | None = None) -> dict:
    out = {
        "n": len(c.assignment),
        "k": c.k,
        "classes": [sorted(cls) for cls in c.classes()],
    }
    if kind is not None:
        out["kind"] = kind.value
    return out


def colouring_from_dict(obj: dict) -> tuple[Colouring, PositionKind | None]:
    try:
        n = json_int(obj["n"], "field 'n'")
        classes = [[json_int(v, "a class member") for v in cls] for cls in obj["classes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphInputError(f"bad colouring JSON: {exc}") from exc
    if n != sum(map(len, classes)):
        raise GraphInputError("colouring JSON field 'n' must be the number of listed vertices")
    kind = None
    if "kind" in obj:
        from .position import parse_kind

        kind = parse_kind(str(obj["kind"]))
    return Colouring.from_classes(n, classes), kind
