"""Exact position chromatic numbers and the auxiliary colouring parameters.

Every colouring number here is the fewest classes in a partition of V(G)
into sets from a subset-closed family, and one backtracking partition
search, ``_feasible_partition``, decides each k for all of them.  The
position chromatic number solver iteratively deepens over k; its classes
grow through :class:`poscol.position.SetState`, whose extension checks are
sound because every position property is closed under subsets.  The
chromatic number, the clique cover number (the chromatic number of the
complement) and the cochromatic number deepen the same search over classes
that must be independent sets, or for the cochromatic number independent
sets or cliques.  The greedy bound, ``position_number``, the partition search
and the exact-cover packing run on the compiled bitmask constraints of
:mod:`poscol.position`; for gp and mono, whether a vertex fits a class is one
bit test.  Every position colouring is re-verified by ``verify_colouring``,
which uses the independent membership oracles and not the compiled
constraints, before it is reported.  Symmetry between colour
classes is broken by only letting a vertex open class j when classes 0..j-1
are nonempty.  Budgets make the solver interruptible: partial results are
tagged ``upper_bound_only``, never passed off as exact.  A solve runs the
greedy upper bound, the cheap lower bounds, then the deepening, which computes
the position number pi only when a level stalls; each top-level call starts
one budget, and every phase but the greedy bound draws from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DEFAULT_LIMITS, UNLIMITED, BudgetExceededError, BudgetTicker, GraphInputError, Limits,
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
    is_position_set,
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
    """True iff every colour class of ``c`` is a ``kind`` position set of ``g``."""
    if len(c.assignment) != g.n:
        raise GraphInputError("colouring does not cover the vertex set")
    seen = [False] * c.k
    for cls in c.assignment:
        if not 0 <= cls < c.k:
            raise GraphInputError(f"class id {cls} outside 0..{c.k - 1}")
        seen[cls] = True
    if not all(seen):
        raise GraphInputError("gap in class ids: some class is empty")
    ticker = limits.ticker()
    return all(is_position_set(g, cls, kind, ticker) for cls in c.classes())


# -- partition search --------------------------------------------------------


def _feasible_partition(
    g: Graph,
    new_class: Callable[[], SetState | _CliqueOrIndependent],
    k: int,
    budget: BudgetTicker,
) -> Colouring | None:
    """A partition of V(g) into at most ``k`` classes, or None if none exists.

    ``new_class()`` makes an empty class of the family: a :class:`SetState`
    for a position kind, a :class:`_CliqueOrIndependent` for the classic
    parameters.  Every such family is closed under subsets, so a class only
    ever has to check the vertex that joins it.  Branches on the unassigned
    vertex with the fewest feasible classes (deterministic tie-break:
    descending degree then id).  Scanning the options doubles as forward
    checking: a vertex with no feasible class fails the node immediately.
    Each node charges ``budget`` one tick.  No capacity prune: with every
    class a position set it could only test k*pi < n, which ``_level``
    decides first.
    """
    if g.n == 0:
        return Colouring((), 0)
    if k <= 0:
        return None
    order = degree_order(g)
    states = [new_class() for _ in range(k)]
    mask_decides = states[0].mask_decides
    assignment = [-1] * g.n

    def bt(assigned: int, opened: int) -> bool:
        budget.tick()
        if assigned == g.n:
            return True
        limit = min(opened + 1, k)
        best_v = -1
        best_opts: list[int] | None = None
        for v in order:
            if assignment[v] != -1:
                continue
            opts = []
            for c in range(limit):
                st = states[c]
                if not st.forbidden >> v & 1 and (mask_decides or st.admits(v)):
                    opts.append(c)
                    if best_opts is not None and len(opts) >= len(best_opts):
                        break
            if not opts:
                return False
            if best_opts is None or len(opts) < len(best_opts):
                best_v, best_opts = v, opts
                if len(best_opts) == 1:
                    break
        assert best_opts is not None
        for c in best_opts:
            st = states[c]
            if not st.try_add(best_v):  # pragma: no cover - options were vetted
                continue
            assignment[best_v] = c
            if bt(assigned + 1, max(opened, c + 1)):
                return True
            st.pop()
            assignment[best_v] = -1
        return False

    try:
        if not bt(0, 0):
            return None
    finally:
        del bt  # a recursive closure is a reference cycle; free it now
    used = max(assignment) + 1
    return Colouring(tuple(assignment), used)


def _perfect_packing(
    g: Graph, kind: PositionKind, k: int, pi: int, budget: BudgetTicker
) -> Colouring | None:
    """k classes of exactly ``pi`` vertices each (the tight case k*pi == n).

    Exact-cover style search: the lowest unassigned vertex anchors the next
    class, whose remaining members are chosen in increasing id order, so
    class symmetry disappears entirely.
    """
    n = g.n
    assignment = [-1] * n

    def next_free(start: int = 0) -> int:
        v = start
        while v < n and assignment[v] != -1:
            v += 1
        return v

    def fill(colour: int) -> bool:
        budget.tick()
        if colour == k:
            return True
        anchor = next_free()
        state = SetState(g, kind, budget)
        state.try_add(anchor)
        assignment[anchor] = colour
        if extend(colour, state, anchor + 1):
            return True
        assignment[anchor] = -1
        return False

    def extend(colour: int, state: SetState, start: int) -> bool:
        budget.tick()
        if len(state.members) == pi:
            return fill(colour + 1)
        v = start
        while v < n:
            if assignment[v] == -1 and state.try_add(v):
                assignment[v] = colour
                if extend(colour, state, v + 1):
                    return True
                state.pop()
                assignment[v] = -1
            v += 1
        return False

    try:
        if not fill(0):
            return None
    finally:
        del fill, extend  # mutually recursive closures form a reference cycle
    return Colouring(tuple(assignment), k)


def greedy_position_colouring(g: Graph, kind: PositionKind) -> Colouring:
    """First-fit colouring in descending-degree order; an unbudgeted upper bound witness."""
    order = degree_order(g)
    states: list[SetState] = []
    assignment = [-1] * g.n
    for v in order:
        for c, st in enumerate(states):
            if st.try_add(v):
                assignment[v] = c
                break
        else:
            st = SetState(g, kind, UNLIMITED)
            st.try_add(v)
            states.append(st)
            assignment[v] = len(states) - 1
    return Colouring(tuple(assignment), len(states))


def _lower_bounds(g: Graph, kind: PositionKind, budget: BudgetTicker) -> Iterator[tuple[int, str]]:
    """The cheap lower bounds on chi_kind of a nonempty graph, with their reasons.

    Cheapest first, so a caller whose budget runs out midway keeps the
    bounds found before the stop.  ceil(n/pi) is not among them: pi is
    computed only by a stalled deepening level and by ``bounds()``.
    """
    yield 1, "trivial"
    if kind in (PositionKind.GP, PositionKind.GP_I):
        yield -(-(diameter(g).diam_star + 1) // 2), "diameter"
    if kind in (PositionKind.MONO, PositionKind.MONO_I):
        yield -(-(monophonic_diameter(g, budget) + 1) // 2), "monophonic diameter"
    if kind.independent:
        yield chromatic_number(g, budget), "chromatic number"


def chromatic_position_number(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> CertifiedColouring:
    """Exact chi_kind by iterative deepening from the cheap lower bounds.

    The greedy first-fit colouring supplies the initial upper bound, so a
    feasible colouring always exists at the top of the deepening range.  Each
    level runs ``_level``, which computes pi only if its quick search
    stalls.  If the budget runs out first, the best colouring found so far is
    returned, ``exact`` only when the bounds, the levels refuted and any
    cached pi already meet it, else tagged ``upper_bound_only``.
    """
    if g.n == 0:
        return CertifiedColouring(Colouring((), 0), kind, True, "solver", "exact")
    budget = limits.ticker()
    best = greedy_position_colouring(g, kind)
    lower = 1
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
    pi = _known_position_number(g, kind)
    if pi is not None:
        lower = max(lower, -(-g.n // pi))
    if not verify_colouring(g, best, kind, UNLIMITED):
        raise AssertionError("solver produced an invalid colouring")
    return CertifiedColouring(
        best, kind, True, "solver", "exact" if lower >= best.k else "upper_bound_only"
    )


def _known_position_number(g: Graph, kind: PositionKind) -> int | None:
    """The position number if an earlier search has already cached it."""
    cached = g._memo.get(("pi_witness", kind))
    return cached.value if cached is not None else None


_QUICK_NODES = 1_000  # benchmark levels settled without pi took <= 466; 3k and 10k ran slower


def _level(g: Graph, kind: PositionKind, k: int, budget: BudgetTicker) -> Colouring | None:
    """One colouring with at most ``k`` classes, or None if none exists.

    A cached pi with k*pi < n refutes the level outright.  Without pi, a
    search of at most ``_QUICK_NODES`` nodes usually settles it; only when
    that stalls is pi computed, in at most 200k nodes, and cached.  Then
    k*pi < n refutes the level, k*pi == n calls ``_perfect_packing``, and
    otherwise the level is searched again on the rest of the budget.
    """
    new_class = partial(SetState, g, kind, budget)
    pi = _known_position_number(g, kind)
    if pi is None:
        try:
            with budget.capped(_QUICK_NODES):
                return _feasible_partition(g, new_class, k, budget)
        except BudgetExceededError:
            try:
                with budget.capped(200_000):
                    pi = position_number(g, kind, budget).value
            except BudgetExceededError:
                pass
    if pi is not None and k * pi < g.n:
        return None
    if pi and k * pi == g.n:  # pi is 0 only on the empty graph
        return _perfect_packing(g, kind, k, pi, budget)
    return _feasible_partition(g, new_class, k, budget)


def feasible_position_colouring(
    g: Graph, kind: PositionKind, k: int, limits: Limits = DEFAULT_LIMITS
) -> Colouring | None:
    """A verified colouring with at most ``k`` classes, or None if none exists.

    One deepening level (``_level``): a quick search, and only if that
    stalls pi and a second search, all drawn from one budget.
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
    mask_decides = True

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
    k = lower
    while (found := _feasible_partition(g, new_class, k, budget)) is None:
        k += 1
    return found


def _greedy_clique(g: Graph) -> list[int]:
    clique: list[int] = []
    for v in degree_order(g):
        if all(v in g.adj[u] for u in clique):
            clique.append(v)
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

    Undefined when any vertex is isolated (its open neighbourhood is empty).
    """
    if any(not g.adj[v] for v in range(g.n)):
        raise GraphInputError("total domination undefined: isolated vertex present")
    if g.n == 0:
        return 0, frozenset()
    ticker = limits.ticker()
    n = g.n
    cover_count = [0] * n  # how many chosen dominators cover each vertex
    chosen: list[int] = []
    best: list[object] = [n + 1, frozenset()]

    def uncovered_hardest() -> int | None:
        worst, worst_options = None, math.inf
        for v in range(n):
            if cover_count[v] == 0:
                options = len(g.adj[v])
                if options < worst_options:
                    worst, worst_options = v, options
        return worst

    def bt() -> None:
        ticker.tick()
        if len(chosen) >= best[0]:
            return
        v = uncovered_hardest()
        if v is None:
            best[0] = len(chosen)
            best[1] = frozenset(chosen)
            return
        # some neighbour of v must be a dominator
        for u in sorted(g.adj[v]):
            chosen.append(u)
            for w in g.adj[u]:
                cover_count[w] += 1
            bt()
            for w in g.adj[u]:
                cover_count[w] -= 1
            chosen.pop()

    try:
        bt()
    finally:
        del bt  # a recursive closure is a reference cycle; free it now
    return int(best[0]), best[1]  # type: ignore[arg-type]


def total_domination_number(g: Graph, limits: Limits | BudgetTicker = DEFAULT_LIMITS) -> int:
    return total_dominating_set(g, limits)[0]


# -- bounds -------------------------------------------------------------------


def bounds(
    g: Graph, kind: PositionKind, limits: Limits | BudgetTicker = DEFAULT_LIMITS
) -> BoundPair:
    """Best applicable lower and upper bounds on chi_kind, each annotated.

    Lower bounds: ceil(n/pi); the (monophonic) diameter bound for gp and
    mono kinds; the chromatic number for independent kinds.  Upper bounds:
    n - pi + 1; pairing the leftovers for the non-independent kinds; the
    clique cover number for the non-independent kinds; splitting a longest
    geodesic for independent kinds; total domination for gp on diamond-free
    graphs without isolated vertices.
    """
    n = g.n
    if n == 0:
        return BoundPair(0, 0, "empty graph", "empty graph")
    budget = limits.ticker()
    cheap = max(_lower_bounds(g, kind, budget))
    pi = position_number(g, kind, budget).value
    lo = max(cheap, (-(-n // pi), "ceil(n/pi)"))
    upper: list[tuple[int, str]] = [(n - pi + 1, "n-pi+1")]
    comp = diameter(g)
    if kind.independent:
        # splitting a longest geodesic into independent pairs needs diam >= 2
        if comp.diam_star >= 2:
            upper.append((n - (comp.diam_star + 1) // 2, "geodesic split"))
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
    comp = diameter(g)

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
    if comp.diam_star <= 3:
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
        n = obj["n"]
        classes = [[int(v) for v in cls] for cls in obj["classes"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphInputError(f"bad colouring JSON: {exc}") from exc
    if not isinstance(n, int) or n != sum(map(len, classes)):
        raise GraphInputError("colouring JSON field 'n' must be the number of listed vertices")
    kind = None
    if "kind" in obj:
        from .position import parse_kind

        kind = parse_kind(str(obj["kind"]))
    return Colouring.from_classes(n, classes), kind
