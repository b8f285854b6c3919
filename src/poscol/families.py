"""Deterministic generators for the named graph families.

This module is the one owner of what a family name means.  ``generate``
looks each leaf name up in one name -> generator table; the composites
(``cartesian``, ``strong``, ``complementary_prism``) nest child specs.
``resolve`` expands the one alias, ``petersen`` (which takes no arguments)
to ``kneser2:5``, and applies the argument rule: every argument is an
integer, except the edge probability of ``random``.  ``generate``,
``predicted_chi``, ``predicted_position_number`` and ``construct_colouring``
all read a spec through ``resolve``.

Every generator fixes a documented vertex numbering so that the pattern
colourings built elsewhere are reproducible bit-exactly, and the numberings
other modules rely on come from one helper each here:

* paths carry 1-based coordinate labels ``1..n``; cycles carry ``0..n-1``
  (integers mod n);
* products flatten ``(i, j)`` to ``i * n2 + j`` over 0-based ids, so a grid
  vertex with paper coordinates ``(i, j)`` (1-based) has id
  ``(i-1) * n2 + (j-1)`` and label ``(i, j)``;
* Kneser-type vertices are the 2-subsets ``{a, b}`` of ``{1..n}`` with
  ``a < b`` in lexicographic order (``pair_ids``);
* a complete multipartite graph numbers its parts consecutively
  (``part_ranges``), and a Turán graph is the multipartite graph on
  ``turan_parts``.

Seeded generators use Python's ``random.Random`` (Mersenne Twister), whose
output for a fixed seed is stable across platforms and versions.
"""

from __future__ import annotations

import inspect
import itertools
import random
from dataclasses import dataclass

from .errors import GraphInputError
from .graphs import Graph, build_graph, complement, disjoint_union, join, product


_COMPOSITES = ("cartesian", "strong", "complementary_prism")


@dataclass(frozen=True)
class FamilySpec:
    """A named family instance, e.g. ``FamilySpec("cycle", (9,))``.

    Nested specs (products, complementary prisms) hold child ``FamilySpec``
    objects inside ``args``.
    """

    name: str
    args: tuple = ()

    def __str__(self) -> str:
        if self.name in _COMPOSITES:
            return f"{self.name}({','.join(str(a) for a in self.args)})"
        if not self.args:
            return self.name
        return f"{self.name}:{','.join(str(a) for a in self.args)}"


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI family grammar, e.g. ``cartesian(path:4,path:6)``."""
    text = text.strip()
    if not text:
        raise GraphInputError("empty family spec")
    if "(" in text:
        name, _, rest = text.partition("(")
        name = name.strip().lower()
        if not rest.endswith(")"):
            raise GraphInputError(f"unbalanced parentheses in {text!r}")
        inner = rest[:-1]
        parts = _split_specs(inner)
        if name in ("cartesian", "strong"):
            if len(parts) != 2:
                raise GraphInputError(f"{name} expects two factor specs")
            return FamilySpec(name, tuple(parse_family(p) for p in parts))
        if name == "complementary_prism":
            if len(parts) != 1:
                raise GraphInputError("complementary_prism expects one base spec")
            return FamilySpec(name, (parse_family(parts[0]),))
        raise GraphInputError(f"unknown composite family {name!r}")
    name, _, argtext = text.partition(":")
    name = name.strip().lower()
    if name in _COMPOSITES:
        raise GraphInputError(f"{name} takes its family specs in parentheses")
    args: list = []
    if argtext:
        for tok in argtext.split(","):
            tok = tok.strip()
            try:
                args.append(float(tok) if "." in tok else int(tok))
            except ValueError:
                raise GraphInputError(f"bad family argument {tok!r}") from None
    return FamilySpec(name, tuple(args))


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _split_specs(text: str) -> list[str]:
    """Split composite arguments into child specs.

    Bare numbers after a comma belong to the preceding child's argument list
    (so ``cartesian(multipartite:3,1,path:2)`` has two children).
    """
    merged: list[str] = []
    for piece in _split_top(text):
        is_number = piece.replace(".", "", 1).lstrip("-").isdigit()
        if merged and is_number:
            merged[-1] += "," + piece
        else:
            merged.append(piece)
    return merged


# -- elementary families -----------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], labels=range(1, n + 1))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], labels=range(n))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("complete needs n >= 1")
    return build_graph(n, itertools.combinations(range(n), 2), labels=range(1, n + 1))


def part_ranges(parts: tuple[int, ...]) -> list[range]:
    """The vertex ids of each part of a complete multipartite graph, in order."""
    ranges, start = [], 0
    for p in parts:
        ranges.append(range(start, start + p))
        start += p
    return ranges


def multipartite_graph(parts: tuple[int, ...]) -> Graph:
    if not parts or any(p < 1 for p in parts):
        raise GraphInputError("multipartite parts must be positive")
    if list(parts) != sorted(parts, reverse=True):
        raise GraphInputError("multipartite parts must be in descending order")
    ranges = part_ranges(parts)
    labels = [idx for idx, part in enumerate(ranges) for _ in part]
    edges = [
        (u, v)
        for i, j in itertools.combinations(ranges, 2)
        for u in i
        for v in j
    ]
    return build_graph(len(labels), edges, labels=labels)


def turan_parts(a: int, n: int) -> tuple[int, ...]:
    """Part sizes of the Turán graph T(n, a): a parts as equal as possible, descending."""
    if not 1 <= a <= n:
        raise GraphInputError("turan needs 1 <= a <= n")
    q, r = divmod(n, a)
    return tuple([q + 1] * r + [q] * (a - r))


def turan_graph(a: int, n: int) -> Graph:
    return multipartite_graph(turan_parts(a, n))


def pair_ids(n: int) -> dict[tuple[int, int], int]:
    """The vertex id of each 2-subset ``(a, b)``, ``a < b``, of [n] in K(n,2) and L(K_n)."""
    return {p: i for i, p in enumerate(itertools.combinations(range(1, n + 1), 2))}


def _pair_graph(n: int, adjacent) -> Graph:
    pairs = list(pair_ids(n))
    edges = [
        (i, j)
        for i in range(len(pairs))
        for j in range(i + 1, len(pairs))
        if adjacent(set(pairs[i]) & set(pairs[j]))
    ]
    return build_graph(len(pairs), edges, labels=pairs)


def kneser2_graph(n: int) -> Graph:
    """K(n, 2): 2-subsets of [n], adjacent when disjoint."""
    if n < 5:
        raise GraphInputError("kneser2 needs n >= 5")
    return _pair_graph(n, lambda common: not common)


def line_complete_graph(n: int) -> Graph:
    """L(K_n): 2-subsets of [n], adjacent when they share an element."""
    if n < 2:
        raise GraphInputError("line_complete needs n >= 2")
    return _pair_graph(n, bool)


def tree_leaves_graph(a: int, leaves: int) -> Graph:
    """Path on 2a-1 vertices (labelled 0..2a-2) plus extra leaves at 2a-3."""
    if a < 2 or leaves < 0:
        raise GraphInputError("tree_leaves needs a >= 2, leaves >= 0")
    n = 2 * a - 1
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(2 * a - 3, n + i) for i in range(leaves)]
    labels = list(range(n)) + [("leaf", i + 1) for i in range(leaves)]
    return build_graph(n + leaves, edges, labels=labels)


def t_tree_graph(a: int, b: int) -> Graph:
    """Tree with gp-chromatic number a and clique cover number b."""
    if not 2 <= a <= b:
        raise GraphInputError("t needs 2 <= a <= b")
    return tree_leaves_graph(a, b - a)


def h_graph(r: int, s: int) -> Graph:
    """K_{r,r} minus a perfect matching, a tail path, and a hub joined to X.

    Vertices: x_1..x_r are 0..r-1, y_1..y_r are r..2r-1, z_j is 2r+j for
    0 <= j <= s.
    """
    if r < 3 or s < 0:
        raise GraphInputError("h needs r >= 3, s >= 0")
    edges = [(i, r + j) for i in range(r) for j in range(r) if i != j]
    z0 = 2 * r
    edges += [(z0, i) for i in range(r)]
    edges += [(z0 + j, z0 + j + 1) for j in range(s)]
    labels = (
        [("x", i + 1) for i in range(r)]
        + [("y", i + 1) for i in range(r)]
        + [("z", j) for j in range(s + 1)]
    )
    return build_graph(2 * r + s + 1, edges, labels=labels)


def k_gadget_graph(r: int) -> Graph:
    """K_{r,r} minus the perfect matching x_i y_i."""
    if r < 3:
        raise GraphInputError("k_gadget needs r >= 3")
    edges = [(i, r + j) for i in range(r) for j in range(r) if i != j]
    labels = [("x", i + 1) for i in range(r)] + [("y", i + 1) for i in range(r)]
    return build_graph(2 * r, edges, labels=labels)


def j_graph(r: int, s: int) -> Graph:
    """Strong grid P_2 x P_2r with a path of order 2s-1 hung off its last column."""
    if r < 1 or s < 1:
        raise GraphInputError("j needs r >= 1, s >= 1")
    grid = product("strong", path_graph(2), path_graph(2 * r))
    tail = 2 * s - 1
    n0 = grid.n
    edges = grid.edges()
    corner_top = 2 * r - 1  # (1, 2r)
    corner_bot = 2 * (2 * r) - 1  # (2, 2r)
    edges += [(corner_top, n0), (corner_bot, n0)]
    edges += [(n0 + i, n0 + i + 1) for i in range(tail - 1)]
    labels = list(grid.labels) + [("z", i + 1) for i in range(tail)]
    return build_graph(n0 + tail, edges, labels=labels)


def g_star_graph(a: int, n: int) -> Graph:
    """Clique K_a with n-a pendant leaves on its first vertex."""
    if a < 1 or n < a:
        raise GraphInputError("g_star needs 1 <= a <= n")
    edges = list(itertools.combinations(range(a), 2))
    edges += [(0, a + i) for i in range(n - a)]
    labels = [("k", i + 1) for i in range(a)] + [("leaf", i + 1) for i in range(n - a)]
    return build_graph(n, edges, labels=labels)


def g_graph(a: int, b: int) -> Graph:
    """Path of order 2b-a with one leaf identified into a vertex of K_a."""
    if not 2 <= a <= b:
        raise GraphInputError("g needs 2 <= a <= b")
    path_len = 2 * b - a
    # path vertices 0..path_len-1; vertex 0 doubles as a clique vertex
    edges = [(i, i + 1) for i in range(path_len - 1)]
    clique = [0] + list(range(path_len, path_len + a - 1))
    edges += list(itertools.combinations(clique, 2))
    n = path_len + a - 1
    labels = [("p", i + 1) for i in range(path_len)] + [
        ("k", i + 2) for i in range(a - 1)
    ]
    return build_graph(n, edges, labels=labels)


def s_tree_graph(r: int, t: int) -> Graph:
    """Star-like tree: hub x, t pendant edges x_i y_i, and a path u_1..u_r."""
    if r < 0 or t < 1:
        raise GraphInputError("s needs r >= 0, t >= 1")
    # ids: 0 = x; 1..t = x_i; t+1..2t = y_i; 2t+1..2t+r = u_i
    edges = [(0, i) for i in range(1, t + 1)]
    edges += [(i, t + i) for i in range(1, t + 1)]
    if r >= 1:
        edges.append((0, 2 * t + 1))
        edges += [(2 * t + i, 2 * t + i + 1) for i in range(1, r)]
    labels = (
        [("x",)]
        + [("xi", i + 1) for i in range(t)]
        + [("yi", i + 1) for i in range(t)]
        + [("u", i + 1) for i in range(r)]
    )
    return build_graph(2 * t + r + 1, edges, labels=labels)


def q_graph(r: int) -> Graph:
    """Path u_1..u_r plus an extra vertex x adjacent to u_1 and u_3."""
    if r < 4:
        raise GraphInputError("q needs r >= 4")
    edges = [(i, i + 1) for i in range(r - 1)]
    edges += [(r, 0), (r, 2)]
    labels = [("u", i + 1) for i in range(r)] + [("x",)]
    return build_graph(r + 1, edges, labels=labels)


def complete_minus_cliques_graph(n: int, a: int) -> Graph:
    """K_n minus the edges of vertex-disjoint K_2, K_3, ..., K_a."""
    if a < 2:
        raise GraphInputError("complete_minus_cliques needs a >= 2")
    need = a * (a + 1) // 2 - 1
    if n < need:
        raise GraphInputError(f"complete_minus_cliques needs n >= {need} for a={a}")
    removed = set()
    labels: list = [("w",)] * n
    start = 0
    for size in range(2, a + 1):
        block = range(start, start + size)
        for u, v in itertools.combinations(block, 2):
            removed.add((u, v))
        for u in block:
            labels[u] = ("z", size)
        start += size
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if (u, v) not in removed
    ]
    return build_graph(n, edges, labels=labels)


def cycle_join_clique_graph(a: int, n: int) -> Graph:
    """The join of C_{2a-1} with K_{n-2a+1}."""
    if a < 2 or n < 2 * a:
        raise GraphInputError("cycle_join_clique needs a >= 2 and n >= 2a")
    return join(cycle_graph(2 * a - 1), complete_graph(n - 2 * a + 1))


def complementary_prism(base: Graph) -> Graph:
    """Disjoint union of G and its complement plus the identity matching."""
    g2 = disjoint_union(base, complement(base))
    edges = g2.edges() + [(v, v + base.n) for v in range(base.n)]
    return build_graph(g2.n, edges, labels=g2.labels)


# -- seeded random generators --------------------------------------------------


def random_graph(n: int, p: float, seed: int) -> Graph:
    if n < 1 or not 0 <= p <= 1:
        raise GraphInputError("random needs n >= 1 and 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Random graph conditioned on connectivity: a seeded spanning tree plus noise."""
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_block_graph(n: int, seed: int) -> Graph:
    """Random cliques glued one cut vertex at a time; always a block graph."""
    if n < 1:
        raise GraphInputError("block_random needs n >= 1")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    cur = 1
    while cur < n:
        cut = rng.randrange(cur)
        size = rng.randint(1, min(3, n - cur))
        block = [cut] + list(range(cur, cur + size))
        edges += list(itertools.combinations(block, 2))
        cur += size
    return build_graph(n, edges)


def random_split_graph(n: int, seed: int) -> Graph:
    """Random connected non-complete split graph (clique part + independent part)."""
    if n < 1:
        raise GraphInputError("split_random needs n >= 1")
    if n == 1:
        return build_graph(1, [], labels=[("clique", 0)])
    if n == 2:
        return build_graph(2, [(0, 1)], labels=[("clique", 0), ("indep", 1)])
    rng = random.Random(seed)
    k = rng.randint(1, n - 2)  # independent part keeps >= 2 vertices: non-complete
    edges = list(itertools.combinations(range(k), 2))
    for v in range(k, n):
        nbrs = [u for u in range(k) if rng.random() < 0.5]
        if not nbrs:
            nbrs = [rng.randrange(k)]
        edges += [(u, v) for u in nbrs]
    labels = [("clique", v) for v in range(k)] + [("indep", v) for v in range(k, n)]
    return build_graph(n, edges, labels=labels)


# -- dispatch -------------------------------------------------------------------


# leaf family name -> generator over the spec's arguments
_GENERATORS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "multipartite": lambda *parts: multipartite_graph(parts),
    "turan": turan_graph,
    "kneser2": kneser2_graph,
    "line_complete": line_complete_graph,
    "tree_leaves": tree_leaves_graph,
    "t": t_tree_graph,
    "h": h_graph,
    "j": j_graph,
    "g_star": g_star_graph,
    "g": g_graph,
    "s": s_tree_graph,
    "q": q_graph,
    "k_gadget": k_gadget_graph,
    "complete_minus_cliques": complete_minus_cliques_graph,
    "cycle_join_clique": cycle_join_clique_graph,
    "split_random": random_split_graph,
    "block_random": random_block_graph,
    "random": random_graph,
}

_SIGNATURES = {name: inspect.signature(make) for name, make in _GENERATORS.items()}

_ALIASES = {"petersen": FamilySpec("kneser2", (5,))}


def _allowed(name: str, position: int, arg) -> bool:
    """The argument rule: integers only, but ``random`` takes a real edge probability."""
    if name == "random" and position == 1:
        return isinstance(arg, (int, float))
    return isinstance(arg, int)


def resolve(spec: FamilySpec) -> FamilySpec:
    """``spec`` with the alias expanded, its name known and its arguments
    checked: their count against the generator, each against the rule."""
    name, args = spec.name, spec.args
    if name in _COMPOSITES:
        return FamilySpec(name, tuple(resolve(a) for a in args))
    if name in _ALIASES:
        if args:
            raise GraphInputError(f"{name} takes no arguments")
        return _ALIASES[name]
    if name not in _SIGNATURES:
        raise GraphInputError(f"unknown family {name!r}")
    try:
        _SIGNATURES[name].bind(*args)
    except TypeError:
        raise GraphInputError(f"wrong number of arguments for family {name!r}") from None
    for position, arg in enumerate(args):
        if not _allowed(name, position, arg):
            raise GraphInputError(f"bad argument {arg!r} for family {name!r}")
    return spec


def generate(spec: FamilySpec) -> Graph:
    """Deterministic labelled graph for a family spec."""
    spec = resolve(spec)
    name, args = spec.name, spec.args
    if name == "complementary_prism":
        return complementary_prism(generate(args[0]))
    if name in ("cartesian", "strong"):
        return product(name, generate(args[0]), generate(args[1]))
    return _GENERATORS[name](*args)
