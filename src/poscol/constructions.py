"""Explicit position colourings from the constructive proofs.

Every construction re-verifies its output through the position oracles,
which need no all-pairs distance matrix, before returning (the torus
tessellation feeds the closed-form cyclic metric to the same collinear-triple
test instead of BFS, once per class shape, since its classes are translates;
Cartesian distance additivity is checked separately in the graph tests).  A
failed verification is a construction bug and raises.

Colourings are tagged ``exact`` only for parameter ranges where a matching
lower bound is proven; otherwise ``upper_bound_only``.
"""

from __future__ import annotations

import itertools

from .errors import DEFAULT_LIMITS, GraphInputError, Limits
from .families import FamilySpec, generate, pair_ids, part_ranges, resolve, turan_parts
from .formulas import multipartite_chi_gp
from .graphs import Graph, diameter, extreme_vertices, induced_subgraph, is_block_graph, is_diamond_free
from .kirkman import kirkman_triple_system
from .position import PositionKind, has_collinear_triple
from .solver import (
    CertifiedColouring,
    Colouring,
    clique_cover,
    total_dominating_set,
    verify_colouring,
)

Cell = tuple[int, int]


class UnsupportedConstruction(GraphInputError):
    """No constructive colouring is implemented for this family/kind pair."""


def _pack_pairs(items: list) -> list[list]:
    """Split a list into consecutive 2-sets plus a possible final singleton."""
    return [items[i : i + 2] for i in range(0, len(items), 2)]


def _certify(
    g: Graph,
    classes: list[list[int]],
    kind: PositionKind,
    provenance: str,
    exact: bool,
    limits: Limits,
) -> CertifiedColouring:
    col = Colouring.from_classes(g.n, classes)
    if not verify_colouring(g, col, kind, limits):
        raise AssertionError(f"construction {provenance!r} failed verification")
    return CertifiedColouring(col, kind, True, provenance, "exact" if exact else "upper_bound_only")


# -- paths and cycles ----------------------------------------------------------


def _cycle_gp_classes(n: int) -> tuple[list[list[int]], bool]:
    if n == 3:
        return [[0, 1, 2]], True
    if n == 4:
        return [[0, 2], [1, 3]], True
    if n == 5:
        return [[0, 2, 3], [1, 4]], True
    if n == 8:
        # the generic {i, q+i, 2q+i} template is collinear when q <= n mod 3
        # (only n = 5 and n = 8); use arc gaps (2,3,3) instead
        return [[0, 2, 5], [1, 3, 6], [4, 7]], True
    q, r = divmod(n, 3)
    classes = [[i, q + i, 2 * q + i] for i in range(q)]
    if r:
        classes.append(list(range(3 * q, n)))
    return classes, True


def _cycle_mono_classes(n: int) -> tuple[list[list[int]], bool]:
    if n == 3:
        return [[0, 1, 2]], True
    return _pack_pairs(list(range(n))), True


# -- Kneser and line graphs ----------------------------------------------------


def _kneser_gp_classes(n: int) -> tuple[list[list[int]], bool]:
    idx = pair_ids(n)
    first = [idx[p] for p in itertools.combinations(range(1, 5), 2)]
    classes = [first]
    for m in range(5, n + 1):
        classes.append([idx[(a, m)] for a in range(1, m)])
    return classes, True


def _triangle(idx, triple) -> list[int]:
    a, b, c = sorted(triple)
    return [idx[(a, b)], idx[(a, c)], idx[(b, c)]]


def _restrict_class(idx, cls, dropped: set[int]) -> list[int]:
    """Line-graph class from a parallel class after deleting ``dropped`` points."""
    out: list[int] = []
    for triple in cls:
        alive = [p for p in triple if p not in dropped]
        if len(alive) == 3:
            out.extend(_triangle(idx, alive))
        elif len(alive) == 2:
            a, b = sorted(alive)
            out.append(idx[(a, b)])
    return out


def _line_complete_gp_classes(n: int) -> tuple[list[list[int]], bool]:
    idx = pair_ids(n)
    r = n % 6
    if r == 3:
        ts = kirkman_triple_system(n)
        return [_restrict_class(idx, cls, set()) for cls in ts.classes], True
    if r == 4:
        ts = kirkman_triple_system(n - 1)
        classes = [_restrict_class(idx, cls, set()) for cls in ts.classes]
        classes.append([idx[(a, n)] for a in range(1, n)])
        return classes, True
    if r == 5:
        x, y = n, n - 1
        ts = kirkman_triple_system(n - 2)
        classes = [_restrict_class(idx, cls, set()) for cls in ts.classes]
        classes.append([idx[(a, y)] for a in range(1, y)])
        classes.append([idx[(a, x)] for a in range(1, x)])
        return classes, True
    if r == 2:
        ts = kirkman_triple_system(n + 1)
        return [_restrict_class(idx, cls, {n + 1}) for cls in ts.classes], True
    if r == 1:
        ts = kirkman_triple_system(n + 2)
        return [_restrict_class(idx, cls, {n + 1, n + 2}) for cls in ts.classes], True
    # r == 0: one colour over the n/2+1 lower bound; optimal only for n in {6,12}
    x, y, z = n - 2, n - 1, n
    ts = kirkman_triple_system(n - 3)
    classes = [_restrict_class(idx, cls, set()) for cls in ts.classes]
    classes[0] = classes[0] + _triangle(idx, (x, y, z))
    for v in (x, y, z):
        classes.append([idx[(min(a, v), max(a, v))] for a in range(1, n - 2)])
    return classes, n in (6, 12)


# -- complete multipartite -----------------------------------------------------


def _multipartite_gp_classes(parts: tuple[int, ...]) -> tuple[list[list[int]], bool]:
    r = len(parts)
    part_vertices = [list(part) for part in part_ranges(parts)]
    value = multipartite_chi_gp(parts)
    if value == r:
        return part_vertices, True
    i = next(i for i in range(r) if parts[i] + i == value)  # 0-based split
    classes = [part_vertices[j] for j in range(i)]
    for t in range(parts[i]):
        classes.append([part_vertices[j][t] for j in range(i, r) if parts[j] > t])
    return classes, True


# -- Cartesian grids -----------------------------------------------------------


def _grid_id(n2: int):
    return lambda i, j: (i - 1) * n2 + (j - 1)  # 1-based paper coordinates


def _p2_grid_classes(n: int) -> list[list[Cell]]:
    def neighbourhood_pair(col: int) -> list[list[Cell]]:
        # col is the centre column of a 3-column block
        return [
            [(1, col - 1), (1, col + 1), (2, col)],
            [(2, col - 1), (2, col + 1), (1, col)],
        ]

    r, rem = divmod(n, 3)
    classes: list[list[Cell]] = []
    if rem == 0:
        for b in range(r):
            classes += neighbourhood_pair(3 * b + 2)
    elif rem == 1:
        classes.append([(1, 1), (2, 1)])
        for b in range(r):
            classes += neighbourhood_pair(3 * b + 3)
    else:
        for b in range(r):
            classes += neighbourhood_pair(3 * b + 2)
        classes.append([(1, 3 * r + 1), (1, 3 * r + 2)])
        classes.append([(2, 3 * r + 1), (2, 3 * r + 2)])
    return classes


def _p3_grid_classes(n: int) -> tuple[list[list[Cell]], bool]:
    if n % 4:
        raise UnsupportedConstruction("P3-grid pattern needs 4 | n")
    classes: list[list[Cell]] = []
    for i in range(n // 4):
        classes.append([(2, 4 * i + 1), (1, 4 * i + 2), (3, 4 * i + 2), (2, 4 * i + 3)])
        classes.append([(2, 4 * i + 2), (1, 4 * i + 3), (3, 4 * i + 3), (2, 4 * i + 4)])
    for i in range(n // 12):
        b = 12 * i
        classes.append([(1, b + 1), (1, b + 5), (3, b + 4)])
        classes.append([(1, b + 4), (3, b + 1), (3, b + 5)])
        classes.append([(1, b + 8), (1, b + 12), (3, b + 9)])
        classes.append([(1, b + 9), (3, b + 8), (3, b + 12)])
    tail = n % 12
    b = n - tail
    if tail == 4:
        classes.append([(1, b + 1), (1, b + 4)])
        classes.append([(3, b + 1), (3, b + 4)])
    elif tail == 8:
        classes.append([(1, b + 1), (1, b + 5), (3, b + 4)])
        classes.append([(1, b + 4), (3, b + 1), (3, b + 5)])
        classes.append([(1, b + 8), (3, b + 8)])
    return classes, tail == 0


def _p4_grid_classes(n: int) -> list[list[Cell]]:
    if n < 4:
        raise UnsupportedConstruction("P4-grid pattern needs n >= 4")
    classes = [
        [(1, j + 1), (2, j), (3, j + 2), (4, j + 1)] for j in range(1, n - 1)
    ]
    classes.append([(1, 1), (1, n), (2, n - 1)])
    classes.append([(2, n), (3, 1)])
    classes.append([(3, 2), (4, 1), (4, n)])
    return classes


def _tessellation_classes(n1: int, n2: int) -> list[list[Cell]]:
    """Neighbourhood packing for odd n1, 4 | n2; leftovers paired along rows."""
    if n1 < 3 or n1 % 2 == 0 or n2 % 4:
        raise UnsupportedConstruction("tessellation needs odd n1 >= 3 and 4 | n2")

    def in_grid(i: int, j: int) -> bool:
        return 1 <= i <= n1 and 1 <= j <= n2

    centres = []
    for i in range(2, n1, 2):
        residues = (2, 3) if i % 4 == 2 else (0, 1)
        for j in range(1, n2 + 1):
            if j % 4 in residues:
                centres.append((i, j))
    classes: list[list[Cell]] = []
    covered: set[Cell] = set()
    for (i, j) in centres:
        nb = [c for c in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)) if in_grid(*c)]
        if any(c in covered for c in nb):
            raise AssertionError("tessellation neighbourhoods overlap")
        covered.update(nb)
        classes.append(nb)
    for i in range(1, n1 + 1):
        row_left = [(i, j) for j in range(1, n2 + 1) if (i, j) not in covered]
        classes.extend(_pack_pairs(row_left))
    return classes


def _cylinder_classes(n1: int, n2: int) -> list[list[Cell]]:
    """Rotated 5-point seeds on P_n1 (rows, 1-based) x C_n2 (columns, mod n2)."""
    if n1 < 5 or not (n2 == 7 or n2 >= 9):
        raise UnsupportedConstruction("cylinder pattern needs n1 >= 5 and n2 = 7 or n2 >= 9")
    if n2 == 7:
        seed = [(1, 1), (2, 3), (3, 5), (4, 0), (5, 2)]
    else:
        seed = [(1, 2), (2, 5), (3, n2 // 2 + 3), (4, 1), (5, 4)]
    classes: list[list[Cell]] = []
    for t in range(n1 // 5):
        for c in range(n2):
            classes.append([(r + 5 * t, (col + c) % n2) for r, col in seed])
    for row in range(5 * (n1 // 5) + 1, n1 + 1):
        classes.extend(_pack_pairs([(row, c) for c in range(n2)]))
    return classes


# -- torus tessellation ---------------------------------------------------------


def _cyc(n: int, a: int) -> int:
    a %= n
    return min(a, n - a)


def _torus_classes(n1: int, n2: int) -> list[list[int]]:
    s, t = n1 // 7, n2 // 7
    base = [(i * s, (2 * i % 7) * t) for i in range(7)]
    classes = []
    for j in range(s):
        for c in range(n2):
            classes.append(
                [((r + j) % n1) * n2 + (col + c) % n2 for r, col in base]
            )
    return classes


def _verify_torus_colouring(n1: int, n2: int, classes: list[list[int]]) -> None:
    """gp check with the closed-form metric d = cyc(dr) + cyc(dc).

    That metric depends only on the differences between cells, so each class
    shape, its cells' offsets from its first cell mod (n1, n2), is checked once.
    """
    seen = set()
    shapes: dict[tuple[Cell, ...], bool] = {}
    for cls in classes:
        if len(cls) != 7:
            raise AssertionError("torus class of wrong size")
        seen.update(cls)
        r0, c0 = divmod(cls[0], n2)
        shape = tuple(((v // n2 - r0) % n1, (v - c0) % n2) for v in cls)
        collinear = shapes.get(shape)
        if collinear is None:
            by_dist = [[0] * (n1 // 2 + n2 // 2 + 1) for _ in shape]
            for (a, (r, c)), (j, (q, e)) in itertools.product(enumerate(shape), repeat=2):
                by_dist[a][_cyc(n1, r - q) + _cyc(n2, c - e)] |= 1 << j
            collinear = shapes[shape] = has_collinear_triple(
                range(7), lambda a, later: [m & later for m in by_dist[a]], 7
            )
        if collinear:
            raise AssertionError("torus class is not in general position")
    if len(seen) != n1 * n2 or len(classes) * 7 != n1 * n2:
        raise AssertionError("torus classes do not partition the vertices")


# -- strong grids ----------------------------------------------------------------


def _strong_gp_classes(m: int, n: int) -> list[list[Cell]]:
    classes = []
    for a in range(1, m + 1, 2):
        for b in range(1, n + 1, 2):
            classes.append(
                [
                    (i, j)
                    for i in (a, a + 1)
                    for j in (b, b + 1)
                    if i <= m and j <= n
                ]
            )
    return classes


def _strong_mu_classes(m: int, n: int) -> tuple[list[list[Cell]], bool]:
    def row(i: int) -> list[Cell]:
        return [(i, j) for j in range(1, n + 1)]

    if m == 1:
        # a path: its mu-sets have at most two vertices
        return _pack_pairs(row(1)), True
    if m == 2:
        # two single-row classes; optimal unless the grid is K_4
        return [row(1), row(2)], n >= 3
    if m % 2 == 0:
        r = m // 2
        return [row(i) + row(r + i) for i in range(1, r + 1)], True
    r = m // 2
    classes = [row(i) + row(r + 1 + i) for i in range(1, r + 1)]
    classes.append(row(r + 1))
    return classes, True


# -- realisation families ---------------------------------------------------------


def _h_gp_classes(r: int, s: int) -> list[list[int]]:
    X = list(range(r))
    Y = list(range(r, 2 * r))
    z = [2 * r + j for j in range(s + 1)]
    classes = [Y + [z[0]]]
    if s >= 1:
        classes.append(X + [z[1]])
        classes.extend(_pack_pairs(z[2:]))
    else:
        classes.append(X)
    return classes


def _h_mono_classes(r: int, s: int) -> list[list[int]]:
    X = list(range(r))
    Y = list(range(r, 2 * r))
    z = [2 * r + j for j in range(s + 1)]
    pairs = _pack_pairs(X[: r - r % 2]) + _pack_pairs(Y[: r - r % 2])
    if r % 2:
        pairs.append([X[-1], Y[-1]])  # x_r with y_r: same matching index
    k = min(r, s)
    classes = [pairs[i] + [z[s - i]] for i in range(k)]
    leftover_pairs = pairs[k:]
    classes.extend(leftover_pairs)
    classes.extend(_pack_pairs(z[: s - k + 1]))
    return classes


# -- dispatch ----------------------------------------------------------------------


def construct_colouring(
    spec: FamilySpec, kind: PositionKind, limits: Limits = DEFAULT_LIMITS
) -> CertifiedColouring:
    """The paper construction for (family, kind); verified before returning."""
    spec = resolve(spec)
    name = spec.name
    if name == "path" and kind in (PositionKind.GP, PositionKind.MONO):
        n = spec.args[0]
        classes = _pack_pairs(list(range(n)))
        return _certify(generate(spec), classes, kind, "path-pairing", True, limits)
    if name == "cycle":
        n = spec.args[0]
        if kind is PositionKind.GP:
            classes, exact = _cycle_gp_classes(n)
        elif kind is PositionKind.MONO:
            classes, exact = _cycle_mono_classes(n)
        else:
            raise UnsupportedConstruction(f"no cycle construction for {kind.value}")
        return _certify(generate(spec), classes, kind, "cycle-arcs", exact, limits)
    if name == "kneser2" and kind is PositionKind.GP:
        g = generate(spec)  # rejects n < 5 before the pair ids are read
        classes, exact = _kneser_gp_classes(spec.args[0])
        return _certify(g, classes, kind, "kneser-4set-and-stars", exact, limits)
    if name == "line_complete" and kind is PositionKind.GP:
        classes, exact = _line_complete_gp_classes(spec.args[0])
        return _certify(
            generate(spec), classes, kind, "kirkman-triangle-classes", exact, limits
        )
    if name in ("multipartite", "turan") and kind is PositionKind.GP:
        parts = tuple(spec.args) if name == "multipartite" else turan_parts(*spec.args)
        classes, exact = _multipartite_gp_classes(parts)
        return _certify(
            generate(spec), classes, kind, "multipartite-cochromatic", exact, limits
        )
    if name == "turan":
        a, n = spec.args
        if kind in (PositionKind.GP_I, PositionKind.MONO_I, PositionKind.MONO):
            parts = turan_parts(a, n)
            classes = [list(part) for part in part_ranges(parts)]
            exact = kind.independent or multipartite_chi_gp(parts) == a
            return _certify(generate(spec), classes, kind, "turan-partite-sets", exact, limits)
        raise UnsupportedConstruction(f"no turan construction for {kind.value}")
    if name == "h":
        r, s = spec.args
        if kind is PositionKind.GP:
            classes = _h_gp_classes(r, s)
        elif kind is PositionKind.MONO:
            classes = _h_mono_classes(r, s)
        else:
            raise UnsupportedConstruction(f"no H(r,s) construction for {kind.value}")
        return _certify(generate(spec), classes, kind, "h-family-layers", True, limits)
    if name in ("cartesian", "strong"):
        return _construct_product(spec, kind, limits)
    raise UnsupportedConstruction(f"no construction for family {name!r}, kind {kind.value}")


def _construct_product(
    spec: FamilySpec, kind: PositionKind, limits: Limits
) -> CertifiedColouring:
    a, b = spec.args
    kinds = (a.name, b.name)
    if spec.name == "cartesian" and kinds == ("cycle", "cycle") and kind is PositionKind.GP:
        n1, n2 = a.args[0], b.args[0]
        if n1 % 7 or n2 % 7:
            raise UnsupportedConstruction("torus tessellation needs 7 | n1 and 7 | n2")
        classes = _torus_classes(n1, n2)
        _verify_torus_colouring(n1, n2, classes)
        col = Colouring.from_classes(n1 * n2, classes)
        exact = min(n1, n2) >= 49
        return CertifiedColouring(
            col,
            kind,
            True,
            "torus-tessellation (cyclic-metric verified)",
            "exact" if exact else "upper_bound_only",
        )
    if spec.name == "cartesian" and set(kinds) == {"path", "cycle"} and kind is PositionKind.GP:
        if kinds == ("cycle", "path"):
            raise UnsupportedConstruction("write cylinders as cartesian(path:n1,cycle:n2)")
        n1, n2 = a.args[0], b.args[0]
        cells = _cylinder_classes(n1, n2)
        to_id = lambda r, c: (r - 1) * n2 + c
        classes = [[to_id(r, c) for r, c in cls] for cls in cells]
        g = generate(spec)
        return _certify(g, classes, kind, "cylinder-seed-rotation", False, limits)
    if kinds != ("path", "path"):
        raise UnsupportedConstruction(f"no product construction for {kinds}")
    n1, n2 = a.args[0], b.args[0]

    def finish(cells: list[list[Cell]], provenance: str, exact: bool, transposed: bool):
        gspec = spec
        if transposed:
            cells = [[(j, i) for i, j in cls] for cls in cells]
        to_id = _grid_id(n2)
        classes = [[to_id(i, j) for i, j in cls] for cls in cells]
        return _certify(generate(gspec), classes, kind, provenance, exact, limits)

    if spec.name == "strong":
        if kind is PositionKind.GP:
            return finish(_strong_gp_classes(n1, n2), "strong-grid-clique-blocks", False, False)
        if kind is PositionKind.MU:
            m, n, transposed = (n1, n2, False) if n1 <= n2 else (n2, n1, True)
            cells, exact = _strong_mu_classes(m, n)
            return finish(cells, "strong-grid-row-pairing", exact, transposed)
        raise UnsupportedConstruction(f"no strong-grid construction for {kind.value}")
    if kind is not PositionKind.GP:
        raise UnsupportedConstruction(f"no Cartesian-grid construction for {kind.value}")
    for m, n, transposed in ((n1, n2, False), (n2, n1, True)):
        if m == 1:
            cells = _pack_pairs([(1, j) for j in range(1, n + 1)])
            return finish(cells, "path-pairing", True, transposed)
        if m == 2 and n >= 2:
            return finish(_p2_grid_classes(n), "ladder-neighbourhoods", True, transposed)
        if m == 3 and n % 4 == 0:
            cells, exact = _p3_grid_classes(n)
            return finish(cells, "p3-grid-12-period", exact, transposed)
        if m == 4 and n >= 4:
            return finish(_p4_grid_classes(n), "p4-grid-diagonals", True, transposed)
    for m, n, transposed in ((n1, n2, False), (n2, n1, True)):
        if m % 2 == 1 and m >= 3 and n % 4 == 0:
            return finish(_tessellation_classes(m, n), "grid-neighbourhood-tessellation", False, transposed)
    raise UnsupportedConstruction(f"no Cartesian-grid pattern for {n1}x{n2}")


# -- graph-level constructions -------------------------------------------------------


def colour_block_graph_peeling(
    g: Graph, limits: Limits = DEFAULT_LIMITS
) -> CertifiedColouring:
    """Repeatedly strip extreme vertices of a block graph; classes are gp-sets.

    Produces exactly ceil((diam*+1)/2) classes, matching the block-graph
    formula, so the result is exact.
    """
    if not is_block_graph(g):
        raise GraphInputError("peeling colouring requires a block graph")
    alive = list(range(g.n))
    classes: list[list[int]] = []
    while alive:
        sub = induced_subgraph(g, alive)
        ext = extreme_vertices(sub)
        classes.append(sorted(alive[i] for i in ext))
        alive = [v for i, v in enumerate(alive) if i not in ext]
    expected = -(-(diameter(g).diam_star + 1) // 2)
    if g.n and len(classes) != expected:
        raise AssertionError(
            f"peeling produced {len(classes)} classes, expected {expected}"
        )
    return _certify(g, classes, PositionKind.GP, "block-graph-peeling", True, limits)


def colour_by_clique_cover(
    g: Graph, kind: PositionKind = PositionKind.GP, limits: Limits = DEFAULT_LIMITS
) -> CertifiedColouring:
    """Colour with the classes of a minimum clique cover (gp/mono/mu only)."""
    if kind.independent:
        raise GraphInputError("cliques are never independent position sets")
    _, cover = clique_cover(g, limits)
    return _certify(g, cover.classes(), kind, "clique-cover", False, limits)


def colour_by_total_domination(
    g: Graph, limits: Limits = DEFAULT_LIMITS
) -> CertifiedColouring:
    """Cover a diamond-free graph by open neighbourhoods of a minimum
    total dominating set; each vertex joins exactly one covering class."""
    if not is_diamond_free(g):
        raise GraphInputError("total-domination colouring requires a diamond-free graph")
    _, dominators = total_dominating_set(g, limits)
    doms = sorted(dominators)
    classes_map: dict[int, list[int]] = {u: [] for u in doms}
    for v in range(g.n):
        owner = next(u for u in doms if v in g.adj[u])
        classes_map[owner].append(v)
    classes = [cls for cls in classes_map.values() if cls]
    return _certify(g, classes, PositionKind.GP, "total-domination-neighbourhoods", False, limits)
