"""Explicit position colourings from the constructive proofs.

Every construction re-verifies its output before returning; a failed
verification is a construction bug and raises.  Two checks need no graph.
One metric check, :func:`_check_in_line`, hands a closed-form metric to the
collinear-triple test, once per distinct class of points: the gp
constructions on a Cartesian or strong product of two path or cycle factors
(grids, P3/P4 grids, tessellations, cylinders, tori and strong-grid blocks)
give it each class's shape and d1 + d2 or max(d1, d2) of the factor
distances, and the gp classes of K(n,2) and L(K_n) give it their pair labels
and distance 1 or 2; the graph tests pin both metrics against BFS.  The mu
row pairing on a strong grid is checked by bit-parallel king walks.  Every
other construction generates its graph and goes through the position
oracles, which need no all-pairs distance matrix.

The family constructions only build classes.  ``construct_colouring``
resolves the spec first, so malformed arguments raise an input error before
any class is built, and finds the classes before it generates the graph, so
an unsupported (family, kind) pair builds no graph.  It tags a colouring
``exact`` exactly when the proven lower end of
:func:`~poscol.formulas.predicted_chi`, the one owner of the optimality
claims for named families, meets its class count; otherwise it is
``upper_bound_only``.  The graph-level constructions (block-graph peeling,
clique cover, total domination) state their own tags.
"""

from __future__ import annotations

import itertools
import operator

from .errors import DEFAULT_LIMITS, GraphInputError, Limits
from .families import FamilySpec, generate, pair_ids, part_ranges, resolve, turan_parts
from .formulas import multipartite_chi_gp, predicted_chi
from .graphs import Graph, diameter, is_block_graph, is_diamond_free, simplicial_rounds
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


def _cycle_gp_classes(n: int) -> list[list[int]]:
    if n == 3:
        return [[0, 1, 2]]
    if n == 4:
        return [[0, 2], [1, 3]]
    if n == 5:
        return [[0, 2, 3], [1, 4]]
    if n == 8:
        # the generic {i, q+i, 2q+i} template is collinear when q <= n mod 3
        # (only n = 5 and n = 8); use arc gaps (2,3,3) instead
        return [[0, 2, 5], [1, 3, 6], [4, 7]]
    q, r = divmod(n, 3)
    classes = [[i, q + i, 2 * q + i] for i in range(q)]
    if r:
        classes.append(list(range(3 * q, n)))
    return classes


def _cycle_mono_classes(n: int) -> list[list[int]]:
    if n == 3:
        return [[0, 1, 2]]
    return _pack_pairs(list(range(n)))


# -- Kneser and line graphs ----------------------------------------------------


def _kneser_gp_classes(n: int) -> list[list[int]]:
    idx = pair_ids(n)
    first = [idx[p] for p in itertools.combinations(range(1, 5), 2)]
    classes = [first]
    for m in range(5, n + 1):
        classes.append([idx[(a, m)] for a in range(1, m)])
    return classes


def _line_complete_gp_classes(n: int) -> list[list[int]]:
    """Take the Kirkman system of order m, the order = 3 (mod 6) nearest n,
    delete the points past n from its triples, and add the star {a, v : a < v}
    of each point v past m.  For n = 0 (mod 6) the three points past m form a
    triangle in the first class and their stars reach only the first m points:
    n/2 + 1 classes, optimal only for n in {6, 12}."""
    if n >= 19:
        raise UnsupportedConstruction("line_complete construction needs n <= 18")
    idx = pair_ids(n)
    d = (n - 3) % 6
    m = n - d if d <= 3 else n + 6 - d
    classes = [
        [idx[p] for t in cls for p in itertools.combinations(sorted(q for q in t if q <= n), 2)]
        for cls in kirkman_triple_system(m).classes
    ]
    if d == 3:
        classes[0] += [idx[p] for p in itertools.combinations(range(m + 1, n + 1), 2)]
    for v in range(m + 1, n + 1):
        classes.append([idx[(a, v)] for a in range(1, m + 1 if d == 3 else v)])
    return classes


# -- complete multipartite -----------------------------------------------------


def _multipartite_gp_classes(parts: tuple[int, ...]) -> list[list[int]]:
    r = len(parts)
    part_vertices = [list(part) for part in part_ranges(parts)]
    value = multipartite_chi_gp(parts)
    if value == r:
        return part_vertices
    i = next(i for i in range(r) if parts[i] + i == value)  # 0-based split
    classes = [part_vertices[j] for j in range(i)]
    for t in range(parts[i]):
        classes.append([part_vertices[j][t] for j in range(i, r) if parts[j] > t])
    return classes


# -- Cartesian grids -----------------------------------------------------------


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


def _p3_grid_classes(n: int) -> list[list[Cell]]:
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
    return classes


def _p4_grid_classes(n: int) -> list[list[Cell]]:
    classes = [
        [(1, j + 1), (2, j), (3, j + 2), (4, j + 1)] for j in range(1, n - 1)
    ]
    classes.append([(1, 1), (1, n), (2, n - 1)])
    classes.append([(2, n), (3, 1)])
    classes.append([(3, 2), (4, 1), (4, n)])
    return classes


def _tessellation_classes(n1: int, n2: int) -> list[list[Cell]]:
    """Neighbourhood packing for odd n1, 4 | n2; leftovers paired along rows."""
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


# -- closed-form metrics ----------------------------------------------------------


def _check_in_line(classes: list[list[int]], points, dist) -> None:
    """Raise if a class holds three members in line under a closed-form
    metric: ``points(cls)`` gives a class's members as points, ``dist(p, q)``
    their distance.  Classes with equal points share one verdict; each
    point's distance row is packed by distance for
    :func:`~poscol.position.has_collinear_triple`."""
    verdicts: dict[tuple, bool] = {}
    for cls in classes:
        if len(cls) < 3:
            continue
        key = points(cls)
        collinear = verdicts.get(key)
        if collinear is None:
            by_dist = []
            for p in key:
                row = [dist(p, q) for q in key]
                masks = [0] * (max(row) + 1)
                for j, d in enumerate(row):
                    masks[d] |= 1 << j
                by_dist.append(masks)
            collinear = verdicts[key] = has_collinear_triple(
                range(len(key)), lambda a, later: [m & later for m in by_dist[a]], len(key)
            )
        if collinear:
            raise AssertionError(f"class {cls} is not in general position")


def _product_colouring(spec: FamilySpec, classes: list[list[int]]) -> Colouring:
    """gp check of a product of two path or cycle factors by its closed-form metric.

    Vertex v is the cell ``divmod(v, n2)``, the layout of
    :func:`~poscol.graphs.product`.  On a cycle C_n a factor distance is the
    cyclic distance mod n; on a path P_n it is the cyclic distance mod 2n,
    which is |i - j| since no two cells are n or more apart.  A Cartesian
    product adds the two, a strong product takes their max.  The metric
    depends only on the differences between cells, so a class's points are
    its shape, its cells' offsets from its first cell mod each axis's
    modulus, and :func:`_check_in_line` tests each shape once.  No graph is
    built; ``Colouring.from_classes`` checks the partition.
    """
    f1, f2 = spec.args
    n2 = f2.args[0]
    m1, m2 = (f.args[0] if f.name == "cycle" else 2 * f.args[0] for f in (f1, f2))
    combine = max if spec.name == "strong" else operator.add

    def shape(cls: list[int]) -> tuple[Cell, ...]:
        r0, c0 = divmod(cls[0], n2)
        return tuple([((v // n2 - r0) % m1, (v % n2 - c0) % m2) for v in cls])

    def dist(p: Cell, q: Cell) -> int:
        dr, dc = (p[0] - q[0]) % m1, (p[1] - q[1]) % m2
        return combine(min(dr, m1 - dr), min(dc, m2 - dc))

    _check_in_line(classes, shape, dist)
    return Colouring.from_classes(f1.args[0] * n2, classes)


def _pair_colouring(spec: FamilySpec, classes: list[list[int]]) -> Colouring:
    """gp check of K(n,2) or L(K_n) by the metric of the pair labels.

    Vertex v is the v-th 2-subset of [n], as in
    :func:`~poscol.families.pair_ids`, and a class's points are its labels.
    Two pairs are adjacent when they are disjoint in K(n,2), when they meet
    in L(K_n), and at distance 2 otherwise: both graphs have diameter at most
    2 over the arguments ``resolve`` admits (n >= 5 for K(n,2)).  No graph
    is built.
    """
    pairs = list(pair_ids(spec.args[0]))
    disjoint = spec.name == "kneser2"
    _check_in_line(
        classes,
        lambda cls: tuple([pairs[v] for v in cls]),
        lambda p, q: 0 if p == q else 1 if (p[0] in q or p[1] in q) != disjoint else 2,
    )
    return Colouring.from_classes(len(pairs), classes)


def _hides_downwards(rows: int, width: int, cells: list[Cell]) -> bool:
    """True iff two of ``cells`` (0-based row, column) in a strong grid of
    ``width`` columns, the lower at least as many rows down as columns across,
    see each other along no shortest path past the rest.

    The shortest paths between such a pair are the walks that go down one
    row per step and move at most one column.  Every member gets a field of
    ``width`` bits and a zero guard bit, all in one int: ``walk`` holds the
    cells of the current row that a walk from the member reaches through
    non-members, ``cone`` the cells at most as many columns across as rows
    down.  A member of the row in some field's cone that the walk misses is
    hidden from that field's member.
    """
    by_row = [0] * rows
    for r, c in cells:
        by_row[r] |= 1 << c
    column_mask = (1 << width) - 1
    ones = full = walk = cone = shift = 0
    for here in by_row:
        walk = (walk | walk << 1 | walk >> 1) & full
        cone = (cone | cone << 1 | cone >> 1) & full
        members = here * ones
        if members & cone & ~walk:
            return True
        walk &= ~members
        while here:
            low = here & -here
            here ^= low
            walk |= low << shift
            cone |= low << shift
            ones |= 1 << shift
            full |= column_mask << shift
            shift += width + 1
    return False


def _strong_mu_colouring(spec: FamilySpec, classes: list[list[int]]) -> Colouring:
    """mu check of a strong grid P_n1 x P_n2 by row-by-row king walks.

    On the strong grid d = max(|di|, |dj|), so a pair at least as far apart
    in rows as in columns is checked by :func:`_hides_downwards` on the
    cells, and any other pair by the same walk on the transposed cells.
    Vertex v is the cell ``divmod(v, n2)``.  No graph is built.
    """
    n1, n2 = (f.args[0] for f in spec.args)
    for cls in classes:
        cells = [divmod(v, n2) for v in cls]
        if _hides_downwards(n1, n2, cells) or _hides_downwards(n2, n1, [(c, r) for r, c in cells]):
            raise AssertionError(f"strong-grid class {cls} is not a mutual-visibility set")
    return Colouring.from_classes(n1 * n2, classes)


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


def _strong_mu_classes(m: int, n: int) -> list[list[Cell]]:
    def row(i: int) -> list[Cell]:
        return [(i, j) for j in range(1, n + 1)]

    if m == 1:
        # a path: its mu-sets have at most two vertices
        return _pack_pairs(row(1))
    if m == 2:
        # two single-row classes; optimal unless the grid is K_4
        return [row(1), row(2)]
    if m % 2 == 0:
        r = m // 2
        return [row(i) + row(r + i) for i in range(1, r + 1)]
    r = m // 2
    classes = [row(i) + row(r + 1 + i) for i in range(1, r + 1)]
    classes.append(row(r + 1))
    return classes


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


# the checks that need no graph, by (family, kind); _product_classes only
# builds gp classes on path and cycle factors and mu classes on path factors
_CLOSED_FORM = {
    ("cartesian", PositionKind.GP): _product_colouring,
    ("strong", PositionKind.GP): _product_colouring,
    ("strong", PositionKind.MU): _strong_mu_colouring,
    ("kneser2", PositionKind.GP): _pair_colouring,
    ("line_complete", PositionKind.GP): _pair_colouring,
}


def construct_colouring(
    spec: FamilySpec, kind: PositionKind, limits: Limits = DEFAULT_LIMITS
) -> CertifiedColouring:
    """The paper construction for (family, kind); verified before returning.

    ``resolve`` checks the arguments, so malformed ones raise
    :class:`~poscol.errors.GraphInputError`; then the classes are built, so a
    pair with no construction raises :class:`UnsupportedConstruction` before
    the graph is generated.  Only the pairs without a closed-form check in
    ``_CLOSED_FORM`` generate their graph: the gp products
    (:func:`_product_colouring`) and the gp classes of ``kneser2`` and
    ``line_complete`` (:func:`_pair_colouring`), which share the one metric
    check :func:`_check_in_line`, and the mu strong grids
    (:func:`_strong_mu_colouring`) never do.  The colouring is ``exact``
    exactly when the lower end of :func:`~poscol.formulas.predicted_chi`
    meets its class count.
    """
    spec = resolve(spec)
    classes, provenance = _family_classes(spec, kind)
    exact = predicted_chi(spec, kind).low == len(classes)
    check = _CLOSED_FORM.get((spec.name, kind))
    if check is None:
        return _certify(generate(spec), classes, kind, provenance, exact, limits)
    return CertifiedColouring(
        check(spec, classes), kind, True, provenance, "exact" if exact else "upper_bound_only"
    )


def _family_classes(spec: FamilySpec, kind: PositionKind) -> tuple[list[list[int]], str]:
    """The classes of the construction for a resolved spec, and their provenance."""
    name, args = spec.name, spec.args
    K = PositionKind
    if name == "path" and kind in (K.GP, K.MONO):
        return _pack_pairs(list(range(args[0]))), "path-pairing"
    if name == "cycle" and kind in (K.GP, K.MONO):
        make = _cycle_gp_classes if kind is K.GP else _cycle_mono_classes
        return make(args[0]), "cycle-arcs"
    if name == "kneser2" and kind is K.GP:
        return _kneser_gp_classes(args[0]), "kneser-4set-and-stars"
    if name == "line_complete" and kind is K.GP:
        return _line_complete_gp_classes(args[0]), "kirkman-triangle-classes"
    if name in ("multipartite", "turan"):
        parts = tuple(args) if name == "multipartite" else turan_parts(*args)
        if kind is K.GP:
            return _multipartite_gp_classes(parts), "multipartite-cochromatic"
        if name == "turan" and kind in (K.GP_I, K.MONO_I, K.MONO):
            return [list(part) for part in part_ranges(parts)], "turan-partite-sets"
    if name == "h" and kind in (K.GP, K.MONO):
        make = _h_gp_classes if kind is K.GP else _h_mono_classes
        return make(*args), "h-family-layers"
    if name in ("cartesian", "strong"):
        return _product_classes(spec, kind)
    raise UnsupportedConstruction(f"no construction for family {name!r}, kind {kind.value}")


def _product_classes(spec: FamilySpec, kind: PositionKind) -> tuple[list[list[int]], str]:
    a, b = spec.args
    kinds = (a.name, b.name)
    if spec.name == "cartesian" and kinds == ("cycle", "cycle") and kind is PositionKind.GP:
        n1, n2 = a.args[0], b.args[0]
        if n1 % 7 or n2 % 7:
            raise UnsupportedConstruction("torus tessellation needs 7 | n1 and 7 | n2")
        return _torus_classes(n1, n2), "torus-tessellation (cyclic-metric verified)"
    if spec.name == "cartesian" and set(kinds) == {"path", "cycle"} and kind is PositionKind.GP:
        if kinds == ("cycle", "path"):
            raise UnsupportedConstruction("write cylinders as cartesian(path:n1,cycle:n2)")
        n1, n2 = a.args[0], b.args[0]
        cells = _cylinder_classes(n1, n2)
        return [[(r - 1) * n2 + c for r, c in cls] for cls in cells], "cylinder-seed-rotation"
    if kinds != ("path", "path"):
        raise UnsupportedConstruction(f"no product construction for {kinds}")
    n1, n2 = a.args[0], b.args[0]

    def finish(cells: list[list[Cell]], provenance: str, transposed: bool):
        if transposed:
            cells = [[(j, i) for i, j in cls] for cls in cells]
        # 1-based paper coordinates
        return [[(i - 1) * n2 + j - 1 for i, j in cls] for cls in cells], provenance

    if spec.name == "strong":
        if kind is PositionKind.GP:
            return finish(_strong_gp_classes(n1, n2), "strong-grid-clique-blocks", False)
        if kind is PositionKind.MU:
            m, n, transposed = (n1, n2, False) if n1 <= n2 else (n2, n1, True)
            return finish(_strong_mu_classes(m, n), "strong-grid-row-pairing", transposed)
        raise UnsupportedConstruction(f"no strong-grid construction for {kind.value}")
    if kind is not PositionKind.GP:
        raise UnsupportedConstruction(f"no Cartesian-grid construction for {kind.value}")
    for m, n, transposed in ((n1, n2, False), (n2, n1, True)):
        if m == 1:
            cells = _pack_pairs([(1, j) for j in range(1, n + 1)])
            return finish(cells, "path-pairing", transposed)
        if m == 2 and n >= 2:
            return finish(_p2_grid_classes(n), "ladder-neighbourhoods", transposed)
        if m == 3 and n % 4 == 0:
            return finish(_p3_grid_classes(n), "p3-grid-12-period", transposed)
        if m == 4 and n >= 4:
            return finish(_p4_grid_classes(n), "p4-grid-diagonals", transposed)
    for m, n, transposed in ((n1, n2, False), (n2, n1, True)):
        if m % 2 == 1 and m >= 3 and n % 4 == 0:
            return finish(_tessellation_classes(m, n), "grid-neighbourhood-tessellation", transposed)
    raise UnsupportedConstruction(f"no Cartesian-grid pattern for {n1}x{n2}")


# -- graph-level constructions -------------------------------------------------------


def colour_block_graph_peeling(
    g: Graph, limits: Limits = DEFAULT_LIMITS
) -> CertifiedColouring:
    """Strip the extreme (simplicial) vertices of a block graph round by round;
    each round of :func:`simplicial_rounds` is one class, and a gp-set.

    Produces exactly ceil((diam*+1)/2) classes, matching the block-graph
    formula, so the result is exact.
    """
    if not is_block_graph(g):
        raise GraphInputError("peeling colouring requires a block graph")
    classes = [[v for v in range(g.n) if strip >> v & 1] for strip in simplicial_rounds(g)]
    expected = -(-(diameter(g) + 1) // 2)
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
    total dominating set; each vertex joins exactly one covering class.  Cliques
    qualify: a collinear x, y, z in N(u) has d(x, z) = 2, so u, x, y, z would
    induce a diamond (K4 minus an edge), and each class is a gp-set."""
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
