from __future__ import annotations

import random

import pytest

from poscol.catalogue import graphs_of_order
from poscol.graphs import build_graph, disjoint_union

# Outer 5-cycle 0..4, inner 5-cycle 5..9 (5-6-7-8-9-5), spokes 0-5, 1-8, 2-6, 3-9, 4-7.
PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 6), (6, 7), (7, 8), (8, 9), (9, 5),
    (0, 5), (1, 8), (2, 6), (3, 9), (4, 7),
]

# Optimal colourings of the Petersen graph with the labelling above:
# a 2-class gp-colouring and a 4-class mono-colouring.
PETERSEN_GP_CLASSES = [[0, 2, 3, 5, 7, 8], [1, 4, 6, 9]]
PETERSEN_MONO_CLASSES = [[0, 6, 9], [1, 4, 5], [2, 3], [7, 8]]


@pytest.fixture
def petersen():
    return build_graph(10, PETERSEN_EDGES)


def path(n: int):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(n: int, p: float, rng: random.Random):
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def partitions_descending(n, maximum=None):
    """All partitions of n into parts of at most ``maximum`` (default n), as
    descending tuples, the largest first part first."""
    maximum = maximum or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maximum), 0, -1):
        for tail in partitions_descending(n - first, first):
            yield (first,) + tail


def metric_graphs():
    """n = 0, every catalogue graph of order 1 to 6, and seeded random graphs
    on up to 12 vertices, a third of them disjoint unions."""
    rng = random.Random(11)
    out = [build_graph(0, [])]
    for n in range(1, 7):
        out += graphs_of_order(n)
    for i in range(60):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        if i % 3 == 2:
            g = disjoint_union(g, random_graph(rng.randint(1, 6), rng.random(), rng))
        out.append(g)
    return out
