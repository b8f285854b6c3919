"""Kirkman (resolvable Steiner) triple systems on 3, 9 and 15 points.

A system on n points is a set of triples covering every unordered pair
exactly once, arranged into (n-1)/2 parallel classes that each partition the
point set.  Both larger systems are constant data: n = 9 is the
lexicographically least system (parallel classes chosen in lexicographic
order), n = 15 the classical schoolgirl arrangement.  Every system is
audited before it is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GraphInputError

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class TripleSystem:
    """Parallel classes of disjoint triples on points 1..n."""

    n: int
    classes: tuple[tuple[Triple, ...], ...]

    def to_dict(self) -> dict:
        return {"n": self.n, "classes": [[list(t) for t in cls] for cls in self.classes]}


def audit_triple_system(ts: TripleSystem) -> None:
    """Raise unless every pair is covered exactly once and classes resolve."""
    if len(ts.classes) != (ts.n - 1) // 2:
        raise AssertionError("wrong number of parallel classes")
    seen_pairs: set[tuple[int, int]] = set()
    for cls in ts.classes:
        points = [p for t in cls for p in t]
        if sorted(points) != list(range(1, ts.n + 1)):
            raise AssertionError("a class does not partition the points")
        for t in cls:
            for a, b in itertools.combinations(sorted(t), 2):
                if (a, b) in seen_pairs:
                    raise AssertionError(f"pair {(a, b)} covered twice")
                seen_pairs.add((a, b))
    if len(seen_pairs) != ts.n * (ts.n - 1) // 2:
        raise AssertionError("not all pairs covered")


# The lexicographically least system on 9 points (the affine plane AG(2, 3)).
_KTS9 = (
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    ((1, 4, 7), (2, 5, 8), (3, 6, 9)),
    ((1, 5, 9), (2, 6, 7), (3, 4, 8)),
    ((1, 6, 8), (2, 4, 9), (3, 5, 7)),
)

# Classical 15-point schoolgirl arrangement (seven days of five rows).
_KTS15 = (
    ((1, 2, 3), (4, 8, 12), (5, 10, 15), (6, 11, 13), (7, 9, 14)),
    ((1, 4, 5), (2, 8, 10), (3, 13, 14), (6, 9, 15), (7, 11, 12)),
    ((1, 6, 7), (2, 9, 11), (3, 12, 15), (4, 10, 14), (5, 8, 13)),
    ((1, 8, 9), (2, 12, 14), (3, 5, 6), (4, 11, 15), (7, 10, 13)),
    ((1, 10, 11), (2, 13, 15), (3, 4, 7), (5, 9, 12), (6, 8, 14)),
    ((1, 12, 13), (2, 4, 6), (3, 9, 10), (5, 11, 14), (7, 8, 15)),
    ((1, 14, 15), (2, 5, 7), (3, 8, 11), (4, 9, 13), (6, 10, 12)),
)


def kirkman_triple_system(n: int) -> TripleSystem:
    """A Kirkman triple system on n points for n in {3, 9, 15}."""
    if n == 3:
        ts = TripleSystem(3, (((1, 2, 3),),))
    elif n == 9:
        ts = TripleSystem(9, _KTS9)
    elif n == 15:
        ts = TripleSystem(15, _KTS15)
    else:
        raise GraphInputError(f"Kirkman triple systems supported for n in 3,9,15, not {n}")
    audit_triple_system(ts)
    return ts
