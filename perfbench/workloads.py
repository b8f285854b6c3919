"""The benchmark's four workloads: pinned inputs in an order made from the
seed, one operation per input, and the check that each result is right.

Every operation makes the same library calls as the matching CLI command and
builds its own ``Graph``, so no memo or distance cache carries over between
operations or passes (CLI users pay those costs on every run):

* compute   -- ``graph6_decode`` or ``generate``, then ``chromatic_position_number``
* reduce    -- ``check_equivalence``
* construct -- ``parse_family``, ``construct_colouring``, then ``predicted_chi``

Workloads and the layer each one loads:

catalogue-sweep
    All 1044 graphs of order 7 x six kinds = 6264 tiny solves.  Fixed
    per-solve costs dominate: decode, BFS, the cheap lower bounds, greedy and
    verification.  This is the traffic of ``pos suite ng-check`` and of the
    exhaustive tests.  The partition search does little here.
hard-solves
    Six solves of about a second each.  The gp grids live in the partition
    search (``SetState.try_add``), the mu cases in ``position_number`` (the
    bound phase), the mono cases in the induced-path oracle.  Decode and BFS
    are negligible.
nae-reduction
    Fourteen NAE3-SAT instances (p in {5, 6}, q in 10..16, nine satisfiable),
    each checked by ``check_equivalence``: a k = 3 feasibility search that
    finds or refutes a gp-colouring of a diameter-2 gadget graph.  Large
    classes make ``SetState``'s gp check dominate; ``position_number`` runs
    only when the quick search blows its node budget.
constructions
    Eight paper constructions, up to n = 9604.  No search nodes at all: the
    time goes to ``families.generate``, BFS at n = 300..900 and one-shot
    verification by ``is_position_set``.  A change to the search core should
    show no change here.

What the seed does: it shuffles the order of the operations.  The inputs
themselves are fixed, and pinned, because the solvers' search order follows
the vertex labels: on a 2-core x86 container, drawing fresh NAE instances
or relabelling fixed ones by the seed spread the nae-reduction pass time by
about 25% between seeds (interquartile range over median), and relabelling
the two random graphs of hard-solves spread its median op latency by 17%;
either is wider than a regression bound can be.

Cases left out on purpose:

* ``pos compute`` on ``petersen`` and ``cycle:18``, per kind: 20 ms or less
  each, so their timings would be mostly noise.
* mu on ``strong(path:5,path:6)``: 13 s, with the same bound-dominated
  profile as mu on ``kneser2:7``.
* mono on ``random:40,0.15,3``: more than 60 s.

Pinned values live in ``expected.json``, measured at the commit that added
the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")
WORKLOADS = ("catalogue-sweep", "hard-solves", "nae-reduction", "constructions")


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the result is right, else the reason.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def build(name: str, seed: int, pc) -> list[Op]:
    """The operations of workload ``name`` for ``seed``; ``pc`` is the poscol package."""
    expected = json.loads(EXPECTED_PATH.read_text())
    limits = pc.Limits(node_limit=None, time_limit=None)
    ops = _BUILDERS[name](pc, expected, limits)
    random.Random(seed).shuffle(ops)
    return ops


# -- compute ---------------------------------------------------------------------


def _compute_op(pc, label, make_graph, kind, chi, limits) -> Op:
    verified: set[tuple[int, ...]] = set()

    def run():
        return pc.chromatic_position_number(make_graph(), kind, limits)

    def check(res) -> str | None:
        if res.optimality != "exact":
            return f"optimality {res.optimality}"
        if res.k != chi:
            return f"chi {res.k}, pinned {chi}"
        assignment = res.colouring.assignment
        if assignment not in verified:
            if not pc.verify_colouring(make_graph(), res.colouring, kind, limits):
                return "colouring fails verify_colouring"
            verified.add(assignment)
        return None

    return Op(label, run, check)


def _catalogue_sweep(pc, expected, limits) -> list[Op]:
    pinned = expected["catalogue7"]
    values = pinned["values"]
    sums = [sum(int(row[j]) for row in values) for j in range(len(pinned["kinds"]))]
    digest = hashlib.sha256("".join(values).encode()).hexdigest()
    if sums != pinned["kind_sums"] or digest != pinned["sha256"]:
        raise ValueError("expected.json: catalogue7 values disagree with their sums or digest")
    lines = importlib.import_module("poscol.catalogue").catalogue_lines(7)
    if len(lines) != len(values):
        raise ValueError(f"catalogue has {len(lines)} order-7 graphs, pinned {len(values)}")
    kinds = [pc.parse_kind(k) for k in pinned["kinds"]]
    return [
        _compute_op(
            pc,
            f"graphs7[{i}] {kind.value}",
            lambda line=line: pc.graph6_decode(line),
            kind,
            int(values[i][j]),
            limits,
        )
        for i, line in enumerate(lines)
        for j, kind in enumerate(kinds)
    ]


def _hard_solves(pc, expected, limits) -> list[Op]:
    ops = []
    for case in expected["hard-solves"]:
        spec, kind = case["spec"], pc.parse_kind(case["kind"])
        if "graph6" in case:
            make_graph = lambda line=case["graph6"]: pc.graph6_decode(line)
        else:
            make_graph = lambda spec=spec: pc.generate(pc.parse_family(spec))
        ops.append(_compute_op(pc, f"{spec} {kind.value}", make_graph, kind, case["chi"], limits))
    return ops


# -- reduce ----------------------------------------------------------------------


def _reduce_op(pc, label, inst, sat, limits) -> Op:
    reduction = importlib.import_module("poscol.reduction")
    gp = pc.PositionKind.GP
    verified: set[tuple[int, ...]] = set()

    def run():
        return pc.check_equivalence(inst, limits)

    def check(rep) -> str | None:
        if not rep.agree:
            return "NAE brute force and gp-colouring search disagree"
        if rep.nae_satisfiable != sat:
            return f"satisfiable {rep.nae_satisfiable}, pinned {sat}"
        if not sat:
            return "a gp 3-colouring of an unsatisfiable instance" if rep.gp_three_colourable else None
        norm = pc.normalize(inst)
        for assignment in (rep.assignment, rep.assignment_from_colouring):
            if assignment is None or not reduction.nae_satisfies(norm, assignment):
                return "certificate is not a NAE assignment"
        colouring = rep.colouring_from_assignment
        if colouring.assignment not in verified:
            if not pc.verify_colouring(pc.build_reduction(norm).graph, colouring, gp, limits):
                return "recipe colouring fails verify_colouring"
            verified.add(colouring.assignment)
        return None

    return Op(label, run, check)


def _nae_reduction(pc, expected, limits) -> list[Op]:
    return [
        _reduce_op(
            pc,
            f"nae p={case['p']} q={len(case['clauses'])} #{i}",
            pc.NaeInstance(case["p"], tuple(tuple(c) for c in case["clauses"])),
            case["sat"],
            limits,
        )
        for i, case in enumerate(expected["nae-reduction"])
    ]


# -- construct -------------------------------------------------------------------


def _torus_gp_ok(n1: int, n2: int, colouring) -> bool:
    """gp check of a C_n1 x C_n2 colouring with the closed-form torus metric.

    A BFS distance matrix for n = 9604 would need about 740 MB, so the
    torus is checked with d = cyc(dr) + cyc(dc) instead.
    """
    if len(colouring.assignment) != n1 * n2:
        return False

    def d(a, b) -> int:
        dr, dc = (a[0] - b[0]) % n1, (a[1] - b[1]) % n2
        return min(dr, n1 - dr) + min(dc, n2 - dc)

    for cls in colouring.classes():
        if not cls:
            return False
        cells = [divmod(v, n2) for v in cls]
        for a, b in itertools.combinations(cells, 2):
            dab = d(a, b)
            if any(d(a, w) + d(w, b) == dab for w in cells if w != a and w != b):
                return False
    return True


def _construct_op(pc, case, limits) -> Op:
    spec_text, kind = case["spec"], pc.parse_kind(case["kind"])
    pinned = (case["k"], case["provenance"], case["optimality"], tuple(case["prediction"]))
    verified: set[tuple[int, ...]] = set()

    def run():
        spec = pc.parse_family(spec_text)
        return pc.construct_colouring(spec, kind, limits), pc.predicted_chi(spec, kind)

    def check(res) -> str | None:
        cert, pred = res
        got = (cert.k, cert.provenance, cert.optimality, (pred.status, pred.low, pred.high))
        if got != pinned:
            return f"got {got}, pinned {pinned}"
        colouring = cert.colouring
        if colouring.assignment not in verified:
            spec = pc.parse_family(spec_text)
            if spec.name == "cartesian" and [a.name for a in spec.args] == ["cycle", "cycle"]:
                ok = _torus_gp_ok(spec.args[0].args[0], spec.args[1].args[0], colouring)
            else:
                ok = pc.verify_colouring(pc.generate(spec), colouring, kind, limits)
            if not ok:
                return "colouring fails verification"
            verified.add(colouring.assignment)
        return None

    return Op(f"{spec_text} {kind.value}", run, check)


def _constructions(pc, expected, limits) -> list[Op]:
    return [_construct_op(pc, case, limits) for case in expected["constructions"]]


_BUILDERS = {
    "catalogue-sweep": _catalogue_sweep,
    "hard-solves": _hard_solves,
    "nae-reduction": _nae_reduction,
    "constructions": _constructions,
}
