"""Executable NAE3-SAT <-> gp-colouring reduction with certificate transport.

Literals are DIMACS-style signed integers (variable ids are 1-based,
negative means negated).  The gadget graph for a normalized instance with p
variables and q clauses has one complete-bipartite block K_{q,q} per
variable (positive vertices u_{ij} against negated vertices nu_{ij}), one
P3 on the literal vertices of each clause, and two non-adjacent hub
vertices y, z joined to everything else; its order is 2pq + 2 and its
diameter is 2.  The instance is NAE-satisfiable exactly when the gadget
admits a gp-colouring with three colours.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_LIMITS, GraphInputError, Limits
from .graphs import Graph, build_graph
from .position import PositionKind
from .solver import Colouring, feasible_position_colouring, verify_colouring

Clause = tuple[int, int, int]
Assignment = tuple[bool, ...]


@dataclass(frozen=True)
class NaeInstance:
    """A not-all-equal 3-SAT instance over variables 1..p."""

    p: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.p < 0:
            raise GraphInputError(f"variable count {self.p} is negative")
        for clause in self.clauses:
            if len(clause) != 3:
                raise GraphInputError(f"clause {clause} does not have three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.p:
                    raise GraphInputError(f"literal {lit} out of range for p={self.p}")

    @property
    def q(self) -> int:
        return len(self.clauses)


class TriviallyNo:
    """Normalization certificate: some clause can never be not-all-equal."""

    def __repr__(self) -> str:  # pragma: no cover
        return "TriviallyNo"


TRIVIALLY_NO = TriviallyNo()


def nae_satisfies(inst: NaeInstance, assignment: Assignment) -> bool:
    if len(assignment) != inst.p:
        raise GraphInputError("assignment length must equal variable count")

    def val(lit: int) -> bool:
        v = assignment[abs(lit) - 1]
        return v if lit > 0 else not v

    return all(len({val(l) for l in clause}) == 2 for clause in inst.clauses)


def normalize(raw: NaeInstance) -> NaeInstance | TriviallyNo:
    """Clean a raw instance into the canonical shape the reduction expects.

    Both-polarity clauses are always not-all-equal and get dropped; a clause
    repeating one literal three times forces all-equal, so the instance is a
    No; a clause with a doubled literal is split into two clauses over a
    fresh variable.  If fewer than three clauses survive, clauses are
    repeated (or a fresh always-satisfiable clause added when none remain) to
    reach three; every step preserves satisfiability.
    """
    next_var = raw.p + 1
    clauses: list[Clause] = []
    for clause in raw.clauses:
        variables = {abs(l) for l in clause}
        if any(-l in clause for l in clause):
            continue
        if len(variables) == 1:
            return TRIVIALLY_NO
        if len(variables) == 2:
            doubled = next(l for l in clause if clause.count(l) == 2)
            other = next(l for l in clause if abs(l) != abs(doubled))
            clauses.append((doubled, other, next_var))
            clauses.append((doubled, other, -next_var))
            next_var += 1
        else:
            clauses.append(clause)
    if not clauses:
        # vacuously satisfiable; encode as an always-satisfiable fresh clause
        a = next_var
        clauses = [(a, a + 1, a + 2)]
        next_var += 3
    base_len = len(clauses)
    while len(clauses) < 3:
        clauses.append(clauses[len(clauses) % base_len])
    p = max(next_var - 1, max(abs(l) for c in clauses for l in c))
    return NaeInstance(p, tuple(clauses))


def is_normalized(inst: NaeInstance) -> bool:
    return inst.q >= 3 and all(
        len({abs(l) for l in clause}) == 3 for clause in inst.clauses
    )


# -- gadget construction ---------------------------------------------------------


@dataclass(frozen=True)
class ReductionGraph:
    """Gadget graph plus the vertex-role map used to translate certificates."""

    graph: Graph
    roles: tuple[tuple, ...]
    instance: NaeInstance

    @property
    def y(self) -> int:
        return self.graph.n - 2

    @property
    def z(self) -> int:
        return self.graph.n - 1

    def literal_vertex(self, lit: int, clause_index: int) -> int:
        return _literal_vertex(self.instance.q, lit, clause_index)


def build_reduction(inst: NaeInstance) -> ReductionGraph:
    """The gadget graph of a normalized instance (order 2pq + 2, diameter 2)."""
    if not is_normalized(inst):
        raise GraphInputError("build_reduction requires a normalized instance")
    p, q = inst.p, inst.q
    n = 2 * p * q + 2
    y, z = n - 2, n - 1
    roles: list[tuple] = []
    edges: list[tuple[int, int]] = []
    for i in range(1, p + 1):
        base = (i - 1) * 2 * q
        roles += [("u", i, j) for j in range(q)]
        roles += [("nu", i, j) for j in range(q)]
        edges += [
            (base + a, base + q + b) for a in range(q) for b in range(q)
        ]
    roles += [("y",), ("z",)]
    for j, clause in enumerate(inst.clauses):
        v1, v2, v3 = (_literal_vertex(q, lit, j) for lit in clause)
        edges += [(v1, v2), (v2, v3)]
    edges += [(y, v) for v in range(2 * p * q)]
    edges += [(z, v) for v in range(2 * p * q)]
    graph = build_graph(n, edges, labels=roles)
    return ReductionGraph(graph, tuple(roles), inst)


def _literal_vertex(q: int, lit: int, clause_index: int) -> int:
    """Vertex of ``lit`` in clause ``clause_index``: u_{i,j} if positive, else nu_{i,j}."""
    base = (abs(lit) - 1) * 2 * q
    return base + (clause_index if lit > 0 else q + clause_index)


# -- certificate translation ------------------------------------------------------


def assignment_to_colouring(
    inst: NaeInstance, rg: ReductionGraph, assignment: Assignment
) -> Colouring:
    """Three classes: true-side vertices, false-side vertices, and {y, z}."""
    if len(assignment) != inst.p:
        raise GraphInputError("assignment must cover all variables")
    q = inst.q
    assign = []
    for i in range(1, inst.p + 1):
        truthy = 0 if assignment[i - 1] else 1
        assign += [truthy] * q + [1 - truthy] * q
    assign += [2, 2]  # y, z
    return Colouring(tuple(assign), 3)


def colouring_to_assignment(
    rg: ReductionGraph, c: Colouring, limits: Limits = DEFAULT_LIMITS
) -> Assignment:
    """Read a satisfying assignment back out of a 3-class gp-colouring."""
    if c.k > 3:
        raise GraphInputError("certificate translation needs at most three classes")
    if not verify_colouring(rg.graph, c, PositionKind.GP, limits):
        raise GraphInputError("colouring_to_assignment requires a verified gp-colouring")
    return _read_assignment(rg, c)


def _read_assignment(rg: ReductionGraph, c: Colouring) -> Assignment:
    """The assignment a verified gp-colouring with at most three classes encodes."""
    inst, q = rg.instance, rg.instance.q
    hub = c.assignment[rg.y]
    if c.assignment[rg.z] != hub or any(
        c.assignment[v] == hub for v in range(2 * inst.p * q)
    ):
        raise AssertionError("hub class is not exactly {y, z}: contradicts the reduction")
    green = c.assignment[0]  # class of u_{1,1}; the complement choice also works
    values = []
    for i in range(1, inst.p + 1):
        base = (i - 1) * 2 * q
        u_classes = {c.assignment[base + j] for j in range(q)}
        nu_classes = {c.assignment[base + q + j] for j in range(q)}
        if len(u_classes) != 1 or len(nu_classes) != 1 or u_classes == nu_classes:
            raise AssertionError("variable block is not two-sided: contradicts the reduction")
        values.append(u_classes.pop() == green)
    assignment = tuple(values)
    if not nae_satisfies(inst, assignment):
        raise AssertionError("extracted assignment fails a clause: contradicts the reduction")
    return assignment


# -- oracles and the end-to-end check ----------------------------------------------


def nae_brute_force(inst: NaeInstance) -> Assignment | None:
    """Lexicographically least satisfying assignment (False < True), or None."""
    if inst.p > 24:
        raise GraphInputError("brute force capped at 24 variables")
    for m in range(1 << inst.p):
        assignment = tuple(bool(m >> (inst.p - i) & 1) for i in range(1, inst.p + 1))
        if nae_satisfies(inst, assignment):
            return assignment
    return None


@dataclass(frozen=True)
class EquivalenceReport:
    trivially_no: bool
    nae_satisfiable: bool
    gp_three_colourable: bool | None
    agree: bool
    assignment: Assignment | None
    colouring_from_assignment: Colouring | None
    assignment_from_colouring: Assignment | None

    def to_dict(self) -> dict:
        return {
            "trivially_no": self.trivially_no,
            "nae_satisfiable": self.nae_satisfiable,
            "gp_three_colourable": self.gp_three_colourable,
            "agree": self.agree,
            "assignment": list(self.assignment) if self.assignment else None,
            "assignment_from_colouring": (
                list(self.assignment_from_colouring)
                if self.assignment_from_colouring
                else None
            ),
        }


def check_equivalence(
    inst: NaeInstance, limits: Limits = DEFAULT_LIMITS
) -> EquivalenceReport:
    """Run both oracles and translate certificates in whichever directions exist.

    One verification per partition: a recipe colouring with the classes of the
    solver colouring has the verdict ``feasible_position_colouring`` gave it."""
    norm = normalize(inst)
    if isinstance(norm, TriviallyNo):
        return EquivalenceReport(True, False, None, True, None, None, None)
    assignment = nae_brute_force(norm)
    rg = build_reduction(norm)
    colouring = feasible_position_colouring(rg.graph, PositionKind.GP, 3, limits)
    agree = (assignment is not None) == (colouring is not None)
    forward = backward = None
    if assignment is not None:
        forward = assignment_to_colouring(norm, rg, assignment)
        same = colouring is not None and sorted(forward.classes()) == sorted(colouring.classes())
        if not same and not verify_colouring(rg.graph, forward, PositionKind.GP, limits):
            raise AssertionError("recipe colouring failed verification")
    if colouring is not None:
        # feasible_position_colouring returns only verified colourings
        backward = _read_assignment(rg, colouring)
    return EquivalenceReport(
        False, assignment is not None, colouring is not None, agree,
        assignment, forward, backward,
    )


# -- text formats --------------------------------------------------------------------


def _ints(tokens: list[str], line: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise GraphInputError(f"non-integer token in {line!r}") from None


def parse_cnf(text: str) -> NaeInstance:
    """DIMACS-like input: header ``p nae3 <vars> <clauses>``, one clause per line."""
    p = None
    q = None
    clauses: list[Clause] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "nae3":
                raise GraphInputError(f"bad header {line!r}")
            p, q = _ints(parts[2:], line)
            continue
        tokens = _ints(line.split(), line)
        if tokens and tokens[-1] == 0:
            tokens.pop()
        if len(tokens) != 3:
            raise GraphInputError(f"clause line {line!r} does not have three literals")
        clauses.append(tuple(tokens))  # type: ignore[arg-type]
    if p is None:
        raise GraphInputError("missing 'p nae3' header")
    if q != len(clauses):
        raise GraphInputError(f"header promises {q} clauses, found {len(clauses)}")
    return NaeInstance(p, tuple(clauses))


def write_cnf(inst: NaeInstance) -> str:
    lines = [f"p nae3 {inst.p} {inst.q}"]
    lines += [" ".join(str(l) for l in clause) for clause in inst.clauses]
    return "\n".join(lines) + "\n"


def random_nae_instance(p: int, q: int, seed: int) -> NaeInstance:
    """Seeded normalized instance: q clauses over three distinct variables each."""
    import random as _random

    if p < 3:
        raise GraphInputError("random instances need p >= 3")
    rng = _random.Random(seed)
    clauses = []
    for _ in range(q):
        variables = rng.sample(range(1, p + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return NaeInstance(p, tuple(clauses))
