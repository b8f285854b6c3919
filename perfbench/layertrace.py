"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds, in the running process only, every attribute of
every loaded ``poscol`` module that refers to a traced function, so a call
through ``poscol.solver.position_number`` is caught as well as one through
``poscol.position.position_number``.  ``uninstall`` puts the originals back.
``src/poscol`` itself is never edited.

Layer functions get spans (name, start, end, parent, op id), kept in memory.
The hot calls -- ``SetState.try_add``, ``exists_induced_path_through`` and
``BudgetTicker.tick`` -- get counters instead, so span memory stays bounded.
A tick adds one search node to the innermost open span.  ``distance_matrix``
opens a span only when it computes the BFS matrix, not on cache hits.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# module -> functions that get a span
SPANNED = {
    "graph6": ("graph6_decode",),
    "families": ("generate",),
    "graphs": ("monophonic_diameter",),
    "position": ("position_number", "is_position_set"),
    "solver": (
        "chromatic_position_number",
        "chromatic_number",
        "greedy_position_colouring",
        "verify_colouring",
        "feasible_position_colouring",
    ),
    "constructions": ("construct_colouring",),
    "formulas": ("predicted_chi",),
    "reduction": ("check_equivalence", "nae_brute_force", "build_reduction", "colouring_to_assignment"),
}

# spans whose time, inside chromatic_position_number, is bound computation
BOUND_SPANS = ("position.position_number", "solver.chromatic_number", "graphs.monophonic_diameter")
SOLVE_SPAN = "solver.chromatic_position_number"

SELF_S = (
    "graph6.graph6_decode",
    "families.generate",
    "graphs.distance_matrix",
    "graphs.monophonic_diameter",
    "position.position_number",
    "position.is_position_set",
    "solver.chromatic_position_number",
    "solver.chromatic_number",
    "solver.greedy_position_colouring",
    "solver.verify_colouring",
    "solver.feasible_position_colouring",
    "constructions.construct_colouring",
    "formulas.predicted_chi",
    "reduction.nae_brute_force",
    "reduction.build_reduction",
    "reduction.colouring_to_assignment",
)
CALLS = ("graphs.monophonic_diameter", "position.position_number", "position.is_position_set")
NODES = (
    "position.position_number",
    "solver.chromatic_position_number",
    "solver.chromatic_number",
    "solver.feasible_position_colouring",
)

# per-layer metric name -> unit; the counts are the program's own
# deterministic work, so they repeat exactly between runs of one seed
METRICS = {f"{name}.self_s": "s" for name in SELF_S}
METRICS.update({f"{name}.calls": "count" for name in CALLS})
METRICS.update({f"{name}.nodes": "count" for name in NODES})
METRICS.update(
    {
        "graphs.distance_matrix.computes": "count",
        "position.SetState.try_add.calls": "count",
        "position.SetState.try_add.accept_ratio": "ratio",
        "position.exists_induced_path_through.calls": "count",
        "position.exists_induced_path_through.searches": "count",
        "position.exists_induced_path_through.hit_ratio": "ratio",
        "solver.bound_share": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)
DETERMINISTIC = tuple(
    name for name, unit in METRICS.items() if unit == "count" or name.endswith(("accept_ratio", "hit_ratio"))
)


class Tracer:
    """Span recorder for one traced pass; call ``reset`` before each pass."""

    def __init__(self, pc):
        self.pc = pc
        self._saved: list[tuple[object, str, object]] = []
        # span = [name, start, end, parent index, op id, nodes, child time]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(("try_add", "try_add_ok", "induced", "induced_searches"), 0)
        self.op_id = -1

    def reset(self) -> None:
        """Forget the previous pass; the installed wrappers keep these objects."""
        self.spans.clear()
        self.stack.clear()
        self.counts.update(dict.fromkeys(self.counts, 0))
        self.op_id = -1

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, 0, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][6] += span[2] - span[1]

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the program out of the open span's self time."""
        if self.stack:
            self.spans[self.stack[-1]][6] += seconds

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open("op")

    # -- wrapping ------------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every poscol module attribute that holds ``original`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if modname != "poscol" and not modname.startswith("poscol."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _set_method(self, cls, attr, wrapper) -> None:
        self._saved.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        pc = self.pc
        for short, names in SPANNED.items():
            module = sys.modules[f"poscol.{short}"]
            for fname in names:
                original = getattr(module, fname)
                self._rebind(original, self._spanned(f"{short}.{fname}", original))

        counts = self.counts
        position = sys.modules["poscol.position"]
        induced = position.exists_induced_path_through

        @functools.wraps(induced)
        def induced_wrapper(g, *args, **kwargs):
            before = len(g._memo.get("induced_through", ()))
            try:
                return induced(g, *args, **kwargs)
            finally:
                counts["induced"] += 1
                counts["induced_searches"] += len(g._memo.get("induced_through", ())) > before

        self._rebind(induced, induced_wrapper)

        try_add = position.SetState.try_add

        @functools.wraps(try_add)
        def try_add_wrapper(state, v):
            ok = try_add(state, v)
            counts["try_add"] += 1
            counts["try_add_ok"] += ok
            return ok

        self._set_method(position.SetState, "try_add", try_add_wrapper)

        tick = pc.errors.BudgetTicker.tick
        spans, stack = self.spans, self.stack

        @functools.wraps(tick)
        def tick_wrapper(ticker, n=1):
            spans[stack[-1]][5] += n
            return tick(ticker, n)

        self._set_method(pc.errors.BudgetTicker, "tick", tick_wrapper)

        distance_matrix = pc.graphs.Graph.distance_matrix
        spanned_dm = self._spanned("graphs.distance_matrix", distance_matrix)

        @functools.wraps(distance_matrix)
        def distance_matrix_wrapper(g):
            if g._dist is None:
                return spanned_dm(g)
            return distance_matrix(g)

        self._set_method(pc.graphs.Graph, "distance_matrix", distance_matrix_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def pass_metrics(self, time_scale: float) -> dict[str, float]:
        """Per-layer metrics of the pass just traced (no overhead ratio).

        Self times are multiplied by ``time_scale``, the pass's factor from
        raw to reference seconds.
        """
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        nodes: dict[str, int] = {}
        for name, start, end, _, _, n, child in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            calls[name] = calls.get(name, 0) + 1
            nodes[name] = nodes.get(name, 0) + n
        solve_s = bound_s = 0.0
        for span in self.spans:
            if span[0] == SOLVE_SPAN:
                solve_s += span[2] - span[1]
            elif span[0] in BOUND_SPANS and self._inside_solve(span):
                bound_s += span[2] - span[1]
        c = self.counts
        out = {f"{name}.self_s": self_s.get(name, 0.0) * time_scale for name in SELF_S}
        out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
        out.update({f"{name}.nodes": nodes.get(name, 0) for name in NODES})
        out.update(
            {
                "graphs.distance_matrix.computes": calls.get("graphs.distance_matrix", 0),
                "position.SetState.try_add.calls": c["try_add"],
                "position.SetState.try_add.accept_ratio": _ratio(c["try_add_ok"], c["try_add"]),
                "position.exists_induced_path_through.calls": c["induced"],
                "position.exists_induced_path_through.searches": c["induced_searches"],
                "position.exists_induced_path_through.hit_ratio": _ratio(
                    c["induced"] - c["induced_searches"], c["induced"]
                ),
                "solver.bound_share": _ratio(bound_s, solve_s),
            }
        )
        return out

    def _inside_solve(self, span) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == SOLVE_SPAN:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON array per span of the pass just traced.

        Span fields: name, start, end (``perf_counter`` seconds), parent
        (line index among the spans, -1 for none), op id, search nodes.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:6]) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def combine(passes: list[dict[str, float]], overhead_ratio: float) -> dict[str, float]:
    """Low median of each metric over the traced passes, plus the overhead ratio."""
    out = {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
    out["trace.overhead_ratio"] = overhead_ratio
    return out
