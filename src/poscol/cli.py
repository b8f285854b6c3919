"""Command-line surface: compute, verify, family, construct, reduce, suite.

Exit codes are a stable contract: 0 success, 1 verification or suite
failure, 2 malformed input, 3 resource limit exceeded.  A reader that closes
stdout early (``pos family ... | head``) does not change the exit code: the
rest of the output is dropped.  All output on stdout is deterministic for
fixed flags and seeds; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

from .catalogue import catalogue_lines
from .errors import BudgetExceededError, GraphInputError, Limits
from .families import generate, parse_family
from .formulas import predicted_chi
from .graph6 import graph6_decode, graph6_encode, graph_from_json
from .graphs import Graph, complement
from .position import parse_kind
from .reduction import (
    TriviallyNo,
    build_reduction,
    check_equivalence,
    normalize,
    parse_cnf,
    random_nae_instance,
)
from .solver import (
    bounds,
    chromatic_position_number,
    check_inequality_suite,
    colouring_from_dict,
    colouring_to_dict,
    verify_colouring,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_graph_text(text: str) -> Graph:
    text = text.strip()
    if not text:
        raise GraphInputError("empty graph input")
    # a graph6 line of order 60 starts with '{' too, but never with '{' and a quote
    if text.startswith("{") and text[1:].lstrip().startswith('"'):
        return graph_from_json(text)
    first_line = text.splitlines()[0]
    return graph6_decode(first_line)


def _limits(args) -> Limits:
    """The budget flags; an unset flag falls back to its environment variable."""
    flags = {"node_limit": args.node_limit, "time_limit": args.time_limit}
    return Limits(**{name: value for name, value in flags.items() if value is not None})


def _print(line: str) -> None:
    """Write one line to stdout, the only way the commands do.

    If the reader has closed the pipe, stdout is pointed at ``os.devnull``
    (as the Python docs advise for SIGPIPE), so later writes and the flush
    at exit are dropped and the command keeps its own exit code.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(obj) -> None:
    _print(json.dumps(obj, sort_keys=True))


# -- subcommands -----------------------------------------------------------------


def cmd_compute(args) -> int:
    graph = _parse_graph_text(_read_text(args.input))
    kind = parse_kind(args.kind)
    limits = _limits(args)
    if args.bounds:
        _emit({"kind": kind.value, "n": graph.n, **asdict(bounds(graph, kind, limits))})
        return EXIT_OK
    result = chromatic_position_number(graph, kind, limits)
    out = colouring_to_dict(result.colouring, kind)
    out["optimality"] = result.optimality
    out["provenance"] = result.provenance
    _emit(out)
    return EXIT_OK if result.optimality == "exact" else EXIT_BUDGET


def cmd_verify(args) -> int:
    graph = _parse_graph_text(_read_text(args.graph))
    obj = json.loads(_read_text(args.colouring))
    colouring, file_kind = colouring_from_dict(obj)
    kind = parse_kind(args.kind) if args.kind else file_kind
    if kind is None:
        raise GraphInputError("no position kind given (flag or colouring file)")
    ok = verify_colouring(graph, colouring, kind, _limits(args))
    _print("verified" if ok else "NOT a valid colouring")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_family(args) -> int:
    graph = generate(parse_family(args.spec))
    _print(graph6_encode(graph))
    return EXIT_OK


def cmd_construct(args) -> int:
    from .constructions import construct_colouring

    spec = parse_family(args.spec)
    kind = parse_kind(args.kind)
    cert = construct_colouring(spec, kind, _limits(args))
    out = colouring_to_dict(cert.colouring, kind)
    out["provenance"] = cert.provenance
    out["optimality"] = cert.optimality
    prediction = predicted_chi(spec, kind)
    if prediction.status != "unknown":
        out["prediction"] = {
            "status": prediction.status,
            "low": prediction.low,
            "high": prediction.high,
        }
    _emit(out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    inst = parse_cnf(_read_text(args.cnf))
    limits = _limits(args)
    norm = normalize(inst)
    if isinstance(norm, TriviallyNo):
        _emit({"trivially_no": True})
        return EXIT_OK
    rg = build_reduction(norm)
    out = {
        "p": norm.p,
        "q": norm.q,
        "n": rg.graph.n,
        "graph6": graph6_encode(rg.graph),
        "roles": [list(role) for role in rg.roles],
    }
    if args.check:
        report = check_equivalence(inst, limits)
        out["check"] = report.to_dict()
        _emit(out)
        return EXIT_OK if report.agree else EXIT_FAIL
    _emit(out)
    return EXIT_OK


# -- suites ------------------------------------------------------------------------


def _suite_cycles(args, limits) -> list[dict]:
    from .constructions import construct_colouring
    from .position import PositionKind

    items = []
    for kind, orders in ((PositionKind.GP, range(5, 16)), (PositionKind.MONO, range(3, 13))):
        for n in orders:
            spec = parse_family(f"cycle:{n}")
            expected = predicted_chi(spec, kind).value
            solved = chromatic_position_number(generate(spec), kind, limits).k
            built = construct_colouring(spec, kind, limits).k
            items.append(
                {
                    "input": f"cycle:{n} {kind.value}",
                    "expected": expected,
                    "computed": solved,
                    "construction": built,
                    "pass": solved == expected == built,
                }
            )
    return items


def _suite_ng_check(args, limits) -> list[dict]:
    kinds = [parse_kind(k) for k in args.kinds.split(",")]
    if args.input:
        lines = _read_text(args.input).split()
    else:
        lines = [line for n in range(1, args.max_n + 1) for line in catalogue_lines(n)]
    items = []
    for idx, line in enumerate(lines):
        g = graph6_decode(line)
        gbar = complement(g)
        for kind in kinds:
            total = (
                chromatic_position_number(g, kind, limits).k
                + chromatic_position_number(gbar, kind, limits).k
            )
            items.append(
                {
                    "input": f"#{idx} {line} {kind.value}",
                    "expected": f"<= {g.n + 1}",
                    "computed": total,
                    "pass": total <= g.n + 1,
                }
            )
    return items


def _suite_reduction(args, limits) -> list[dict]:
    items = []
    for i in range(args.count):
        p = 3 + (args.seed + i) % 3
        q = 3 + (args.seed + i) % 2
        inst = random_nae_instance(p, q, args.seed + i)
        report = check_equivalence(inst, limits)
        items.append(
            {
                "input": f"nae p={p} q={q} seed={args.seed + i}",
                "expected": "agree",
                "computed": {
                    "sat": report.nae_satisfiable,
                    "gp3": report.gp_three_colourable,
                },
                "pass": report.agree,
            }
        )
    return items


def _suite_inequalities(args, limits) -> list[dict]:
    from .families import random_connected_graph

    if args.max_n < 2:
        raise GraphInputError("--max-n must be at least 2 for the inequalities suite")
    items = []
    for i in range(args.count):
        n = 2 + (args.seed + i) % (args.max_n - 1)
        g = random_connected_graph(n, 0.35, args.seed + i)
        report = check_inequality_suite(g, limits)
        items.append(
            {
                "input": f"random connected n={n} seed={args.seed + i}",
                "expected": "all inequalities hold",
                "computed": [r.name for r in report.failures] or "ok",
                "pass": report.all_hold,
            }
        )
    return items


_SUITES = {
    "cycles": _suite_cycles,
    "ng-check": _suite_ng_check,
    "reduction": _suite_reduction,
    "inequalities": _suite_inequalities,
}


def cmd_suite(args) -> int:
    if args.name not in _SUITES:
        raise GraphInputError(
            f"unknown suite {args.name!r}; choose from {sorted(_SUITES)}"
        )
    limits = _limits(args)
    start = time.monotonic()
    items = _SUITES[args.name](args, limits)
    elapsed = time.monotonic() - start
    failed = sum(1 for item in items if not item["pass"])
    report = {
        "suite": args.name,
        "items": items,
        "summary": {"total": len(items), "passed": len(items) - failed, "failed": failed},
    }
    _emit(report)
    print(f"suite {args.name}: {len(items) - failed}/{len(items)} in {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_FAIL


# -- parser ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pos", description="Position colourings of graphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p):
        p.add_argument("--time-limit", type=float, default=None, help="seconds (env POS_TIME_LIMIT)")
        p.add_argument("--node-limit", type=int, default=None, help="search nodes (env POS_NODE_LIMIT)")

    p = sub.add_parser("compute", help="exact chi or bounds for a graph on stdin/file")
    p.add_argument("--kind", required=True, help="gp|mono|mu|gpi|monoi|mui")
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--input", default="-", help="graph6 line or adjacency JSON ('-' = stdin)")
    add_budget_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check a colouring file against a graph")
    p.add_argument("graph", help="graph file (graph6 or JSON), '-' = stdin")
    p.add_argument("colouring", help="colouring JSON file")
    p.add_argument("--kind", default=None)
    add_budget_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="emit a named family instance as graph6")
    p.add_argument("spec", help="e.g. cycle:9, kneser2:7, cartesian(path:4,path:6)")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("construct", help="paper construction colouring for a family")
    p.add_argument("spec")
    p.add_argument("kind")
    add_budget_flags(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("reduce", help="build the gp-colouring gadget for a NAE3-SAT file")
    p.add_argument("cnf", help="CNF file ('p nae3 p q' header), '-' = stdin")
    p.add_argument("--check", action="store_true", help="run both oracles and compare")
    add_budget_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name", help="|".join(sorted(_SUITES)))
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--kinds", default="gpi", help="comma list for ng-check")
    p.add_argument(
        "--input", default=None,
        help="ng-check: graph6 stream (one per line) instead of the shipped catalogues",
    )
    add_budget_flags(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
