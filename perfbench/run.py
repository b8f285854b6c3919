"""poscol benchmark: closed-loop workloads, end-to-end timings, per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # each workload in its own process, in turn

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  One caller issues one operation at
a time (a closed loop, no threads).  ``workloads.py`` describes the
workloads and why each was chosen.

A run sets up ``SETUP_REPEATS`` times (import ``poscol``, build the input
list) and reports the median as ``setup_s``.  It then runs passes over the
whole input list until ``--seconds`` have gone by, at least one pass.  Each
result is checked after its pass, outside the timed section.

Timings are in reference seconds, scaled by the machine's speed as
sampled while they run (see ``speed.py``).  Raw pass times are printed too.

``--trace 0`` prints the end-to-end metrics.  An op's latency is its median
over the passes of the run.  ``wall_s`` is the time of one pass, the sum of
those latencies; ``ops_per_s`` is the ops of one pass over ``wall_s``;
``op_p50_ms`` and ``op_p99_ms`` are percentiles over the ops of one pass
(on the small workloads p99 is the slowest op); ``peak_rss_mb`` is the
process's ``ru_maxrss``.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``layertrace.py`` (low medians over the traced passes) and writes the spans of
the last traced pass to ``perfbench/out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (operations over all passes) and ``metrics``.  The fail ratio,
failed / attempted, is printed above it; it is not in ``metrics`` because
it is 0 on a correct program.  Exit status: 0 when every result is right,
1 when one is not, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layertrace
import workloads
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def setup(name: str, seed: int):
    """Import poscol afresh and build the workload's operations."""
    for modname in [m for m in sys.modules if m == "poscol" or m.startswith("poscol.")]:
        del sys.modules[modname]
    pc = importlib.import_module("poscol")
    return pc, workloads.build(name, seed, pc)


def run_pass(ops, tracer=None):
    """Run every op once, then check the results.

    Returns (op latencies in reference seconds, raw seconds of the ops,
    failure messages).
    """
    raw, latencies, results = [], [], []
    gc.collect()  # start every pass from a collected heap
    if tracer is not None:
        tracer.reset()
        tracer.install()
    with SpeedProbe(tracer) as probe:
        for op_id, op in enumerate(ops):
            span = tracer.begin_op(op_id) if tracer is not None else None
            mark = probe.mark()
            try:
                res, err = op.run(), None
            except Exception as exc:  # an op that raises is a failed op, not a stop
                res, err = None, f"raised {exc!r}"
            seconds, ref_seconds = probe.elapsed(mark)
            if tracer is not None:
                tracer.close(span)
            raw.append(seconds)
            latencies.append(ref_seconds)
            results.append((res, err))
    if tracer is not None:
        tracer.uninstall()
    failures = []
    for op, (res, err) in zip(ops, results):
        if err is None:
            try:
                err = op.check(res)
            except Exception as exc:
                err = f"check raised {exc!r}"
        if err is not None:
            failures.append(f"{op.label}: {err}")
    return latencies, sum(raw), failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, defined for any nonempty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def context(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    src_lines = sum(
        1
        for path in (SRC / "poscol").rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit or "unknown",
        "seed": seed,
        "src_lines": src_lines,
    }


def run_workload(args) -> int:
    if not (SRC / "poscol" / "__init__.py").is_file():
        print(f"perfbench: no poscol sources at {SRC}", file=sys.stderr)
        return 2
    # exactness must never depend on a budget left in the environment
    os.environ.pop("POS_NODE_LIMIT", None)
    os.environ.pop("POS_TIME_LIMIT", None)
    sys.path.insert(0, str(SRC))

    setup_times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            mark = probe.mark()
            pc, ops = setup(args.workload, args.seed)
            setup_times.append(probe.elapsed(mark)[1])
    setup_s = statistics.median(setup_times)
    if args.max_ops:
        ops = ops[: args.max_ops]

    tracer = layertrace.Tracer(pc) if args.trace else None
    latencies: list[list[float]] = []  # per untraced pass, per op
    raw_walls, traced_walls, traced_metrics, failures = [], [], [], []
    attempted = 0
    deadline = perf_counter() + args.seconds
    while True:
        lat, raw_wall, failed = run_pass(ops)
        latencies.append(lat)
        raw_walls.append(raw_wall)
        failures += failed
        attempted += len(ops)
        if tracer is not None:
            lat, raw_wall, failed = run_pass(ops, tracer)
            traced_walls.append(sum(lat))
            traced_metrics.append(tracer.pass_metrics(sum(lat) / raw_wall))
            failures += failed
            attempted += len(ops)
        if perf_counter() >= deadline:
            break

    # an op's latency is its median over the passes, which keeps a burst of
    # machine noise in one pass from moving the run's figures
    op_latency = [statistics.median(samples) for samples in zip(*latencies)]
    wall_s = sum(op_latency)
    ctx = context(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  passes {len(raw_walls)}"
          f"  latency samples {len(ops) * len(raw_walls)}")
    print("  pass times, raw (s):       " + " ".join(f"{w:.3f}" for w in raw_walls))
    print("  pass times, reference (s): " + " ".join(f"{sum(lat):.3f}" for lat in latencies))
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops_per_s": len(ops) / wall_s,
            "op_p50_ms": statistics.median(op_latency) * 1e3,
            "op_p99_ms": percentile(op_latency, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        overhead = statistics.median(traced_walls) / statistics.median(sum(lat) for lat in latencies)
        metrics = layertrace.combine(traced_metrics, overhead)
        units = layertrace.METRICS
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "ops": [op.label for op in ops],
                                  "context": ctx})
        print(f"  traced passes {len(traced_walls)}, spans of the last one in {spans_path}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':<48} {len(failures)}/{attempted} failed/attempted")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0, help="run only the first N ops (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--max-ops", str(args.max_ops)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
