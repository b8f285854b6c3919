"""Timing in reference seconds on a machine whose speed drifts.

On a shared 2-core x86 container the speed of plain Python code drifts by
+-20% over seconds to minutes, and no run length averages that away: the
median time of a fixed loop still spread 18% (interquartile range over
median) between 60 s windows.  So while an op runs, a timer signal samples
the machine's speed every ``EVERY_S`` by timing a fixed BFS kernel, and the
op's time, less the kernel runs inside it, is scaled by ``REF_S`` over the
mean kernel time of its samples.  Repeating one ~1 s solve 25 times, this
cut the spread of its time (standard deviation over mean) from 16% to 3%.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from time import perf_counter

EVERY_S = 0.025
# fewest kernel samples an interval is scaled by; a short op borrows the latest ones
WINDOW = 8
# median kernel time on the 2-core x86 container the benchmark was defined on
REF_S = 0.0012


def _kernel_graph() -> list[list[int]]:
    rng = random.Random(5)
    adj: list[set[int]] = [set() for _ in range(300)]
    for _ in range(900):
        u, v = rng.randrange(300), rng.randrange(300)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(a) for a in adj]


_GRAPH = _kernel_graph()


def kernel() -> float:
    """Seconds a fixed BFS takes now, with the collector off so that the
    program's heap cannot slow it."""
    gc.disable()
    try:
        start = perf_counter()
        for source in range(0, 300, 40):
            dist = {source: 0}
            queue = [source]
            for u in queue:
                for w in _GRAPH[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        return perf_counter() - start
    finally:
        gc.enable()


class SpeedProbe:
    """Context manager that samples the kernel from SIGALRM while it is open.

    ``tracer``, when given, has each kernel run excluded from the self time
    of the span it interrupted.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that lands inside a stalled sample is dropped
            return
        self._busy = True
        start = perf_counter()
        seconds = kernel()
        self.samples.append((start, seconds))
        if self.tracer is not None:
            self.tracer.exclude(seconds)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), perf_counter()

    def elapsed(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(raw seconds, reference seconds) since ``mark``, kernel runs excluded."""
        end = perf_counter()
        first, start = mark
        inside = [s for s in self.samples[first:] if start <= s[0] < end]
        raw = end - start - sum(seconds for _, seconds in inside)
        recent = [s for s in self.samples[-(len(inside) + WINDOW + 2):] if s[0] < end]
        window = recent[-max(len(inside), WINDOW):]
        return raw, raw * REF_S / statistics.fmean(seconds for _, seconds in window)
