"""Shared error types and the search budget."""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


class GraphInputError(ValueError):
    """Malformed graph, colouring, instance or budget input."""


def json_int(value: object, what: str) -> int:
    """``value`` if it is a JSON integer; floats, strings and booleans are refused."""
    if type(value) is not int:  # bool is a subclass of int
        raise GraphInputError(f"{what} must be an integer, not {value!r}")
    return value


class BudgetExceededError(RuntimeError):
    """A search exceeded its node or wall-clock budget.

    Raised instead of returning a possibly wrong answer; callers that can
    live with partial results must catch it explicitly.
    """


TICK_BLOCK = 1024  # steps a tight loop counts locally before charging them in one tick


def _env_budget(name: str, parse: type) -> int | float | None:
    raw = os.environ.get(name)
    try:
        return parse(raw) if raw else None
    except ValueError:
        raise GraphInputError(f"{name}={raw!r} in the environment is not a budget") from None


@dataclass(frozen=True)
class Limits:
    """The budget of one top-level call: ``node_limit`` search nodes, counting
    induced-path steps, and ``time_limit`` seconds; ``None`` means unlimited.

    ``ticker()`` starts it once, and every phase of the call draws from that
    running budget, except the final verification of a found colouring: a
    budget stop still returns a verified colouring.
    A running :class:`BudgetTicker` passed where a ``Limits`` is accepted is
    shared, not restarted.  POS_NODE_LIMIT and POS_TIME_LIMIT in the
    environment give process-wide defaults.
    """

    node_limit: int | None = field(default_factory=lambda: _env_budget("POS_NODE_LIMIT", int))
    time_limit: float | None = field(default_factory=lambda: _env_budget("POS_TIME_LIMIT", float))

    def __post_init__(self) -> None:
        for name, value in (("node limit", self.node_limit), ("time limit", self.time_limit)):
            if value is not None and not value >= 0:  # NaN fails too
                raise GraphInputError(f"{name} must be >= 0, got {value}")

    def ticker(self) -> BudgetTicker:
        return BudgetTicker(self)


class BudgetTicker:
    """A running budget; ``tick(n)`` charges n search nodes.

    The clock is read at the first charge and then once per ``TICK_BLOCK``
    charged nodes: a read on every node would dominate the searches;
    ``check_clock()`` reads it without a charge.  A
    spent budget stays spent: once a charge has raised, every later one
    raises too, ``tick(0)`` included.
    """

    __slots__ = ("nodes_left", "deadline", "_until_check")

    def __init__(self, limits: Limits):
        self.nodes_left = limits.node_limit
        self.deadline = None if limits.time_limit is None else time.monotonic() + limits.time_limit
        self._until_check = 0

    def ticker(self) -> BudgetTicker:
        return self

    def tick(self, n: int = 1) -> None:
        if self.nodes_left is not None:
            self.nodes_left -= n
            if self.nodes_left < 0:
                raise BudgetExceededError("node limit exceeded")
        if self.deadline is not None:
            self._until_check -= n
            if self._until_check <= 0:
                # past the deadline the count stays due, so every later charge raises
                if time.monotonic() >= self.deadline:
                    raise BudgetExceededError("time limit exceeded")
                self._until_check = TICK_BLOCK

    def check_clock(self) -> None:
        """Raise if the deadline has passed, charging no node.

        For loops whose steps are too many and too cheap to charge as nodes
        without changing what a node limit allows.  Past the deadline the
        count stays due, so every later charge raises too.
        """
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._until_check = 0
            raise BudgetExceededError("time limit exceeded")

    @contextmanager
    def capped(self, nodes: int) -> Iterator[None]:
        """Stop the block after ``nodes`` nodes; they count toward this budget too."""
        left = self.nodes_left
        self.nodes_left = start = nodes if left is None else min(nodes, left)
        try:
            yield
        finally:
            self.nodes_left = None if left is None else left - (start - self.nodes_left)


class _EnvLimits(Limits):
    """``Limits()`` read afresh whenever a budget starts, so a malformed
    environment variable fails the call that uses it, not the import."""

    def ticker(self) -> BudgetTicker:
        return Limits().ticker()


DEFAULT_LIMITS: Limits = _EnvLimits(node_limit=None, time_limit=None)
UNLIMITED = Limits(node_limit=None, time_limit=None)  # for work a budget stop must finish
