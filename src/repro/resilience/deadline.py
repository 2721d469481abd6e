"""Monotonic deadlines carried end to end through the serving stack.

A per-request ``timeout_s`` used to mean "the engine's solve budget":
each layer re-started the clock, so a request that waited in the
admission queue, then waited for a recycled worker to re-warm, could
legally burn ``timeout_s`` *per layer*. A :class:`Deadline` is the fix:
one monotonic instant fixed when the request enters the service and
carried client → HTTP → service → worker → engine, so every layer spends
from the same budget.

Process boundaries: ``time.monotonic()`` instants are not comparable
across processes on every platform, so the worker pipe carries
**remaining seconds** (:meth:`Deadline.remaining`) and the worker
rebuilds a local :class:`Deadline` on receipt. Within a process the
object travels as is.

Checking cost: the engines' inner loops run millions of iterations, so
deadline checks are amortized exactly like the interpreter's fuel
counter — a modulo-stride counter (:class:`DeadlineTicker`) that reads
the clock once per ``stride`` events. At the solver's observed
throughput a stride of 256 conflicts bounds the overshoot well under
the service's 0.5 s grace.
"""

from __future__ import annotations

import time
from typing import Optional, Union

#: The largest solve budget a request or a ``--timeout`` may ask for: one
#: day. A pool worker's watchdog waits the budget plus its grace on the
#: worker's pipe, and ``select`` refuses waits past about 24.8 days.
MAX_BUDGET_S = 86_400.0


def budget(value: Union[str, int, float]) -> float:
    """A solve budget from outside (a request body, a flag), in seconds.

    A positive, finite number of at most :data:`MAX_BUDGET_S`, or its
    text; anything else raises :class:`ValueError`. A NaN budget would
    switch every deadline off (every comparison with NaN is false), so
    it is refused with the rest.
    """
    seconds = float(value) if isinstance(value, str) else value
    if not 0 < seconds <= MAX_BUDGET_S:
        raise ValueError(
            "a solve budget must be a positive number of seconds, at most "
            f"{MAX_BUDGET_S:g}; got {value!r}"
        )
    return float(seconds)


class Deadline:
    """One monotonic instant by which a request must have answered."""

    __slots__ = ("at",)

    def __init__(self, at: float):
        #: ``time.monotonic()`` instant; valid only within this process.
        self.at = float(at)

    @classmethod
    def after(cls, timeout_s: float) -> "Deadline":
        """The deadline ``timeout_s`` from now."""
        return cls(time.monotonic() + max(0.0, timeout_s))

    def remaining(self) -> float:
        """Seconds left, clamped at zero (safe to ship across a pipe)."""
        return max(0.0, self.at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() > self.at

    def budget(self, cap: Optional[float] = None) -> float:
        """The solve budget this deadline allows: remaining seconds,
        optionally capped by the caller's own ``timeout_s``."""
        left = self.remaining()
        return left if cap is None else min(left, max(0.0, cap))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(in {self.at - time.monotonic():+.3f}s)"


class DeadlineTicker:
    """Amortized deadline checking for per-iteration hot loops.

    ``tick()`` is a counter decrement on all but every ``stride``-th
    call, where it reads the clock once — the same cost profile as the
    interpreter's fuel counter, cheap enough for the SAT solver's
    conflict loop.
    """

    __slots__ = ("at", "stride", "_left")

    def __init__(self, deadline: Optional[float], stride: int = 256):
        #: A ``time.monotonic()`` instant, or None for "no deadline"
        #: (every tick is then a single attribute test).
        self.at = deadline
        self.stride = stride
        self._left = stride

    def tick(self) -> bool:
        """True when the deadline has passed (checked every stride)."""
        if self.at is None:
            return False
        self._left -= 1
        if self._left > 0:
            return False
        self._left = self.stride
        return time.monotonic() > self.at
