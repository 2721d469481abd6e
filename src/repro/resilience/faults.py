"""Named fault-injection points at every seam of the serving stack.

The chaos suite's entry point: a *fault plan* arms named injection
points — ``worker.crash``, ``cache.write``, ``grade.slow``, … — with
probability or count triggers, and the seams consult the plan via
:func:`should_fire`. Disarmed (the production state) the whole module
costs one function call returning on a ``None`` check; no environment
read, no dict lookup, no clock.

Arming: the ``REPRO_FAULTS`` environment variable (read once, lazily,
because a plan keeps fire counts) or the ``serve --faults`` flag for
whole-process arming, and :func:`arm` / :func:`reset` for tests.
The spec grammar is comma-separated points with colon-separated
triggers::

    REPRO_FAULTS="worker.crash:n=1,cache.write:p=0.5:seed=7,grade.slow:delay=0.2"

- ``n=K``    fire on the first K consultations, then never again;
- ``p=X``    fire with probability X per consultation (default 1.0);
- ``delay=S``  seconds to sleep for hang/slow points (default 30);
- ``seed=N``   seed the plan's RNG (deterministic probabilistic chaos).

Worker processes never consult a plan of their own. The
:class:`~repro.service.workers.ProcessExecutor` consumes the triggers of
the points a worker acts out in the parent, with :func:`draw`, per
request at dispatch. The fired points travel with the request and the
worker acts them out; a drawn fault that ends the request (a crash, a
dropped reply) leaves the triggers of the points after it unconsumed.
So a plan armed in the parent, even after startup, governs its workers,
and ``n=K`` means K fires across the parent, its workers and every
respawn, not K per process.

Every fired fault counts once into
``repro_faults_injected_total{point=...}`` (observability on), in the
process that consumed its trigger, so ``/metrics`` shows exactly what
the chaos run injected, even for a worker that died acting it out.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Collection, Dict, Optional, Sequence

ENV_VAR = "REPRO_FAULTS"

#: Default sleep for hang/slow points armed without ``delay=``: long
#: enough to trip any reasonable watchdog, short enough that a chaos
#: suite that forgot to shrink the grace does not hang CI for an hour.
DEFAULT_DELAY_S = 30.0

#: The seams this module knows about. Arming an unknown point is an
#: error — a typo'd fault name silently never firing is the worst
#: possible chaos-suite outcome.
POINTS = frozenset(
    {
        "worker.crash",  # worker exits hard mid-grade
        "worker.hang",  # worker sleeps past the watchdog grace
        "worker.reply_drop",  # grading result never sent back
        "worker.reply_malformed",  # garbage tuple on the result pipe
        "cache.read",  # a result-store log read raises an IO error
        "cache.write",  # a result-store append raises an IO error
        "grade.slow",  # grading sleeps before solving
        "grade.error",  # grading raises (any executor)
    }
)


class FaultInjected(RuntimeError):
    """The exception an armed :func:`inject` point raises."""

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class _Fault:
    __slots__ = ("point", "probability", "remaining", "delay_s")

    def __init__(
        self,
        point: str,
        probability: float = 1.0,
        count: Optional[int] = None,
        delay_s: Optional[float] = None,
    ):
        self.point = point
        self.probability = probability
        self.remaining = count  # None = unlimited
        self.delay_s = delay_s


class FaultPlan:
    """A set of armed faults with their triggers (thread-safe)."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = random.Random(seed)
        self._faults: Dict[str, _Fault] = {}
        self._lock = threading.Lock()

    def arm(
        self,
        point: str,
        probability: float = 1.0,
        count: Optional[int] = None,
        delay_s: Optional[float] = None,
    ) -> None:
        if point not in POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {sorted(POINTS)}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")
        with self._lock:
            self._faults[point] = _Fault(point, probability, count, delay_s)

    def should_fire(self, point: str) -> bool:
        """Consult (and consume) the trigger for one seam crossing."""
        with self._lock:
            fault = self._faults.get(point)
            if fault is None:
                return False
            if fault.remaining is not None and fault.remaining <= 0:
                return False
            if fault.probability < 1.0 and (
                self._rng.random() >= fault.probability
            ):
                return False
            if fault.remaining is not None:
                fault.remaining -= 1
            return True

    def delay_for(self, point: str) -> float:
        with self._lock:
            fault = self._faults.get(point)
            if fault is None or fault.delay_s is None:
                return DEFAULT_DELAY_S
            return fault.delay_s


def parse_spec(spec: str) -> FaultPlan:
    """A :class:`FaultPlan` from the ``REPRO_FAULTS`` grammar."""
    seed: Optional[int] = None
    entries = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        point, _, rest = chunk.partition(":")
        probability, count, delay_s = 1.0, None, None
        for item in filter(None, rest.split(":")):
            key, _, value = item.partition("=")
            if key == "p":
                probability = float(value)
            elif key == "n":
                count = int(value)
            elif key == "delay":
                delay_s = float(value)
            elif key == "seed":
                seed = int(value)
            else:
                raise ValueError(
                    f"unknown fault trigger {key!r} in {chunk!r}"
                )
        entries.append((point, probability, count, delay_s))
    plan = FaultPlan(seed=seed)
    for point, probability, count, delay_s in entries:
        plan.arm(point, probability=probability, count=count, delay_s=delay_s)
    return plan


# -- process-wide plan ---------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
#: Whether ``REPRO_FAULTS`` has been consulted. Reset by :func:`reset`,
#: so tests that monkeypatch the environment get a fresh read.
_env_read = False
_state_lock = threading.Lock()


def enabled() -> bool:
    """Whether any fault is armed — the seams' zero-cost gate."""
    global _env_read, _PLAN
    if _PLAN is not None:
        return True
    if _env_read:
        return False
    with _state_lock:
        if not _env_read:
            _env_read = True
            spec = os.environ.get(ENV_VAR, "").strip()
            if spec:
                _PLAN = parse_spec(spec)
    return _PLAN is not None


def configure(spec: Optional[str]) -> None:
    """Install a fault plan from a spec string (None/empty disarms)."""
    global _PLAN, _env_read
    with _state_lock:
        _PLAN = parse_spec(spec) if spec else None
        _env_read = True  # an explicit configure outranks the environment


def arm(
    point: str,
    probability: float = 1.0,
    count: Optional[int] = None,
    delay_s: Optional[float] = None,
) -> None:
    """Arm one point on the live plan (creating an empty plan if none)."""
    global _PLAN
    enabled()  # fold any pending env spec in first
    with _state_lock:
        if _PLAN is None:
            _PLAN = FaultPlan()
        _PLAN.arm(point, probability=probability, count=count, delay_s=delay_s)


def reset() -> None:
    """Disarm everything and forget the environment read (tests)."""
    global _PLAN, _env_read
    with _state_lock:
        _PLAN = None
        _env_read = False


def _count(point: str) -> None:
    # Deferred import: obs is cheap, but faults must stay importable from
    # the lowest layers without dragging the telemetry stack into them
    # at module-import time.
    from repro.obs import OBS, global_registry

    if OBS.default():
        global_registry().counter(
            "repro_faults_injected_total",
            help="Faults fired by the injection harness",
            labelnames=("point",),
        ).labels(point=point).inc()


def should_fire(point: str) -> bool:
    """Consume one trigger for ``point``; counts the fire when armed."""
    if _PLAN is None or not _PLAN.should_fire(point):
        return False
    _count(point)
    return True


def inject(point: str, exc: Optional[BaseException] = None) -> None:
    """Raise at an armed seam (``exc`` lets IO seams raise OSError)."""
    if enabled() and should_fire(point):
        raise exc if exc is not None else FaultInjected(point)


def draw(points: Sequence[str], ends: Collection[str] = ()) -> Dict[str, float]:
    """Consume ``points``' triggers here for another process to act out.

    Returns the points that fired, each with its delay. The points are
    consulted in order, once per call, up to the first fired point in
    ``ends``: that fault ends the request, so the points after it would
    never be acted out and keep their triggers.
    """
    if not enabled():
        return {}
    assert _PLAN is not None
    drawn: Dict[str, float] = {}
    for point in points:
        if should_fire(point):
            drawn[point] = _PLAN.delay_for(point)
            if point in ends:
                break
    return drawn
