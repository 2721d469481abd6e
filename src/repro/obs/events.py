"""Structured JSON event logging with a slow-request threshold.

Events go through the stdlib ``logging`` channel ``repro.obs`` as
single-line JSON objects — greppable, machine-parsable, and silent
until a handler is attached (the ``serve`` CLI attaches a stderr
handler; embedded services stay quiet unless the host application opts
in). Each grading event carries the request id, problem, status, wall
time and per-stage breakdown; gradings at or past the slow threshold
(``--slow-ms`` / ``REPRO_SLOW_MS``) are logged at WARNING with
``"slow": true`` so a default WARNING-level root logger still surfaces
the outliers.
"""

from __future__ import annotations

import contextlib
import json
import logging
import time
from typing import Iterator, Optional

from repro.obs.config import SLOW_MS

logger = logging.getLogger("repro.obs")


def emit(event: str, level: int = logging.INFO, **fields) -> None:
    """One structured event; serialization is skipped when nobody listens."""
    if not logger.isEnabledFor(level):
        return
    payload = {"event": event, "ts": round(time.time(), 3), **fields}
    logger.log(level, json.dumps(payload, sort_keys=True, default=str))


def grading_event(
    request_id: str,
    problem: str,
    status: str,
    wall_time_s: float,
    stages: Optional[dict] = None,
    grading_stages: Optional[dict] = None,
    slow_ms: Optional[float] = None,
    **fields,
) -> None:
    """The per-grading event; WARNING + ``slow`` past the threshold.

    ``stages`` (parent-side) and ``grading_stages`` (from the record's
    ``metrics`` key, possibly measured in a worker process) are merged
    into one readable breakdown — but only once the event is known to
    reach a handler, so the silent-by-default path does no dict work.
    """
    threshold_ms = SLOW_MS.resolve(slow_ms)
    slow = wall_time_s * 1000.0 >= threshold_ms
    level = logging.WARNING if slow else logging.INFO
    if not logger.isEnabledFor(level):
        return
    merged = dict(stages or {})
    if grading_stages:
        merged.update(grading_stages)
    emit(
        "grading",
        level=level,
        request_id=request_id,
        problem=problem,
        status=status,
        wall_time_s=round(wall_time_s, 6),
        stages={name: round(s, 6) for name, s in merged.items()},
        slow=slow,
        **fields,
    )


@contextlib.contextmanager
def stderr_events(level: int = logging.INFO) -> Iterator[logging.Handler]:
    """Wire ``repro.obs`` events to stderr for the block (the serve CLI's
    logging), then give the logger back its handlers, level and
    propagation, so an in-process ``serve`` leaves no handler bound to a
    stream that may since have closed."""
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    level_before, propagate_before = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level_before)
        logger.propagate = propagate_before
