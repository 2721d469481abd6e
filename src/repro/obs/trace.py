"""Per-grading traces: request ids, stage timers, registry ingestion.

A grading request crosses four layers (client → HTTP facade → service →
worker); the trace layer gives each request one **request id** that
travels with it (the ``X-Request-Id`` header outward, a pipe field
inward) and one **stage-timing record** assembled from both sides:

- parent-side stages, measured by the service: ``canonicalize``,
  ``cache_lookup``, ``queue_wait``;
- grading-side stages, measured inside :func:`~repro.core.api.
  generate_feedback` wherever it runs: ``parse``, ``rewrite``,
  ``solve``, ``render`` — attached to the grading record under its
  ``metrics`` key together with the engine-depth counters (SAT rounds /
  conflicts / decisions, explorer tables vs forker runs executed and
  reused, candidate executions, fuel consumed).

:func:`observe_grading` is the single ingestion point turning one
finished record into registry updates. Every executor calls it in the
serving process on the record it returns, so a pool worker's gradings
are counted in its parent's registry exactly like the thread
executor's.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, Optional

from repro.obs.registry import global_registry

#: Engine-depth counters lifted from ``EngineResult.stats`` into the
#: registry, as ``repro_<key>_total``.
ENGINE_COUNTERS = (
    "sat_calls",
    "sat_conflicts",
    "sat_decisions",
    "sat_propagations",
    "sat_learned",
    "sat_restarts",
    "table_leaves",
    "table_hits",
    "forker_runs",
    "forker_reused",
    "candidate_runs",
    "fuel_consumed",
)


#: Request-id source: a random 48-bit starting point (distinct per
#: process) plus a thread-safe monotonic counter — ids are unique
#: in-process, collision-unlikely across processes, time-ordered within
#: one, and far cheaper than a UUID on the per-request path.
_ids = itertools.count(int.from_bytes(os.urandom(6), "big") << 16)


def new_request_id() -> str:
    """A fresh request id (log-greppable, collision-unlikely)."""
    return f"{next(_ids) & 0xFFFFFFFFFFFFFFFF:016x}"


class StageTimer:
    """Collects named stage durations for one request or grading."""

    __slots__ = ("stages", "_started")

    def __init__(self):
        self.stages: Dict[str, float] = {}
        self._started: Optional[float] = None

    def start(self) -> None:
        self._started = time.monotonic()

    def stop(self, name: str) -> float:
        """Close the open interval and book it under ``name``."""
        assert self._started is not None
        elapsed = time.monotonic() - self._started
        self._started = None
        self.add(name, elapsed)
        return elapsed

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def rounded(self, digits: int = 6) -> Dict[str, float]:
        return {
            name: round(seconds, digits)
            for name, seconds in self.stages.items()
        }


def observe_stage(stage: str, seconds: float) -> None:
    """One stage observation into the process registry."""
    global_registry().histogram(
        "repro_grading_stage_seconds",
        help="Per-stage latency of the grading pipeline",
        labelnames=("stage",),
    ).observe(seconds, stage=stage)


def observe_grading(record: dict, engine_name: str = "") -> None:
    """Ingest one finished grading record into the process registry.

    Runs in the serving process, on the record the executor returns
    (graded on the request thread or sent back by a pool worker).
    """
    registry = global_registry()
    problem = record.get("problem", "")
    status = record.get("status", "?")
    registry.counter(
        "repro_gradings_total",
        help="Gradings executed (cache hits and dedup followers excluded)",
        labelnames=("problem", "status"),
    ).inc(problem=problem, status=status)
    registry.histogram(
        "repro_grading_seconds",
        help="Grading wall time (the record's wall_time)",
        labelnames=("problem",),
    ).observe(float(record.get("wall_time") or 0.0), problem=problem)

    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        return
    for stage, seconds in (metrics.get("stages") or {}).items():
        observe_stage(stage, seconds)
    engine = metrics.get("engine") or {}
    label = str(engine.get("engine", engine_name or "?"))
    for key in ENGINE_COUNTERS:
        value = engine.get(key)
        if value:
            registry.counter(
                f"repro_{key}_total",
                help=f"Engine-depth counter: {key.replace('_', ' ')}",
                labelnames=("engine",),
            ).inc(float(value), engine=label)
