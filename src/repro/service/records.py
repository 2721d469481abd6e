"""JSON-serializable feedback records.

The process pool, the result cache and the JSONL job store all need a
flat, picklable/JSON-able view of a :class:`FeedbackReport`. A record
keeps everything a caller (or a resumed batch) needs — status, cost,
rendered feedback items, the corrected source — and drops the solver
internals (``engine_result`` holds live registry references that neither
serialize nor matter after the run).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.api import FeedbackReport
from repro.core.feedback import FeedbackItem

#: Schema version stamped into every record; bump when the shape changes
#: so stale job stores / caches are rejected instead of misread.
RECORD_VERSION = 1

#: Status of a submission whose grading *raised* (a pipeline bug, not a
#: property of the submission). Error records are settled and counted but
#: never cached or persisted — a retry must re-grade, not replay the crash.
ERROR = "error"

#: Status of a request answered without a solve: an open circuit breaker
#: (or a permanently failed worker pool) short-circuited it to partial
#: feedback. Like errors, degraded records are never cached — the next
#: probe must re-grade for real.
DEGRADED = "degraded"

#: The timeout status (mirrors :data:`repro.core.api.TIMEOUT`; spelled
#: out here so the record layer needs no core import at use sites).
TIMEOUT = "timeout"

#: Status of a submission short-circuited by pre-grading triage
#: (:mod:`repro.analysis.triage`): a static pass proved no candidate in
#: the correction space can be equivalent, so no grading slot was spent.
#: Static records are deterministic (pure functions of the source and
#: model) and cacheable — under a dedicated engine-independent key.
STATIC = "static"


def static_record(
    problem: str,
    verdict: str,
    diagnostics: Optional[list] = None,
    detail: str = "",
    wall_time: float = 0.0,
) -> dict:
    """The record for a statically-unfixable submission.

    ``diagnostics`` are line-anchored JSON-safe dicts (``line``, ``code``,
    ``message``) from the triage pass.
    """
    record = _base_record(problem, STATIC, detail)
    record["wall_time"] = wall_time
    record["triage"] = {
        "verdict": verdict,
        "diagnostics": list(diagnostics or []),
    }
    return record


def _base_record(problem: str, status: str, detail: str) -> dict:
    return {
        "v": RECORD_VERSION,
        "status": status,
        "problem": problem,
        "cost": None,
        "minimal": False,
        "fixed_source": None,
        "wall_time": 0.0,
        "detail": detail,
        "items": [],
    }


def error_record(problem: str, exc: BaseException) -> dict:
    """The record for a grading that raised instead of classifying."""
    return _base_record(problem, ERROR, f"{type(exc).__name__}: {exc}")


def degraded_record(
    problem: str,
    reason: str,
    failing_tests: Optional[list] = None,
    detail: str = "",
) -> dict:
    """The record for a request short-circuited to partial feedback."""
    record = _base_record(problem, DEGRADED, detail)
    record["degraded"] = {
        "reason": reason,
        "failing_tests": failing_tests or [],
    }
    return record


def timeout_record(
    problem: str,
    reason: str,
    failing_tests: Optional[list] = None,
    detail: str = "",
) -> dict:
    """A structured timeout produced *outside* the engine — the request's
    end-to-end deadline died in the queue or at the worker boundary."""
    record = _base_record(problem, TIMEOUT, detail)
    record["degraded"] = {
        "reason": reason,
        "failing_tests": failing_tests or [],
    }
    return record


def report_to_record(report: FeedbackReport) -> dict:
    """Flatten a report to plain JSON types."""
    return {
        "v": RECORD_VERSION,
        "status": report.status,
        "problem": report.problem,
        "cost": report.cost,
        "minimal": report.minimal,
        "fixed_source": report.fixed_source,
        "wall_time": report.wall_time,
        "detail": report.detail,
        "items": [
            {
                "line": item.line,
                "rule": item.rule,
                "kind": item.kind,
                "original": item.original,
                "replacement": item.replacement,
                "message": item.message,
            }
            for item in report.items
        ],
        # Telemetry rides along only when observability produced it; the
        # key is stripped by comparable_record, so records stay
        # byte-identical under comparison with obs on or off.
        **({"metrics": report.metrics} if report.metrics is not None else {}),
        # Degraded feedback exists on timeout/short-circuit paths only
        # and is deterministic there (canonical-order failing tests), so
        # it is NOT stripped — clean-path records never carry the key,
        # which is what keeps resilience-on/off byte-identity.
        **({"degraded": report.degraded} if report.degraded else {}),
        # Triage verdicts exist on static records only and are
        # deterministic; passed-through submissions never carry the key,
        # which keeps them byte-identical to untriaged gradings.
        **({"triage": report.triage} if report.triage else {}),
    }


def record_to_report(record: dict) -> FeedbackReport:
    """Rebuild a report (sans engine internals) from a record."""
    version = record.get("v")
    if version != RECORD_VERSION:
        raise ValueError(
            f"unsupported record version {version!r} "
            f"(expected {RECORD_VERSION})"
        )
    items: List[FeedbackItem] = [
        FeedbackItem(
            line=item.get("line"),
            rule=item.get("rule", ""),
            kind=item.get("kind", "expression"),
            original=item.get("original", ""),
            replacement=item.get("replacement", ""),
            message=item.get("message", ""),
        )
        for item in record.get("items", ())
    ]
    return FeedbackReport(
        status=record["status"],
        problem=record.get("problem", ""),
        items=items,
        cost=record.get("cost"),
        minimal=record.get("minimal", False),
        fixed_source=record.get("fixed_source"),
        wall_time=record.get("wall_time", 0.0),
        detail=record.get("detail", ""),
        metrics=record.get("metrics"),
        degraded=record.get("degraded"),
        triage=record.get("triage"),
    )


#: Record keys that vary run to run: raw timing, and the telemetry block
#: (stage timings + engine depth counters) attached when observability is
#: on. Everything else is deterministic for a given (problem, model,
#: engine, budget) configuration, on either execution backend.
NONDETERMINISTIC_KEYS = frozenset({"wall_time", "metrics"})


def comparable_record(record: dict) -> dict:
    """A record with its nondeterministic fields dropped.

    The differential suites compare server responses, batch output and
    direct :func:`~repro.core.api.generate_feedback` calls byte-for-byte
    on this view — with telemetry enabled or disabled.
    """
    return {
        key: value
        for key, value in record.items()
        if key not in NONDETERMINISTIC_KEYS
    }


def is_record(value: Optional[dict]) -> bool:
    """Cheap shape check used when reading untrusted stores."""
    return (
        isinstance(value, dict)
        and value.get("v") == RECORD_VERSION
        and isinstance(value.get("status"), str)
    )
