"""The grading wire protocol, shared by every HTTP tier.

One module owns the ``POST /grade`` request/response shapes so the
backend server (:mod:`repro.server.http`), the fleet front router
(:mod:`repro.fleet.router`) and the client (:mod:`repro.server.client`)
cannot drift: the router validates with the *same* code the backend
parses with (a request the router forwards is a request the backend
accepts), and the client builds bodies the same way both servers read
them — which is what lets one :class:`~repro.server.client.
FeedbackClient` speak to either tier transparently.

The protocol is deliberately tiny: JSON bodies, ``Content-Length``
framing, HTTP/1.1 keep-alive. A grade request is::

    {"problem": str, "source": str, "engine"?: str, "timeout_s"?: float}

and a grade response is::

    {"record": dict, "key": str, "cached": bool, "deduped": bool,
     "wall_time": float, "request_id": str}

Errors are JSON too: ``{"error": str, ...}`` with the HTTP status
carrying the class (400 malformed, 404 unknown, 429 overload with
``retry_after_s``, 503 draining).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.resilience.deadline import budget

#: Refuse request bodies past this size: the biggest real submissions are
#: a few KB, so anything megabytes-large is a mistake or abuse.
MAX_BODY_BYTES = 1 << 20

#: Oversized bodies up to this bound are read and discarded before the
#: 400 goes out: replying while the client is still mid-send makes the
#: kernel RST the connection and the client never sees the error. Beyond
#: the bound the 400 goes out undrained (draining would be a DoS).
DRAIN_CAP_BYTES = 8 * MAX_BODY_BYTES

#: The complete grade-request field set; anything else is a 400 (a typo'd
#: field silently ignored would grade under the wrong configuration).
GRADE_FIELDS = frozenset({"problem", "source", "engine", "timeout_s"})

#: The header a request id travels under, hop to hop: client → router →
#: backend → worker, echoed back on every response.
REQUEST_ID_HEADER = "X-Request-Id"

#: The response header naming the backend node a routed request landed
#: on (the router adds it; a backend answering directly does not).
SERVED_BY_HEADER = "X-Served-By"


def parse_grade_request(payload: object) -> dict:
    """Validate one decoded ``POST /grade`` body; raises ``ValueError``.

    Returns a fresh dict with exactly the recognized fields, coerced
    (``timeout_s`` to a float checked by
    :func:`~repro.resilience.deadline.budget`) — the form every tier
    grades, routes and keys caches from.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    problem = payload.get("problem")
    source = payload.get("source")
    if not isinstance(problem, str) or not problem:
        raise ValueError("'problem' must be a non-empty string")
    if not isinstance(source, str) or not source:
        raise ValueError("'source' must be a non-empty string")
    request = {"problem": problem, "source": source}
    engine = payload.get("engine")
    if engine is not None:
        if not isinstance(engine, str):
            raise ValueError("'engine' must be a string")
        request["engine"] = engine
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        if isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float)):
            raise ValueError("'timeout_s' must be a number")
        request["timeout_s"] = budget(timeout_s)
    unknown = set(payload) - GRADE_FIELDS
    if unknown:
        raise ValueError(f"unknown request fields {sorted(unknown)}")
    return request


def decode_grade_request(body: bytes) -> dict:
    """``parse_grade_request`` over raw body bytes; raises ``ValueError``."""
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"request body is not JSON: {exc}") from None
    return parse_grade_request(payload)


def encode_grade_request(
    problem: str,
    source: str,
    engine: Optional[str] = None,
    timeout_s: Optional[float] = None,
) -> dict:
    """The client-side body for one grade request (optional fields only
    when set, so the wire form stays minimal and cache-stable)."""
    body: dict = {"problem": problem, "source": source}
    if engine is not None:
        body["engine"] = engine
    if timeout_s is not None:
        body["timeout_s"] = timeout_s
    return body


def grade_response(outcome) -> dict:
    """The 200 body for one served :class:`~repro.server.service.
    GradeOutcome` (attribute-typed so the router never builds one)."""
    return {
        "record": outcome.record,
        "key": outcome.key,
        "cached": outcome.cached,
        "deduped": outcome.deduped,
        "wall_time": round(outcome.wall_time, 4),
        "request_id": outcome.request_id,
    }


def error_body(message: str, **extra) -> dict:
    """The JSON body of a non-200 response."""
    return {"error": message, **extra}
