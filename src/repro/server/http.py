"""The HTTP surface of the feedback daemon (stdlib only).

A :class:`ThreadingHTTPServer` fronting one :class:`~repro.server.
service.FeedbackService`: each connection gets a thread, each grading
request flows through the service's admission gate, so the HTTP layer
never needs its own concurrency story. Endpoints:

- ``POST /grade`` — body ``{"problem": ..., "source": ..., "engine"?,
  "timeout_s"?}``; responds ``{"record": ..., "key": ..., "cached":
  ..., "deduped": ..., "wall_time": ..., "request_id": ...}``;
- ``GET /problems`` — the warm-problem table;
- ``GET /healthz`` — liveness (``ok`` / ``draining``) and worker-pool
  readiness in process-executor mode;
- ``GET /stats`` — counters, queue depth, cache statistics, latency
  percentiles, and the grading-executor view (kind, worker count,
  shard assignments, recycle count);
- ``GET /metrics`` — Prometheus text exposition of the whole fleet
  (worker-process metrics merged into the parent registry).

Request tracing: an inbound ``X-Request-Id`` header is propagated to
the service (and on to the grading worker) and echoed back on the
response; absent one, the service generates an id. Errors are JSON
too: 400 malformed request, 404 unknown problem or path, 429 queue
full (with a ``Retry-After`` header), 503 draining.

The request/response shapes live in :mod:`repro.server.codec`, shared
with the fleet front router and the client — the three tiers speak one
protocol by construction.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.obs import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.server import codec
from repro.server.codec import DRAIN_CAP_BYTES, MAX_BODY_BYTES
from repro.server.service import (
    FeedbackService,
    QueueFull,
    ServiceClosed,
    UnknownProblem,
)


class FeedbackRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP shim; all logic lives in the FeedbackService."""

    server_version = "repro-feedback"
    protocol_version = "HTTP/1.1"
    #: The handler writes the header block and the JSON body as separate
    #: TCP segments; without TCP_NODELAY, Nagle holds the body until the
    #: client's delayed ACK (~40ms) — dwarfing every warm-path latency.
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # the daemon's own progress line covers it.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    @property
    def service(self) -> FeedbackService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -----------------------------------------------------------

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: Optional[Tuple[Tuple[str, str], ...]] = None,
        close: bool = False,
    ) -> None:
        """``close=True`` ends the keep-alive connection after this
        response — mandatory whenever the request body may be unread
        (replying with it still in the stream would desync every
        subsequent request on the connection)."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers or ():
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, message: str, close: bool = False, **extra
    ) -> None:
        self._send_json(status, codec.error_body(message, **extra), close=close)

    # -- GET ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.service.healthz())
        elif path == "/problems":
            self._send_json(200, {"problems": self.service.problems_info()})
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        elif path == "/metrics":
            body = self.service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", METRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._error(404, f"unknown path {path!r}")

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/grade":
            self._error(404, f"unknown path {path!r}", close=True)
            return
        try:
            request = self._read_request()
        except ValueError as exc:
            self._error(400, str(exc), close=True)
            return
        request_id = self.headers.get(codec.REQUEST_ID_HEADER) or None
        try:
            outcome = self.service.grade(request_id=request_id, **request)
        except UnknownProblem as exc:
            known = sorted(self.service.warmup.problems)
            self._error(404, f"unknown problem {exc.args[0]!r}", known=known)
        except ValueError as exc:
            self._error(400, str(exc))
        except QueueFull as exc:
            retry_after = max(1, round(exc.retry_after_s))
            self._send_json(
                429,
                {
                    "error": "grading queue is full",
                    "retry_after_s": retry_after,
                },
                headers=(("Retry-After", str(retry_after)),),
            )
        except ServiceClosed:
            self._error(503, "server is draining")
        else:
            headers = (
                ((codec.REQUEST_ID_HEADER, outcome.request_id),)
                if outcome.request_id
                else None
            )
            self._send_json(200, codec.grade_response(outcome), headers=headers)

    def _read_request(self) -> dict:
        length = self.headers.get("Content-Length")
        try:
            length = int(length or "")
        except ValueError:
            raise ValueError("missing or invalid Content-Length") from None
        if not 0 < length <= MAX_BODY_BYTES:
            if 0 < length <= DRAIN_CAP_BYTES:
                self.rfile.read(length)
            raise ValueError(
                f"request body must be 1..{MAX_BODY_BYTES} bytes"
            )
        return codec.decode_grade_request(self.rfile.read(length))


class FeedbackHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to one FeedbackService."""

    daemon_threads = True

    def __init__(
        self,
        service: FeedbackService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        super().__init__((host, port), FeedbackRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_in_thread(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, benchmarks)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-feedback-http", daemon=True
        )
        thread.start()
        return thread

    def shutdown_gracefully(self, drain: bool = True) -> None:
        """Stop accepting connections, drain the service, flush."""
        self.shutdown()
        self.service.close(drain=drain)
        self.server_close()
