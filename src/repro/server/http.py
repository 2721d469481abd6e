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
  recycle count);
- ``GET /metrics`` — Prometheus text exposition of the whole fleet
  (worker gradings counted in the parent registry).

Request tracing: an inbound ``X-Request-Id`` header is propagated to
the service (and on to the grading worker) and echoed back on the
response; absent one, the service generates an id. Errors are JSON
too: 400 malformed request, 404 unknown problem or path, 429 queue
full (with a ``Retry-After`` header), 503 draining.

:class:`JSONRequestHandler` is how both serving tiers speak HTTP/1.1:
the backend's handler here and the fleet router's
(:mod:`repro.fleet.router`) subclass it, so keep-alive, response
framing and the request-body rule live in one place. The
request/response shapes live in :mod:`repro.server.codec`, shared with
the router and the client — the three tiers speak one protocol by
construction.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Tuple

from repro.obs import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.server import codec
from repro.server.codec import DRAIN_CAP_BYTES, MAX_BODY_BYTES
from repro.server.service import (
    FeedbackService,
    QueueFull,
    ServiceClosed,
    UnknownProblem,
)

JSON_CONTENT_TYPE = "application/json"


class JSONRequestHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive plumbing shared by the backend and the router.

    The server it runs under carries a ``verbose`` flag for the stdlib
    request log.
    """

    server_version = "repro-feedback"
    protocol_version = "HTTP/1.1"
    #: The handler writes the header block and the body as separate TCP
    #: segments; without TCP_NODELAY, Nagle holds the body until the
    #: client's delayed ACK (~40ms) — dwarfing every warm-path latency.
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # the daemon's own progress line covers it.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client hung up: routine, not a server fault

    def send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str = JSON_CONTENT_TYPE,
        headers: Iterable[Tuple[str, str]] = (),
        close: bool = False,
    ) -> None:
        """``close=True`` ends the keep-alive connection after this
        response — mandatory whenever the request body may be unread
        (replying with it still in the stream would desync every
        subsequent request on the connection)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_json(
        self,
        status: int,
        payload: dict,
        headers: Iterable[Tuple[str, str]] = (),
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_bytes(status, body, JSON_CONTENT_TYPE, headers, close)

    def _error(
        self, status: int, message: str, close: bool = False, **extra
    ) -> None:
        self.send_json(status, codec.error_body(message, **extra), close=close)

    def read_body(self, required: bool = True) -> bytes:
        """The request body, or ``ValueError`` naming what is wrong with
        its framing; answer that with ``close=True``.

        A body past :data:`MAX_BODY_BYTES` is read and dropped up to
        :data:`DRAIN_CAP_BYTES`, so the client sees the 400 instead of a
        reset. ``required=False`` reads a missing ``Content-Length`` as
        an empty body.
        """
        length = self.headers.get("Content-Length", "" if required else "0")
        try:
            length = int(length)
        except ValueError:
            raise ValueError("missing or invalid Content-Length") from None
        if length == 0 and not required:
            return b""
        if not 0 < length <= MAX_BODY_BYTES:
            if 0 < length <= DRAIN_CAP_BYTES:
                self.rfile.read(length)
            raise ValueError(
                f"request body must be 1..{MAX_BODY_BYTES} bytes"
            )
        return self.rfile.read(length)


class FeedbackRequestHandler(JSONRequestHandler):
    """JSON-over-HTTP shim; all logic lives in the FeedbackService."""

    @property
    def service(self) -> FeedbackService:
        return self.server.service  # type: ignore[attr-defined]

    # -- GET ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self.send_json(200, self.service.healthz())
        elif path == "/problems":
            self.send_json(200, {"problems": self.service.problems_info()})
        elif path == "/stats":
            self.send_json(200, self.service.stats())
        elif path == "/metrics":
            body = self.service.metrics_text().encode("utf-8")
            self.send_bytes(200, body, METRICS_CONTENT_TYPE)
        else:
            self._error(404, f"unknown path {path!r}")

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/grade":
            self._error(404, f"unknown path {path!r}", close=True)
            return
        try:
            request = codec.decode_grade_request(self.read_body())
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
            self.send_json(
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
                else ()
            )
            self.send_json(200, codec.grade_response(outcome), headers=headers)


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
