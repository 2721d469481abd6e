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
response; absent one, the service generates an id.

Errors are JSON too, ``{"error": ...}`` (:func:`repro.server.codec.
error_body`), whatever the tier refuses: 400 malformed request or
framing, 404 unknown problem or path, 414 request line too long, 429
queue full (with a ``Retry-After`` header), 431 header line too long or
too many header lines, 501 unsupported method, 503 draining, 505 HTTP/2
or later. Every error that leaves the request stream in doubt closes
the connection.

:class:`JSONRequestHandler` is how both serving tiers speak HTTP/1.1:
the backend's handler here and the fleet router's
(:mod:`repro.fleet.router`) subclass it, so the framing lives in one
place. It reads the request line and the header block itself, in a
bounded loop into a :class:`Headers` mapping (the stdlib's
``email``-based header parser is not used), writes each response
(status line, headers and body) in one write, and owns keep-alive and
the request-body rule. The request/response shapes live in
:mod:`repro.server.codec`, shared with the router and the client — the
three tiers speak one protocol by construction.
"""

from __future__ import annotations

import json
import re
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

#: The longest header line, its line ending counted; a longer one is a
#: 431. The stdlib's request loop holds the request line to the same
#: bound (a 414).
MAX_LINE_BYTES = 65536

#: A header block of more lines than this is a 431. As in the stdlib,
#: the blank line that ends the block is one of them: 99 fields pass.
MAX_HEADER_LINES = 100

_HTTP_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)

#: An RFC 9110 token: what a header field name must be.
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


class Headers(dict):
    """A request's header fields, keyed by lower-cased name, that
    :meth:`get` looks up in any case; the first value of a repeated
    name is the one kept."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class JSONRequestHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive plumbing shared by the backend and the router.

    The server it runs under carries a ``verbose`` flag for the stdlib
    request log.
    """

    server_version = "repro-feedback"
    protocol_version = "HTTP/1.1"
    #: A response is one write, but a write can still wait behind
    #: Nagle: the final response after an interim ``100 Continue``, and
    #: the last segment of a response longer than one, would sit until
    #: the client's delayed ACK (~40ms) — dwarfing every warm-path
    #: latency.
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

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the header block into
        ``self.headers``; on ``False`` the error is already answered.

        The stdlib's rules: a header line over :data:`MAX_LINE_BYTES`
        or a block over :data:`MAX_HEADER_LINES` lines is a 431, a
        malformed version a 400, HTTP/2 or later a 505; HTTP/1.1 keeps
        the connection alive unless ``Connection: close``, HTTP/1.0
        closes it unless ``Connection: keep-alive``; ``Expect:
        100-continue`` gets its interim response; a path starting
        ``//`` collapses to one ``/``; the first value of a repeated
        name wins. Stricter than the stdlib, each a 400 that closes the
        connection: a request line that is not three words (the stdlib
        reads two as an HTTP/0.9 ``GET`` and waits for its headers), a
        header line whose name is not a token, such as a line with no
        colon (the stdlib drops it and every field after it) or an
        obs-fold continuation line (which the stdlib folds into the
        field above), a value holding a bare CR or a NUL (RFC 9110
        §5.5; a request id is echoed back), and a repeated
        ``Content-Length`` with another value (RFC 9112 §6.3; the
        stdlib takes the first).
        """
        self.command = None
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1"
        ).rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path, version = words
        match = _HTTP_VERSION.fullmatch(version)
        if match is None:
            self.send_error(400, f"Bad request version ({version!r})")
            return False
        number = int(match[1]), int(match[2])
        if number >= (2, 0):
            self.send_error(505, f"Invalid HTTP version ({version[5:]})")
            return False
        self.command, self.request_version = command, version
        # A leading "//" reads as a scheme-less absolute URI to clients:
        # collapse it, as the stdlib does against open redirects.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.close_connection = number < (1, 1)
        self.headers = headers = Headers()  # type: ignore[assignment]
        for _ in range(MAX_HEADER_LINES):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self.send_error(431, "Line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            text = str(line, "iso-8859-1").rstrip("\r\n")
            name, colon, value = text.partition(":")
            value = value.strip(" \t")
            if (
                not colon
                or _TOKEN.fullmatch(name) is None
                or "\r" in value
                or "\0" in value
            ):
                self.send_error(400, f"Bad header line ({text[:80]!r})")
                return False
            name = name.lower()
            if headers.setdefault(name, value) != value and name == "content-length":
                self.send_error(400, "conflicting Content-Length headers")
                return False
        else:
            self.send_error(431, "Too many headers")
            return False
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        expect = headers.get("expect", "").lower()
        if expect == "100-continue" and number >= (1, 1):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str = JSON_CONTENT_TYPE,
        headers: Iterable[Tuple[str, str]] = (),
        close: bool = False,
    ) -> None:
        """Write one response, status line to body, in one write.

        The headers go out in the stdlib's order: ``Server``, ``Date``,
        ``Content-Type``, ``Content-Length``, then ``headers``.
        ``close=True`` adds ``Connection: close`` and ends the
        keep-alive connection after this response — mandatory whenever
        the request body may be unread (replying with it still in the
        stream would desync every subsequent request on the
        connection)."""
        self.log_request(status)
        reason = self.responses[status][0] if status in self.responses else ""
        lines = [
            f"{self.protocol_version} {status} {reason}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers)
        if close:
            lines.append("Connection: close")
            self.close_connection = True
        lines.append("\r\n")
        self.wfile.write("\r\n".join(lines).encode("latin-1") + body)

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

    def send_error(self, code: int, message=None, explain=None) -> None:
        """Answer a refused request head (this class's and the stdlib
        request loop's: 414, 501) with a JSON error, and close."""
        if message is None:
            message = self.responses[code][0]
        self.log_error("code %d, message %s", code, message)
        self._error(code, message, close=True)

    def read_body(self, required: bool = True) -> bytes:
        """The request body, or ``ValueError`` naming what is wrong with
        its framing; answer that with ``close=True``.

        A body past :data:`MAX_BODY_BYTES` is read and dropped up to
        :data:`DRAIN_CAP_BYTES`, so the client sees the 400 instead of a
        reset. ``required=False`` reads a missing ``Content-Length`` as
        an empty body.
        """
        value = self.headers.get("Content-Length", "" if required else "0")
        # Digits only: int() would also take "+5" and "1_0".
        if not (value.isascii() and value.isdigit()):
            raise ValueError("missing or invalid Content-Length")
        length = int(value)
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
