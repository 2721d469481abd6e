"""A tiny stdlib client for the feedback daemon — or the fleet router.

Used by the benchmark harness, the CI smoke test, the fleet router's
backend connections, and anyone scripting against a running server
without wanting to hand-roll ``http.client`` calls. One
:class:`FeedbackClient` holds a persistent connection (keep-alive — the
server speaks HTTP/1.1), so request latency measures grading, not TCP
handshakes. :meth:`FeedbackClient.exchange` is the one raw
request/response call, and the one place the stale-keep-alive retry
lives; the JSON endpoints build on it.

Both serving tiers speak the :mod:`repro.server.codec` protocol, so the
same client talks to a single backend daemon or to a
:class:`~repro.fleet.router.FleetRouter` fronting many of them without
knowing which: ``grade``/``problems``/``healthz``/``stats``/``metrics``
work identically (the router aggregates the read endpoints across its
backends), and :meth:`FeedbackClient.nodes` reads the router's
node-management view (a single backend answers it 404).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.obs import new_request_id
from repro.server.codec import REQUEST_ID_HEADER, encode_grade_request

class _DeadBeforeSend(http.client.RemoteDisconnected):
    """The request bytes never (fully) reached the server — the socket
    was already closed when we wrote. Same meaning as stdlib
    ``RemoteDisconnected`` (which fires when the close is noticed one
    step later, at ``getresponse``), hence the subclass."""


class _DeadBeforeResponse(http.client.RemoteDisconnected):
    """The connection was reset in place of the status line — zero
    response bytes arrived. The RST-flavored twin of the stdlib's
    FIN-flavored ``RemoteDisconnected``: both come from the same stale
    keep-alive race (our request crossing the server's close on the
    wire; whether the kernel answers with FIN or RST is a timing
    accident), hence the subclass. A reset while the response *body* is
    being read is not this — by then the server demonstrably processed
    the request — and stays a plain ``ConnectionResetError``."""


#: Failures that mean the server closed a kept-alive connection before
#: sending any response byte. On a *reused* connection this is the normal
#: end-of-life of a stale keep-alive — the request died with the socket
#: and was never processed, so resending it once is safe even for
#: non-idempotent ``POST /grade``. A non-empty ``BadStatusLine`` (garbled
#: bytes, not silence) is strictly-speaking ambiguous, but it only occurs
#: on the same stale-close race and is treated the same; timeouts — where
#: the server demonstrably *did* receive the request — are what must
#: never retry.
_STALE_KEEPALIVE_ERRORS = (
    http.client.RemoteDisconnected,  # _DeadBefore{Send,Response} included
    http.client.BadStatusLine,
)


class ServerError(RuntimeError):
    """A non-200 response from the feedback server."""

    def __init__(
        self,
        status: int,
        payload: dict,
        retry_after_header: Optional[str] = None,
    ):
        super().__init__(
            f"HTTP {status}: {payload.get('error', 'unknown error')}"
        )
        self.status = status
        self.payload = payload
        self.retry_after_header = retry_after_header

    @property
    def retry_after_s(self) -> Optional[float]:
        """The server's retry hint: the JSON field when present, else the
        standard ``Retry-After`` header (which every 429 carries, even if
        a proxy rewrote the body)."""
        hint = self.payload.get("retry_after_s")
        if hint is not None:
            return hint
        if self.retry_after_header is not None:
            try:
                return float(self.retry_after_header)
            except ValueError:
                return None
        return None


class FeedbackClient:
    """Blocking JSON client for one feedback server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout_s: float = 300.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Whether ``_conn`` has completed at least one exchange — only
        #: such a connection can be a stale keep-alive worth one retry.
        self._conn_used = False

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._conn_used = False
        return self._conn

    def exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One raw request/response: ``(status, headers, body)`` whatever
        the status, with the header names lower-cased.

        ``timeout_s`` bounds this exchange's reads (the client's own
        ``timeout_s`` when ``None``, which also bounds every connect). A
        kept-alive connection the server closed before answering is
        retried once on a fresh one; nothing else is retried.
        """
        reused = self._conn is not None and self._conn_used
        headers = headers or {}
        try:
            try:
                return self._send(method, path, body, headers, timeout_s)
            except _STALE_KEEPALIVE_ERRORS:
                # A *fresh* connection the server hung up on is a server
                # problem, not an idled-out keep-alive; surface it.
                if not reused:
                    raise
            # Stale keep-alive: the server closed the idle connection
            # without sending a response byte — the request died with the
            # socket and was never processed; resend once, fresh.
            self.close()
            return self._send(method, path, body, headers, timeout_s)
        except (OSError, http.client.HTTPException):
            # A timeout lands here too and is deliberately NOT retried: a
            # timed-out POST /grade may still be solving server-side —
            # resending would double-submit non-idempotent work. The
            # caller owns timeout policy.
            self.close()
            raise

    def _send(
        self, method: str, path: str, body, headers, timeout_s
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = self._connection()
        if conn.sock is None:
            conn.connect()
        conn.sock.settimeout(self.timeout_s if timeout_s is None else timeout_s)
        try:
            conn.request(method, path, body=body, headers=headers)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _DeadBeforeSend(str(exc)) from exc
        try:
            response = conn.getresponse()
        except ConnectionResetError as exc:
            raise _DeadBeforeResponse(str(exc)) from exc
        data = response.read()
        self._conn_used = True  # a whole response arrived: truly kept alive
        headers = {name.lower(): value for name, value in response.getheaders()}
        return response.status, headers, data

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        extra_headers: Optional[dict] = None,
        raw: bool = False,
    ) -> Union[dict, str]:
        headers = dict(extra_headers or {})
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, response_headers, data = self.exchange(
            method, path, encoded, headers
        )
        if raw and status == 200:
            return data.decode("utf-8")
        payload = json.loads(data or b"{}")
        if status != 200:
            raise ServerError(
                status,
                payload,
                retry_after_header=response_headers.get("retry-after"),
            )
        return payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._conn_used = False

    # -- endpoints ----------------------------------------------------------

    def grade(
        self,
        problem: str,
        source: str,
        engine: Optional[str] = None,
        timeout_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """Grade one submission. The request travels with an
        ``X-Request-Id`` (generated here unless supplied) that the server
        propagates through service and worker and echoes back in the
        response — one id to grep across client and server logs."""
        body = encode_grade_request(
            problem, source, engine=engine, timeout_s=timeout_s
        )
        return self._request(
            "POST",
            "/grade",
            body,
            extra_headers={REQUEST_ID_HEADER: request_id or new_request_id()},
        )

    #: HTTP statuses :meth:`grade_with_retry` retries: overload (429,
    #: queue full — the server *asked* for a retry) and drain/startup
    #: (503). Anything else — 400s, 404, 500 — is the request's fault or
    #: a bug; retrying cannot fix it.
    RETRYABLE_STATUSES = frozenset({429, 503})

    def grade_with_retry(
        self,
        problem: str,
        source: str,
        engine: Optional[str] = None,
        timeout_s: Optional[float] = None,
        request_id: Optional[str] = None,
        max_attempts: int = 5,
        base_delay_s: float = 0.5,
        max_delay_s: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
    ) -> dict:
        """:meth:`grade` with bounded exponential backoff on overload.

        The delay before attempt ``k`` is **full jitter** over the
        exponential ceiling — ``uniform(0, min(max_delay_s, base_delay_s
        * 2**k))`` — so a cohort of clients bounced by one 429 spreads
        out instead of returning in lockstep. When the server sent a
        ``retry_after_s`` hint, the delay never undercuts it: the hint
        is sized to the backlog, and coming back earlier just buys
        another rejection. The last attempt's error propagates.

        ``sleep`` and ``rng`` are injectable for tests.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        one_request_id = request_id or new_request_id()
        for attempt in range(max_attempts):
            try:
                return self.grade(
                    problem,
                    source,
                    engine=engine,
                    timeout_s=timeout_s,
                    request_id=one_request_id,
                )
            except ServerError as exc:
                if (
                    exc.status not in self.RETRYABLE_STATUSES
                    or attempt == max_attempts - 1
                ):
                    raise
                ceiling = min(max_delay_s, base_delay_s * (2.0 ** attempt))
                delay = rng() * ceiling
                hint = exc.retry_after_s
                if hint is not None:
                    delay = max(delay, min(float(hint), max_delay_s))
                sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def problems(self) -> list:
        return self._request("GET", "/problems")["problems"]

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The raw ``GET /metrics`` Prometheus exposition text."""
        return self._request("GET", "/metrics", raw=True)

    def nodes(self) -> dict:
        """The fleet router's ``GET /nodes`` view: hash-ring membership,
        per-backend breaker state, drain flags. Only a router answers
        this; a single backend daemon returns 404 (``ServerError``)."""
        return self._request("GET", "/nodes")

    def drain_node(self, name: str, drain: bool = True) -> dict:
        """Mark one router backend as (un)draining — no new routed work
        while draining; in-flight requests finish normally."""
        verb = "drain" if drain else "undrain"
        return self._request("POST", f"/nodes/{name}/{verb}")
