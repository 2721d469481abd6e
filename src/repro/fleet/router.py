"""The fleet front: a single-threaded asyncio HTTP router.

One router process holds every student connection — thousands of
keep-alive sockets cost an asyncio loop almost nothing — while the CPU
work happens in backend server processes it proxies to. The split is
deliberate: backends run :class:`~repro.server.http.FeedbackHTTPServer`
(a thread per connection, fine for tens of connections from one
router), the router runs no grading at all, so neither tier's
concurrency model leaks into the other.

Routing: ``POST /grade`` bodies are validated with the shared
:mod:`repro.server.codec`, the submission is canonicalized (a
sub-millisecond pure-CPU parse — the one piece of grading knowledge the
router has), and ``(problem, canonical hash)`` is placed on the
:class:`~repro.fleet.ring.HashRing`. The winning backend gets the
request over a pooled keep-alive connection; its response body passes
through byte-for-byte (plus an ``X-Served-By`` header), so a
router-fronted fleet is record-identical to a direct backend by
construction.

Resilience (PR 7 primitives, one tier up):

- **per-backend circuit breakers** — transport failures trip a
  :class:`~repro.resilience.breaker.CircuitBreaker`; an open backend is
  skipped in ring order, so its key range *rebalances* onto ring
  neighbors until a half-open probe succeeds;
- **deadline propagation** — each routed request carries one monotonic
  :class:`~repro.resilience.deadline.Deadline`; when router time
  (failover, slow connects) materially shortens the budget, the
  forwarded ``timeout_s`` shrinks to the remainder (untouched on the
  fast path, so cache keys stay stable);
- **node draining** — ``POST /nodes/<name>/drain`` takes a backend out
  of routing without killing its in-flight work; ``undrain`` reverses.

Aggregation: ``GET /healthz``, ``/stats`` and ``/metrics`` fan out to
every backend concurrently and merge — stats and health keyed by each
backend's stable ``node_id``, metrics parsed from each backend's
exposition text (:func:`repro.obs.prometheus.parse`) and folded into
one fleet-wide scrape together with the router's own
``repro_router_*`` instruments.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs import new_request_id
from repro.obs.prometheus import parse as parse_exposition
from repro.obs.prometheus import render as render_exposition
from repro.obs.registry import MetricsRegistry
from repro.problems import all_problems
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.server import codec
from repro.service.cache import DEFAULT_TIMEOUT_S
from repro.service.canonical import canonicalize
from repro.fleet.ring import DEFAULT_VNODES, HashRing, routing_key

#: Router wear a request may absorb before the forwarded ``timeout_s``
#: is rewritten to the remaining budget. Below this the body passes
#: through byte-identical — rewriting every request would fracture the
#: backend cache keyspace (``timeout_s`` is part of the cache address).
ROUTER_GRACE_S = 0.25

#: Extra read-timeout slack over the propagated deadline: the backend
#: answers a timed-out solve with a *structured* timeout record shortly
#: after the budget, and the router must stay on the line to relay it.
WATCHDOG_GRACE_S = 10.0

#: Per-backend timeout for the aggregation fan-outs (healthz/stats/
#: metrics/problems): a wedged node must not wedge the fleet view.
AGGREGATE_TIMEOUT_S = 5.0

#: Connection-establishment timeout towards a backend.
CONNECT_TIMEOUT_S = 2.0


class BackendError(RuntimeError):
    """The backend could not produce a response (transport-level)."""


class BackendNode:
    """One routed-to backend: address, breaker, connection pool."""

    def __init__(
        self, address: str, threshold: int = 3, reset_s: float = 5.0
    ):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"backend address must be host:port, got {address!r}")
        self.address = address
        self.host = host
        self.port = int(port)
        self.breaker = CircuitBreaker(threshold=threshold, reset_s=reset_s)
        self.draining = False
        #: Idle kept-alive connections to this backend (LIFO — the most
        #: recently used socket is the least likely to have idled out).
        self.idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.requests = 0
        self.failures = 0
        #: The node_id the backend last reported (aggregation key).
        self.node_id: Optional[str] = None

    def take_connection(self):
        return self.idle.pop() if self.idle else None

    def release_connection(self, reader, writer) -> None:
        self.idle.append((reader, writer))

    def close_connections(self) -> None:
        while self.idle:
            _, writer = self.idle.pop()
            writer.close()

    def info(self) -> dict:
        return {
            "address": self.address,
            "node_id": self.node_id,
            "draining": self.draining,
            "breaker": self.breaker.state,
            "requests": self.requests,
            "failures": self.failures,
            "idle_connections": len(self.idle),
        }


async def _read_http_response(reader: asyncio.StreamReader):
    """(status, headers, body) from one backend HTTP/1.1 response."""
    status_line = await reader.readline()
    if not status_line:
        raise BackendError("backend closed the connection")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise BackendError(f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is None or not length.isdigit():
        raise BackendError("backend response without Content-Length")
    body = await reader.readexactly(int(length))
    return status, headers, body


def _request_bytes(
    method: str, path: str, host: str, body: bytes, headers: Dict[str, str]
) -> bytes:
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class FleetRouter:
    """Consistent-hash front router over N backend feedback servers."""

    def __init__(
        self,
        backends: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        default_timeout_s: float = DEFAULT_TIMEOUT_S,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        vnodes: int = DEFAULT_VNODES,
        problems: Optional[Sequence[str]] = None,
    ):
        if not backends:
            raise ValueError("a router needs at least one backend")
        self.host = host
        self.port = port
        #: Budget assumed when a request carries no ``timeout_s``; only
        #: deadline bookkeeping — an untouched body leaves the backend's
        #: own default in charge.
        self.default_timeout_s = default_timeout_s
        self.nodes: Dict[str, BackendNode] = {}
        for address in backends:
            node = BackendNode(
                address, threshold=breaker_threshold, reset_s=breaker_reset_s
            )
            if node.address in self.nodes:
                raise ValueError(f"duplicate backend {node.address}")
            self.nodes[node.address] = node
        self.ring = HashRing(self.nodes, vnodes=vnodes)
        #: Problem specs for canonicalization — parsed sources only,
        #: never verifier tables: the router stays warm-state-free.
        selected = all_problems()
        if problems is not None:
            wanted = set(problems)
            selected = [p for p in selected if p.name in wanted]
        self._specs = {problem.name: problem.spec for problem in selected}
        #: The router's own instruments, in a *private* registry: in
        #: in-process test fleets the backends share the global registry,
        #: and merging it into an aggregated scrape would double-count.
        self.registry = MetricsRegistry()
        self._requests_total = self.registry.counter(
            "repro_router_requests_total",
            help="Requests handled by the fleet router, by outcome",
            labelnames=("outcome",),
        )
        self._backend_requests = self.registry.counter(
            "repro_router_backend_requests_total",
            help="Requests proxied per backend node",
            labelnames=("backend",),
        )
        self._backend_failures = self.registry.counter(
            "repro_router_backend_failures_total",
            help="Transport failures per backend node",
            labelnames=("backend",),
        )
        self._rebalanced_total = self.registry.counter(
            "repro_router_rebalanced_total",
            help="Gradings served by a ring neighbor because the owning "
            "backend was down, draining or breaker-open",
        )
        self._proxy_seconds = self.registry.histogram(
            "repro_router_proxy_seconds",
            help="Routed /grade wall time as observed by the router",
        )
        self._started = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def serve_in_thread(self) -> threading.Thread:
        """Run the router loop on a daemon thread (tests, benchmarks).

        Returns once the listening socket is bound and ``self.port`` is
        the real port.
        """
        started = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self._start())
            except BaseException as exc:  # bind failure
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                self._teardown(loop)

        self._thread = threading.Thread(
            target=run, name="repro-fleet-router", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self._thread

    def run(self) -> None:
        """Run the router in the foreground (the CLI path)."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.run_until_complete(self._start())
        try:
            loop.run_forever()
        finally:
            self._teardown(loop)

    def _teardown(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._server is not None:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
        # Settle open client connections before the loop dies, or their
        # finalizers fire against a closed loop.
        pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        for node in self.nodes.values():
            node.close_connections()
        loop.close()

    def close(self) -> None:
        """Stop the router (idempotent; joins the serving thread)."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    # -- HTTP serving -------------------------------------------------------

    async def _serve_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    return
                except asyncio.LimitOverrunError:
                    return
                lines = head.decode("latin-1").split("\r\n")
                parts = lines[0].split()
                if len(parts) != 3:
                    return
                method, target, _version = parts
                headers: Dict[str, str] = {}
                for line in lines[1:]:
                    if not line:
                        continue
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                length_text = headers.get("content-length", "0")
                if not length_text.isdigit():
                    return
                length = int(length_text)
                if length > codec.MAX_BODY_BYTES:
                    if length <= codec.DRAIN_CAP_BYTES:
                        await reader.readexactly(length)
                        await self._respond(
                            writer,
                            400,
                            json.dumps(
                                codec.error_body(
                                    "request body must be "
                                    f"1..{codec.MAX_BODY_BYTES} bytes"
                                )
                            ).encode(),
                            close=True,
                        )
                    return
                body = await reader.readexactly(length) if length else b""
                keep_alive = headers.get("connection", "").lower() != "close"
                status, response_headers, payload = await self._dispatch(
                    method, target, headers, body
                )
                await self._respond(
                    writer,
                    status,
                    payload,
                    extra=response_headers,
                    close=not keep_alive,
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    _STATUS_TEXT = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        429: "Too Many Requests",
        502: "Bad Gateway",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }

    async def _respond(
        self,
        writer,
        status: int,
        payload: bytes,
        extra: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        reason = self._STATUS_TEXT.get(status, "Response")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            **(extra or {}),
        }
        if close:
            headers["Connection"] = "close"
        head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        writer.write(head.encode("latin-1") + b"\r\n" + payload)
        await writer.drain()

    async def _dispatch(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "POST" and path == "/grade":
            return await self._grade(headers, body)
        if method == "GET" and path == "/healthz":
            return await self._healthz()
        if method == "GET" and path == "/stats":
            return await self._stats()
        if method == "GET" and path == "/metrics":
            return await self._metrics()
        if method == "GET" and path == "/problems":
            return await self._problems()
        if method == "GET" and path == "/nodes":
            return 200, {}, self._json(self._nodes_view())
        if method == "POST" and path.startswith("/nodes/"):
            return self._node_admin(path)
        return (
            404,
            {},
            self._json(codec.error_body(f"unknown path {path!r}")),
        )

    @staticmethod
    def _json(payload: dict) -> bytes:
        return json.dumps(payload).encode("utf-8")

    # -- routing ------------------------------------------------------------

    def _route(self, key: str) -> Tuple[List[BackendNode], int]:
        """Admissible backends in ring order + how many were skipped.

        Draining and breaker-blocked nodes are skipped (an open breaker
        whose reset window elapsed admits itself as the half-open
        probe). The skip count is what the rebalance metric counts when
        a request lands on a non-owner.
        """
        admissible: List[BackendNode] = []
        skipped = 0
        for address in self.ring.preference(key):
            node = self.nodes[address]
            if node.draining or not node.breaker.allow():
                skipped += 1
                continue
            admissible.append(node)
        return admissible, skipped

    async def _grade(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        started = time.monotonic()
        try:
            request = codec.decode_grade_request(body)
        except ValueError as exc:
            self._requests_total.inc(outcome="bad_request")
            return 400, {}, self._json(codec.error_body(str(exc)))
        problem = request["problem"]
        spec = self._specs.get(problem)
        if spec is None:
            self._requests_total.inc(outcome="unknown_problem")
            return (
                404,
                {},
                self._json(
                    codec.error_body(
                        f"unknown problem {problem!r}",
                        known=sorted(self._specs),
                    )
                ),
            )
        digest = canonicalize(request["source"], spec).digest
        key = routing_key(problem, digest)
        budget = request.get("timeout_s") or self.default_timeout_s
        deadline = Deadline.after(budget)
        request_id = headers.get(codec.REQUEST_ID_HEADER.lower()) or (
            new_request_id()
        )
        forward_headers = {
            "Content-Type": "application/json",
            codec.REQUEST_ID_HEADER: request_id,
        }

        admissible, skipped = self._route(key)
        owner = self.ring.node_for(key)
        last_error: Optional[str] = None
        for node in admissible:
            remaining = deadline.remaining()
            if remaining <= 0.0:
                break
            forward_body = body
            if started and (time.monotonic() - started) > ROUTER_GRACE_S:
                # Router wear (failover, slow connects) materially ate
                # into the budget: propagate the shrunk deadline. The
                # fast path forwards the client's bytes untouched.
                shrunk = dict(request)
                shrunk["timeout_s"] = round(min(budget, remaining), 3)
                forward_body = self._json(shrunk)
            try:
                status, response_headers, payload = await self._proxy(
                    node,
                    "POST",
                    "/grade",
                    forward_body,
                    forward_headers,
                    timeout_s=remaining + WATCHDOG_GRACE_S,
                )
            except (BackendError, OSError, asyncio.TimeoutError) as exc:
                node.failures += 1
                node.breaker.record_failure()
                self._backend_failures.inc(backend=node.address)
                last_error = f"{node.address}: {type(exc).__name__}: {exc}"
                skipped += 1
                continue
            node.requests += 1
            node.breaker.record_success()
            self._backend_requests.inc(backend=node.address)
            rebalanced = node.address != owner
            if rebalanced:
                self._rebalanced_total.inc()
            self._requests_total.inc(
                outcome="rebalanced" if rebalanced else "proxied"
            )
            self._proxy_seconds.observe(time.monotonic() - started)
            out_headers = {codec.SERVED_BY_HEADER: node.address}
            echoed = response_headers.get(codec.REQUEST_ID_HEADER.lower())
            if echoed:
                out_headers[codec.REQUEST_ID_HEADER] = echoed
            retry_after = response_headers.get("retry-after")
            if retry_after:
                out_headers["Retry-After"] = retry_after
            return status, out_headers, payload

        if deadline.remaining() <= 0.0 and admissible:
            self._requests_total.inc(outcome="expired")
            return (
                504,
                {},
                self._json(
                    codec.error_body(
                        "request deadline expired inside the router",
                        request_id=request_id,
                    )
                ),
            )
        self._requests_total.inc(outcome="no_backend")
        return (
            503,
            {"Retry-After": "1"},
            self._json(
                codec.error_body(
                    "no backend available for this key",
                    retry_after_s=1,
                    skipped_backends=skipped,
                    last_error=last_error,
                )
            ),
        )

    # -- backend connections ------------------------------------------------

    async def _proxy(
        self,
        node: BackendNode,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
        timeout_s: float,
    ):
        """One request/response exchange with a backend, pooled.

        A pooled connection that dies before yielding a response byte is
        the normal end of a stale keep-alive: the exchange is retried
        once on a fresh socket (same policy as
        :class:`~repro.server.client.FeedbackClient`).
        """
        pooled = node.take_connection()
        if pooled is not None:
            try:
                return await self._exchange(
                    node, pooled, method, path, body, headers, timeout_s
                )
            except (BackendError, OSError, asyncio.IncompleteReadError):
                pass  # stale keep-alive; fall through to a fresh socket
        fresh = await asyncio.wait_for(
            asyncio.open_connection(node.host, node.port),
            timeout=CONNECT_TIMEOUT_S,
        )
        try:
            return await self._exchange(
                node, fresh, method, path, body, headers, timeout_s
            )
        except asyncio.IncompleteReadError as exc:
            raise BackendError("backend closed mid-response") from exc

    async def _exchange(
        self, node, connection, method, path, body, headers, timeout_s
    ):
        reader, writer = connection
        try:
            writer.write(
                _request_bytes(method, path, node.address, body, headers)
            )
            await writer.drain()
            status, response_headers, payload = await asyncio.wait_for(
                _read_http_response(reader), timeout=timeout_s
            )
        except BaseException:
            writer.close()
            raise
        if response_headers.get("connection", "").lower() == "close":
            writer.close()
        else:
            node.release_connection(reader, writer)
        return status, response_headers, payload

    # -- aggregation --------------------------------------------------------

    async def _fanout(self, path: str) -> Dict[str, dict]:
        """``GET path`` on every backend concurrently.

        Returns per-address ``{"ok": bool, ...}`` envelopes; a node that
        cannot answer within :data:`AGGREGATE_TIMEOUT_S` is reported
        unreachable, never awaited longer.
        """

        async def one(node: BackendNode) -> Tuple[str, dict]:
            try:
                status, _, payload = await asyncio.wait_for(
                    self._proxy(node, "GET", path, b"", {}, AGGREGATE_TIMEOUT_S),
                    timeout=AGGREGATE_TIMEOUT_S,
                )
            except (BackendError, OSError, asyncio.TimeoutError) as exc:
                return node.address, {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            if status != 200:
                return node.address, {"ok": False, "status": status}
            try:
                decoded = json.loads(payload)
            except json.JSONDecodeError:
                decoded = payload.decode("utf-8", "replace")
            return node.address, {"ok": True, "payload": decoded}

        results = await asyncio.gather(
            *(one(node) for node in self.nodes.values())
        )
        return dict(results)

    def _node_key(self, node: BackendNode, payload: Optional[dict]) -> str:
        """The aggregation key of one backend: its self-reported stable
        ``node_id`` when reachable (remembered across scrapes), else the
        router-side address."""
        if isinstance(payload, dict) and payload.get("node_id"):
            node.node_id = payload["node_id"]
        return node.node_id or node.address

    async def _healthz(self) -> Tuple[int, Dict[str, str], bytes]:
        answers = await self._fanout("/healthz")
        nodes: Dict[str, dict] = {}
        reachable = 0
        degraded = False
        for address, envelope in answers.items():
            node = self.nodes[address]
            if envelope.get("ok"):
                payload = envelope["payload"]
                reachable += 1
                if payload.get("degraded") or payload.get("status") != "ok":
                    degraded = True
            else:
                payload = {"status": "unreachable", **envelope}
                payload.pop("ok", None)
                degraded = True
            if node.draining:
                degraded = True
                payload = {**payload, "draining": True}
            nodes[self._node_key(node, envelope.get("payload"))] = payload
        breakers_open = [
            node.address
            for node in self.nodes.values()
            if node.breaker.state != "closed"
        ]
        if breakers_open:
            degraded = True
        payload = {
            "status": "degraded" if degraded else "ok",
            "role": "router",
            "degraded": degraded,
            "backends": len(self.nodes),
            "backends_reachable": reachable,
            "backends_draining": sorted(
                node.address for node in self.nodes.values() if node.draining
            ),
            "breakers_open": sorted(breakers_open),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "nodes": nodes,
        }
        return 200, {}, self._json(payload)

    #: Service counters summed into the fleet-wide ``/stats`` totals.
    _TOTAL_KEYS = (
        "requests",
        "graded",
        "cache_hits",
        "dedup_hits",
        "degraded",
        "triaged",
        "rejected",
        "errors",
    )

    async def _stats(self) -> Tuple[int, Dict[str, str], bytes]:
        answers = await self._fanout("/stats")
        nodes: Dict[str, dict] = {}
        totals = {key: 0 for key in self._TOTAL_KEYS}
        for address, envelope in answers.items():
            node = self.nodes[address]
            payload = (
                envelope["payload"]
                if envelope.get("ok")
                else {"unreachable": True}
            )
            nodes[self._node_key(node, envelope.get("payload"))] = payload
            for key in self._TOTAL_KEYS:
                value = payload.get(key)
                if isinstance(value, (int, float)):
                    totals[key] += value
        payload = {
            "role": "router",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "router": self._router_stats(),
            "totals": totals,
            "nodes": nodes,
        }
        return 200, {}, self._json(payload)

    def _router_stats(self) -> dict:
        outcomes = {
            key[0]: value
            for key, value in self._requests_total._values.items()
        }
        return {
            "backends": {
                node.address: node.info() for node in self.nodes.values()
            },
            "ring": {
                "nodes": self.ring.nodes,
                "vnodes": self.ring.vnodes,
            },
            "requests": outcomes,
            "rebalanced": self._rebalanced_total.value(),
            "problems": sorted(self._specs),
        }

    async def _metrics(self) -> Tuple[int, Dict[str, str], bytes]:
        answers = await self._fanout("/metrics")
        merged = MetricsRegistry()
        unreachable = 0
        for envelope in answers.values():
            if not envelope.get("ok"):
                unreachable += 1
                continue
            text = envelope["payload"]
            if isinstance(text, str):
                merged.merge(parse_exposition(text))
        self.registry.gauge(
            "repro_router_backends", help="Backends configured"
        ).set(len(self.nodes))
        self.registry.gauge(
            "repro_router_backends_unreachable",
            help="Backends that failed the last scrape",
        ).set(unreachable)
        self.registry.gauge(
            "repro_router_backends_draining", help="Backends draining"
        ).set(sum(1 for node in self.nodes.values() if node.draining))
        self.registry.gauge(
            "repro_router_breakers_open",
            help="Backend circuit breakers not closed",
        ).set(
            sum(
                1
                for node in self.nodes.values()
                if node.breaker.state != "closed"
            )
        )
        self.registry.gauge(
            "repro_router_uptime_seconds", help="Router uptime"
        ).set(round(time.monotonic() - self._started, 3))
        merged.merge(self.registry.snapshot())
        body = render_exposition(merged.snapshot()).encode("utf-8")
        return 200, {"Content-Type": METRICS_CONTENT_TYPE}, body

    async def _problems(self) -> Tuple[int, Dict[str, str], bytes]:
        """Pass ``GET /problems`` through the first reachable backend
        (every backend warms the same registry slice)."""
        for node in self.nodes.values():
            try:
                status, _, payload = await self._proxy(
                    node, "GET", "/problems", b"", {}, AGGREGATE_TIMEOUT_S
                )
            except (BackendError, OSError, asyncio.TimeoutError):
                continue
            if status == 200:
                return 200, {codec.SERVED_BY_HEADER: node.address}, payload
        return (
            503,
            {},
            self._json(codec.error_body("no backend reachable")),
        )

    # -- node administration ------------------------------------------------

    def _nodes_view(self) -> dict:
        return {
            "backends": {
                node.address: node.info() for node in self.nodes.values()
            },
            "ring": {"nodes": self.ring.nodes, "vnodes": self.ring.vnodes},
        }

    def _node_admin(self, path: str) -> Tuple[int, Dict[str, str], bytes]:
        parts = path.split("/")  # ['', 'nodes', '<name>', '<verb>']
        if len(parts) != 4 or parts[3] not in ("drain", "undrain"):
            return (
                404,
                {},
                self._json(codec.error_body(f"unknown path {path!r}")),
            )
        name, verb = parts[2], parts[3]
        node = self.nodes.get(name)
        if node is None:
            by_id = [n for n in self.nodes.values() if n.node_id == name]
            node = by_id[0] if len(by_id) == 1 else None
        if node is None:
            return (
                404,
                {},
                self._json(
                    codec.error_body(
                        f"unknown backend {name!r}",
                        known=sorted(self.nodes),
                    )
                ),
            )
        node.draining = verb == "drain"
        return 200, {}, self._json(node.info())
