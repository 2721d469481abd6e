"""The fleet front: a threaded stdlib HTTP router.

One router process holds the student connections while the CPU work
happens in backend server processes it proxies to; the router runs no
grading at all. Both tiers speak HTTP/1.1 through the same two modules:
the router serves on a ``ThreadingHTTPServer`` (a thread per
connection, like the backends' :class:`~repro.server.http.
FeedbackHTTPServer`) with a handler that subclasses
:class:`~repro.server.http.JSONRequestHandler`, and it calls each
backend over a per-node pool of kept-alive
:class:`~repro.server.client.FeedbackClient` connections, whose
:meth:`~repro.server.client.FeedbackClient.exchange` owns framing and
the stale-connection retry.

Routing: ``POST /grade`` bodies are validated with the shared
:mod:`repro.server.codec`, the submission is canonicalized (a
sub-millisecond pure-CPU parse — the one piece of grading knowledge the
router has), and ``(problem, canonical hash)`` is placed on the
:class:`~repro.fleet.ring.HashRing`. The winning backend gets the
request over a pooled keep-alive connection; its response body passes
through byte-for-byte (plus an ``X-Served-By`` header), so a
router-fronted fleet is record-identical to a direct backend by
construction.

Resilience (the service's primitives, one tier up):

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
every backend concurrently (a thread per backend) and merge — stats and
health keyed by each backend's stable ``node_id``, metrics parsed from
each backend's exposition text (:func:`repro.obs.prometheus.parse`) and
folded into one fleet-wide scrape together with the router's own
``repro_router_*`` instruments.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
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
from repro.server.client import FeedbackClient
from repro.server.http import JSON_CONTENT_TYPE, Headers, JSONRequestHandler
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

#: How often the serving loop looks for a ``close()``: the longest a
#: close waits for it.
SERVE_POLL_S = 0.05

#: What a backend exchange raises when the backend cannot answer:
#: refused, reset, timed out or garbled.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: ``(status, headers, body)`` of one router response.
Response = Tuple[int, Dict[str, str], bytes]


class BackendNode:
    """One routed-to backend: address, breaker, idle connections."""

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
        #: Clients with an idle kept-alive connection to this backend
        #: (LIFO — the most recently used socket is the least likely to
        #: have idled out).
        self.idle: List[FeedbackClient] = []
        self.requests = 0
        self.failures = 0
        #: The node_id the backend last reported (aggregation key).
        self.node_id: Optional[str] = None

    def close_connections(self) -> None:
        while self.idle:
            self.idle.pop().close()

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


class _RouterHandler(JSONRequestHandler):
    """Reads one request and writes back what the router answers."""

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route_request("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._route_request("POST")

    def _route_request(self, method: str) -> None:
        try:
            # POST /nodes/<name>/drain has no body.
            body = self.read_body(required=False)
        except ValueError as exc:
            self._error(400, str(exc), close=True)
            return
        router: FleetRouter = self.server.router  # type: ignore[attr-defined]
        status, headers, payload = router.dispatch(
            method, self.path, self.headers, body
        )
        content_type = headers.pop("Content-Type", JSON_CONTENT_TYPE)
        self.send_bytes(status, payload, content_type, headers.items())


class _RouterServer(ThreadingHTTPServer):
    """The router's listening socket; remembers open client connections
    so :meth:`FleetRouter.close` can sever the kept-alive ones."""

    daemon_threads = True
    verbose = False

    def __init__(self, router: "FleetRouter", host: str, port: int):
        self.router = router
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__((host, port), _RouterHandler)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def sever(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


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
        #: Guards every node's breaker, counts, drain flag and idle pool.
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False
        self._server = _RouterServer(self, host, port)
        self.port: int = self._server.server_address[1]

    # -- lifecycle ----------------------------------------------------------

    def serve_in_thread(self) -> threading.Thread:
        """Serve on a daemon thread (tests, benchmarks)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(SERVE_POLL_S,),
            name="repro-fleet-router",
            daemon=True,
        )
        self._thread.start()
        return self._thread

    def run(self) -> None:
        """Serve in the foreground (the CLI path) until closed."""
        self._serving = True
        try:
            self._server.serve_forever(SERVE_POLL_S)
        finally:
            self.close()

    def close(self) -> None:
        """Stop the router (idempotent): stop serving, sever kept-alive
        client connections, close the pooled backend connections."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._serving:
            self._server.shutdown()
        self._server.sever()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        with self._lock:
            for node in self.nodes.values():
                node.close_connections()

    # -- HTTP serving -------------------------------------------------------

    def dispatch(
        self, method: str, target: str, headers: Headers, body: bytes
    ) -> Response:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "POST" and path == "/grade":
            return self._grade(headers, body)
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/stats":
            return self._stats()
        if method == "GET" and path == "/metrics":
            return self._metrics()
        if method == "GET" and path == "/problems":
            return self._problems()
        if method == "GET" and path == "/nodes":
            return 200, {}, self._json(self._nodes_view())
        if method == "POST" and path.startswith("/nodes/"):
            return self._node_admin(path)
        return self._error(404, f"unknown path {path!r}")

    @staticmethod
    def _json(payload: dict) -> bytes:
        return json.dumps(payload).encode("utf-8")

    def _error(
        self, status: int, message: str, headers: Optional[dict] = None, **extra
    ) -> Response:
        return status, headers or {}, self._json(codec.error_body(message, **extra))

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
        with self._lock:
            for address in self.ring.preference(key):
                node = self.nodes[address]
                if node.draining or not node.breaker.allow():
                    skipped += 1
                    continue
                admissible.append(node)
        return admissible, skipped

    def _grade(self, headers: Headers, body: bytes) -> Response:
        started = time.monotonic()
        try:
            request = codec.decode_grade_request(body)
        except ValueError as exc:
            self._requests_total.inc(outcome="bad_request")
            return self._error(400, str(exc))
        problem = request["problem"]
        spec = self._specs.get(problem)
        if spec is None:
            self._requests_total.inc(outcome="unknown_problem")
            return self._error(
                404, f"unknown problem {problem!r}", known=sorted(self._specs)
            )
        digest = canonicalize(request["source"], spec).digest
        key = routing_key(problem, digest)
        budget = request.get("timeout_s") or self.default_timeout_s
        deadline = Deadline.after(budget)
        request_id = headers.get(codec.REQUEST_ID_HEADER) or new_request_id()
        forward_headers = {
            "Content-Type": JSON_CONTENT_TYPE,
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
            if time.monotonic() - started > ROUTER_GRACE_S:
                # Router wear (failover, slow connects) materially ate
                # into the budget: propagate the shrunk deadline. The
                # fast path forwards the client's bytes untouched.
                shrunk = dict(request)
                shrunk["timeout_s"] = round(min(budget, remaining), 3)
                forward_body = self._json(shrunk)
            try:
                status, response_headers, payload = self._call(
                    node,
                    "POST",
                    "/grade",
                    forward_body,
                    forward_headers,
                    timeout_s=remaining + WATCHDOG_GRACE_S,
                )
            except TRANSPORT_ERRORS as exc:
                with self._lock:
                    node.failures += 1
                    node.breaker.record_failure()
                self._backend_failures.inc(backend=node.address)
                last_error = f"{node.address}: {type(exc).__name__}: {exc}"
                skipped += 1
                continue
            with self._lock:
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
            return self._error(
                504,
                "request deadline expired inside the router",
                request_id=request_id,
            )
        self._requests_total.inc(outcome="no_backend")
        return self._error(
            503,
            "no backend available for this key",
            {"Retry-After": "1"},
            retry_after_s=1,
            skipped_backends=skipped,
            last_error=last_error,
        )

    def _call(
        self,
        node: BackendNode,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout_s: float = AGGREGATE_TIMEOUT_S,
    ) -> Response:
        """One exchange with ``node`` on a pooled connection.

        A client whose exchange raised has closed its connection and is
        dropped; one that answered goes back to the pool.
        """
        with self._lock:
            client = node.idle.pop() if node.idle else FeedbackClient(
                node.host, node.port, timeout_s=CONNECT_TIMEOUT_S
            )
        response = client.exchange(method, path, body, headers, timeout_s)
        with self._lock:
            if self._closed:
                client.close()
            else:
                node.idle.append(client)
        return response

    # -- aggregation --------------------------------------------------------

    def _fanout(self, path: str) -> Dict[str, dict]:
        """``GET path`` on every backend concurrently.

        Returns per-address ``{"ok": bool, ...}`` envelopes; a node that
        cannot answer within :data:`AGGREGATE_TIMEOUT_S` is reported
        unreachable, never awaited longer.
        """

        def one(node: BackendNode) -> Tuple[str, dict]:
            try:
                status, _, payload = self._call(node, "GET", path)
            except TRANSPORT_ERRORS as exc:
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

        with ThreadPoolExecutor(max_workers=len(self.nodes)) as pool:
            return dict(pool.map(one, self.nodes.values()))

    def _node_key(self, node: BackendNode, payload: Optional[dict]) -> str:
        """The aggregation key of one backend: its self-reported stable
        ``node_id`` when reachable (remembered across scrapes), else the
        router-side address."""
        if isinstance(payload, dict) and payload.get("node_id"):
            node.node_id = payload["node_id"]
        return node.node_id or node.address

    def _flags(self) -> Tuple[List[str], List[str]]:
        """The draining backends and those whose breaker is not closed."""
        with self._lock:
            draining = [a for a, n in self.nodes.items() if n.draining]
            tripped = [
                a for a, n in self.nodes.items() if n.breaker.state != "closed"
            ]
        return sorted(draining), sorted(tripped)

    def _healthz(self) -> Response:
        answers = self._fanout("/healthz")
        draining, breakers_open = self._flags()
        nodes: Dict[str, dict] = {}
        reachable = 0
        degraded = bool(breakers_open)
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
            if address in draining:
                degraded = True
                payload = {**payload, "draining": True}
            nodes[self._node_key(node, envelope.get("payload"))] = payload
        payload = {
            "status": "degraded" if degraded else "ok",
            "role": "router",
            "degraded": degraded,
            "backends": len(self.nodes),
            "backends_reachable": reachable,
            "backends_draining": draining,
            "breakers_open": breakers_open,
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

    def _stats(self) -> Response:
        answers = self._fanout("/stats")
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
        counted = self.registry.snapshot()["repro_router_requests_total"]
        outcomes = {key[0]: value for key, value in counted["values"].items()}
        return {
            **self._nodes_view(),
            "requests": outcomes,
            "rebalanced": self._rebalanced_total.value(),
            "problems": sorted(self._specs),
        }

    def _metrics(self) -> Response:
        answers = self._fanout("/metrics")
        merged = MetricsRegistry()
        unreachable = 0
        for envelope in answers.values():
            if not envelope.get("ok"):
                unreachable += 1
                continue
            text = envelope["payload"]
            if isinstance(text, str):
                merged.merge(parse_exposition(text))
        draining, tripped = self._flags()
        self.registry.gauge(
            "repro_router_backends", help="Backends configured"
        ).set(len(self.nodes))
        self.registry.gauge(
            "repro_router_backends_unreachable",
            help="Backends that failed the last scrape",
        ).set(unreachable)
        self.registry.gauge(
            "repro_router_backends_draining", help="Backends draining"
        ).set(len(draining))
        self.registry.gauge(
            "repro_router_breakers_open",
            help="Backend circuit breakers not closed",
        ).set(len(tripped))
        self.registry.gauge(
            "repro_router_uptime_seconds", help="Router uptime"
        ).set(round(time.monotonic() - self._started, 3))
        merged.merge(self.registry.snapshot())
        body = render_exposition(merged.snapshot()).encode("utf-8")
        return 200, {"Content-Type": METRICS_CONTENT_TYPE}, body

    def _problems(self) -> Response:
        """Pass ``GET /problems`` through the first reachable backend
        (every backend warms the same registry slice)."""
        for node in self.nodes.values():
            try:
                status, _, payload = self._call(node, "GET", "/problems")
            except TRANSPORT_ERRORS:
                continue
            if status == 200:
                return 200, {codec.SERVED_BY_HEADER: node.address}, payload
        return self._error(503, "no backend reachable")

    # -- node administration ------------------------------------------------

    def _nodes_view(self) -> dict:
        with self._lock:
            backends = {
                node.address: node.info() for node in self.nodes.values()
            }
        return {
            "backends": backends,
            "ring": {"nodes": self.ring.nodes, "vnodes": self.ring.vnodes},
        }

    def _node_admin(self, path: str) -> Response:
        parts = path.split("/")  # ['', 'nodes', '<name>', '<verb>']
        if len(parts) != 4 or parts[3] not in ("drain", "undrain"):
            return self._error(404, f"unknown path {path!r}")
        name, verb = parts[2], parts[3]
        node = self.nodes.get(name)
        if node is None:
            by_id = [n for n in self.nodes.values() if n.node_id == name]
            node = by_id[0] if len(by_id) == 1 else None
        if node is None:
            return self._error(
                404, f"unknown backend {name!r}", known=sorted(self.nodes)
            )
        with self._lock:
            node.draining = verb == "drain"
            info = node.info()
        return 200, {}, self._json(info)
