"""The fleet front router against scripted fake backends.

Real-backend behavior (byte-identical records, executor parity) lives
in the differential suite; here the backends are tiny scripted HTTP
servers, so each property of the *router itself* — byte-exact
forwarding, ring placement, failover and rebalance, draining,
aggregation keyed by ``node_id``, metrics merging, deadline rewrite —
is tested in milliseconds and in isolation.
"""

import http.client
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.fleet import FleetRouter
from repro.fleet.ring import routing_key
from repro.server.client import FeedbackClient, ServerError
from repro.server.codec import MAX_BODY_BYTES, SERVED_BY_HEADER
from repro.service.canonical import canonicalize
from repro.problems import get_problem

PROBLEM = "evalPoly-6.00x"

#: Sources that parse under the evalPoly spec (routing needs only the
#: canonical hash, not a gradable submission).
SOURCES = [
    f"def evalPoly(poly, x):\n    return {i}\n" for i in range(12)
]


class FakeBackend:
    """A scripted backend: canned responses, request capture."""

    def __init__(self, node_id, *, healthy=True, counter=7.0, hang_up=False):
        backend = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                # Remembered so stop() can sever kept-alive sockets the
                # way a real process death would.
                backend.connections.append(self.connection)

            def log_message(self, *args):
                pass

            def _send(self, status, payload, content_type="application/json"):
                body = (
                    payload
                    if isinstance(payload, bytes)
                    else json.dumps(payload).encode()
                )
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                request_id = self.headers.get("X-Request-Id")
                if request_id:
                    self.send_header("X-Request-Id", request_id)
                self.end_headers()
                self.wfile.write(body)
                if backend.hang_up:
                    # Close after the reply without saying so, the way a
                    # backend's idle keep-alive timeout would.
                    self.close_connection = True

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                backend.grade_bodies.append(body)
                backend.requests += 1
                self._send(
                    200,
                    {
                        "record": {"v": 1, "status": "fixed", "from": node_id},
                        "key": "k",
                        "cached": False,
                        "deduped": False,
                        "wall_time": 0.01,
                    },
                )

            def do_GET(self):
                backend.requests += 1
                if self.path == "/healthz":
                    self._send(
                        200,
                        {
                            "status": "ok" if backend.healthy else "draining",
                            "node_id": node_id,
                            "degraded": not backend.healthy,
                        },
                    )
                elif self.path == "/stats":
                    self._send(
                        200,
                        {
                            "node_id": node_id,
                            "requests": 10,
                            "graded": 4,
                            "cache_hits": 5,
                            "errors": 0,
                        },
                    )
                elif self.path == "/metrics":
                    text = (
                        "# TYPE repro_requests_total counter\n"
                        f"repro_requests_total {backend.counter}\n"
                    )
                    self._send(
                        200,
                        text.encode(),
                        content_type="text/plain; version=0.0.4",
                    )
                elif self.path == "/problems":
                    self._send(200, {"problems": [{"name": PROBLEM}]})
                else:
                    self._send(404, {"error": "nope"})

        self.node_id = node_id
        self.healthy = healthy
        self.hang_up = hang_up
        self.counter = counter
        self.requests = 0
        self.grade_bodies = []
        self.connections = []
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    @property
    def address(self):
        return f"127.0.0.1:{self.port}"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        for connection in self.connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
                connection.close()
            except OSError:
                pass


@pytest.fixture()
def fleet():
    backends = [FakeBackend("alpha"), FakeBackend("beta", counter=3.0)]
    router = FleetRouter(
        [backend.address for backend in backends],
        problems=[PROBLEM],
        breaker_threshold=2,
        breaker_reset_s=60.0,
    )
    router.serve_in_thread()
    client = FeedbackClient("127.0.0.1", router.port, timeout_s=10.0)
    yield router, backends, client
    client.close()
    router.close()
    for backend in backends:
        backend.stop()


def owner_of(router, source):
    digest = canonicalize(source, get_problem(PROBLEM).spec).digest
    return router.ring.node_for(routing_key(PROBLEM, digest))


def backend_by_address(backends, address):
    return next(b for b in backends if b.address == address)


def test_grade_forwards_the_clients_bytes_untouched(fleet):
    """Fast path: the backend receives the client's exact request bytes
    (rewriting would fracture cache keys), and the backend's payload
    comes back annotated with X-Served-By."""
    router, backends, client = fleet
    result = client.grade(PROBLEM, SOURCES[0], timeout_s=30.0)
    assert result["record"]["status"] == "fixed"
    expected_owner = owner_of(router, SOURCES[0])
    served_by = backend_by_address(backends, expected_owner)
    assert [json.loads(b) for b in served_by.grade_bodies] == [
        {"problem": PROBLEM, "source": SOURCES[0], "timeout_s": 30.0}
    ]
    # Byte-level: exactly what the client's codec produced.
    sent = served_by.grade_bodies[0]
    assert sent == json.dumps(
        {"problem": PROBLEM, "source": SOURCES[0], "timeout_s": 30.0}
    ).encode()


def test_served_by_header_names_the_ring_owner(fleet):
    router, backends, client = fleet
    raw = client._request  # header access needs the raw response
    # FeedbackClient discards headers; go through http.client directly.
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", router.port, timeout=10)
    body = json.dumps({"problem": PROBLEM, "source": SOURCES[1]})
    conn.request(
        "POST", "/grade", body=body.encode(),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    response.read()
    assert response.getheader(SERVED_BY_HEADER) == owner_of(
        router, SOURCES[1]
    )
    conn.close()


def test_routing_is_deterministic_and_uses_both_backends(fleet):
    router, backends, client = fleet
    for source in SOURCES:
        client.grade(PROBLEM, source)
        client.grade(PROBLEM, source)
    counts = {b.node_id: len(b.grade_bodies) for b in backends}
    # Every repeat went to the same backend as its first grading...
    assert sum(counts.values()) == 2 * len(SOURCES)
    for source in SOURCES:
        owner = backend_by_address(backends, owner_of(router, source))
        matching = [
            b
            for b in owner.grade_bodies
            if json.loads(b)["source"] == source
        ]
        assert len(matching) == 2
    # ...and 12 distinct submissions spread over both nodes.
    assert all(count > 0 for count in counts.values())


def test_bad_request_never_reaches_a_backend(fleet):
    router, backends, client = fleet
    with pytest.raises(ServerError) as err:
        client._request("POST", "/grade", {"problem": PROBLEM})
    assert err.value.status == 400
    with pytest.raises(ServerError) as err:
        client._request(
            "POST", "/grade", {"problem": PROBLEM, "source": "x", "bogus": 1}
        )
    assert err.value.status == 400
    assert all(not backend.grade_bodies for backend in backends)


def test_unknown_problem_404_with_known_list(fleet):
    router, backends, client = fleet
    with pytest.raises(ServerError) as err:
        client.grade("not-a-problem", "def f():\n    return 1\n")
    assert err.value.status == 404
    assert err.value.payload["known"] == [PROBLEM]
    assert all(not backend.grade_bodies for backend in backends)


def test_healthz_aggregates_by_node_id(fleet):
    router, backends, client = fleet
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["role"] == "router"
    assert health["backends"] == 2
    assert health["backends_reachable"] == 2
    assert sorted(health["nodes"]) == ["alpha", "beta"]
    backends[1].healthy = False
    degraded = client.healthz()
    assert degraded["status"] == "degraded"
    assert degraded["nodes"]["beta"]["degraded"] is True


def test_stats_aggregates_totals_and_router_section(fleet):
    router, backends, client = fleet
    client.grade(PROBLEM, SOURCES[2])
    stats = client.stats()
    assert sorted(stats["nodes"]) == ["alpha", "beta"]
    assert stats["totals"]["requests"] == 20  # 10 per scripted backend
    assert stats["totals"]["cache_hits"] == 10
    assert stats["router"]["requests"].get("proxied", 0) >= 1
    assert stats["router"]["ring"]["nodes"] == sorted(
        backend.address for backend in backends
    )
    assert stats["router"]["problems"] == [PROBLEM]


def test_metrics_merges_backend_expositions_with_router_counters(fleet):
    router, backends, client = fleet
    client.grade(PROBLEM, SOURCES[3])
    text = client.metrics()
    # Backend counters summed across the fleet: 7 + 3.
    assert "repro_requests_total 10" in text
    assert "# TYPE repro_requests_total counter" in text
    # The router's own instruments ride along.
    assert 'repro_router_requests_total{outcome="proxied"}' in text
    assert "repro_router_backends 2" in text
    assert "repro_router_proxy_seconds_count" in text


def test_drain_takes_a_backend_out_of_routing(fleet):
    router, backends, client = fleet
    target = owner_of(router, SOURCES[4])
    drained = client.drain_node(target)  # bodyless POST
    assert drained["draining"] is True
    client.grade(PROBLEM, SOURCES[4])
    survivor = backend_by_address(
        backends,
        next(b.address for b in backends if b.address != target),
    )
    assert len(survivor.grade_bodies) == 1
    assert len(backend_by_address(backends, target).grade_bodies) == 0
    # Rebalance is visible in the router's own stats.
    nodes = client.nodes()
    assert nodes["backends"][target]["draining"] is True
    client.drain_node(target, drain=False)
    client.grade(PROBLEM, SOURCES[4])
    assert len(backend_by_address(backends, target).grade_bodies) == 1


def test_drain_by_node_id_resolves_to_the_backend(fleet):
    router, backends, client = fleet
    client.healthz()  # teaches the router each backend's node_id
    drained = client.drain_node("alpha")
    assert drained["node_id"] == "alpha"
    assert drained["draining"] is True
    client.drain_node("alpha", drain=False)
    with pytest.raises(ServerError) as err:
        client.drain_node("gamma")
    assert err.value.status == 404


def test_node_loss_rebalances_onto_the_survivor(fleet):
    router, backends, client = fleet
    victim_address = owner_of(router, SOURCES[5])
    victim = backend_by_address(backends, victim_address)
    survivor = next(b for b in backends if b.address != victim_address)
    client.healthz()  # router learns node_ids while everyone is alive
    victim.stop()
    for _ in range(3):
        result = client.grade(PROBLEM, SOURCES[5])
        assert result["record"]["from"] == survivor.node_id
    # breaker_threshold=2: the victim's breaker is open by now, so the
    # later gradings never even dialed it.
    assert router.nodes[victim_address].breaker.state == "open"
    stats = client.stats()
    assert stats["router"]["rebalanced"] >= 3
    assert stats["router"]["requests"].get("rebalanced", 0) >= 1
    health = client.healthz()
    assert health["status"] == "degraded"
    assert health["backends_reachable"] == 1
    assert health["nodes"][victim.node_id]["status"] == "unreachable"


def test_grace_expired_rewrites_the_forwarded_deadline(fleet, monkeypatch):
    """Once router wear exceeds the grace, the forwarded timeout_s
    shrinks to the remaining budget instead of restarting the clock."""
    import repro.fleet.router as router_module

    router, backends, client = fleet
    monkeypatch.setattr(router_module, "ROUTER_GRACE_S", -1.0)
    client.grade(PROBLEM, SOURCES[6], timeout_s=30.0)
    owner = backend_by_address(backends, owner_of(router, SOURCES[6]))
    forwarded = json.loads(owner.grade_bodies[-1])
    assert 0.0 < forwarded["timeout_s"] <= 30.0


def test_keepalive_connections_survive_many_requests(fleet):
    router, backends, client = fleet
    for _ in range(20):
        client.healthz()
    assert client.stats()["role"] == "router"


def test_concurrent_clients_are_each_proxied_once(fleet):
    router, backends, client = fleet
    errors = []

    def student(source):
        own = FeedbackClient("127.0.0.1", router.port, timeout_s=10.0)
        try:
            for _ in range(5):
                own.grade(PROBLEM, source)
        except Exception as exc:  # collected for the assertion below
            errors.append(exc)
        finally:
            own.close()

    threads = [
        threading.Thread(target=student, args=(source,))
        for source in SOURCES[:8]
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: lost updates show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sum(len(backend.grade_bodies) for backend in backends) == 40
    assert sum(node.requests for node in router.nodes.values()) == 40
    assert client.stats()["router"]["requests"]["proxied"] == 40


def test_close_severs_kept_alive_client_connections(fleet):
    router, backends, client = fleet
    client.healthz()  # the client's connection is now kept alive
    router.close()
    with pytest.raises((OSError, http.client.HTTPException)):
        client.grade(PROBLEM, SOURCES[7])
    assert all(not backend.grade_bodies for backend in backends)


def test_a_stale_pooled_backend_connection_is_retried_once():
    backend = FakeBackend("alpha", hang_up=True)
    router = FleetRouter([backend.address], problems=[PROBLEM])
    router.serve_in_thread()
    client = FeedbackClient("127.0.0.1", router.port, timeout_s=10.0)
    try:
        for source in SOURCES[:3]:
            client.grade(PROBLEM, source)
    finally:
        client.close()
        router.close()
        backend.stop()
    sources = [json.loads(body)["source"] for body in backend.grade_bodies]
    assert sources == SOURCES[:3]
    assert router.nodes[backend.address].failures == 0


def test_an_oversized_body_is_refused_and_never_forwarded(fleet):
    router, backends, client = fleet
    conn = http.client.HTTPConnection("127.0.0.1", router.port, timeout=10)
    try:
        conn.request(
            "POST", "/grade", body=b"x" * (MAX_BODY_BYTES + 1),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert response.getheader("Connection") == "close"
    assert "request body must be" in payload["error"]
    assert all(not backend.grade_bodies for backend in backends)


def test_router_requires_backends_and_rejects_duplicates():
    with pytest.raises(ValueError):
        FleetRouter([])
    with pytest.raises(ValueError):
        FleetRouter(["127.0.0.1:1", "127.0.0.1:1"])
    with pytest.raises(ValueError):
        FleetRouter(["no-port-here"])
