"""Differential suite: fleet responses ≡ single warm server responses.

The router must be an *indirection*, never a reinterpretation: for every
registry problem, the record that comes back through router + hash ring
+ backend is byte-for-byte identical (modulo wall time, via
:func:`~repro.service.records.comparable_record`) to the one a single
warm server produces for the same source — under both grading
executors. The Fig. 2 computeDeriv trio pins real solves (status
``fixed``, the paper's costs) across the routing boundary.
"""

import json

import pytest

from repro.fleet import FleetRouter
from repro.problems import all_problems, get_problem
from repro.server import (
    FeedbackClient,
    FeedbackHTTPServer,
    FeedbackService,
    warm_registry,
)
from repro.service import GradingConfig
from repro.service.records import comparable_record

TIMEOUT_S = 30.0

FIG2 = {
    "fig2a": """def computeDeriv(poly):
    deriv = []
    zero = 0
    if (len(poly) == 1):
        return deriv
    for e in range(0,len(poly)):
        if (poly[e] == 0):
            zero += 1
        else:
            deriv.append(poly[e]*e)
    return deriv
""",
    "fig2b": """def computeDeriv(poly):
    idx = 1
    deriv = list([])
    plen = len(poly)
    while idx < plen:
        coeff = poly.pop(1)
        deriv += [coeff * idx]
        idx = idx + 1
    if len(poly) < 2:
        return deriv
""",
    "fig2c": """def computeDeriv(poly):
    length = int(len(poly)-1)
    i = length
    deriv = range(1,length)
    if len(poly) == 1:
        deriv = [0]
    else:
        while i >= 0:
            new = poly[i] * i
            i -= 1
            deriv[i] = new
    return deriv
""",
}


def canonical_bytes(record: dict) -> bytes:
    return json.dumps(comparable_record(record), sort_keys=True).encode()


@pytest.fixture(scope="module")
def warmup():
    return warm_registry()


@pytest.fixture(scope="module", params=["thread", "process"])
def tiers(request, warmup):
    """One direct server and one 2-backend fleet, same executor.

    Every service shares the module's warmup, primed once: a process
    pool forks from it rather than warming its own copy.
    """
    executor = request.param
    kwargs = dict(
        warmup=warmup,
        jobs=2,
        config=GradingConfig(timeout_s=TIMEOUT_S),
        executor=executor,
    )
    if executor == "process":
        kwargs.update(jobs=1)  # one worker per service; requests are sequential
    direct_service = FeedbackService(node_id="direct", **kwargs)
    backend_a = FeedbackService(node_id="fleet-a", **kwargs)
    backend_b = FeedbackService(node_id="fleet-b", **kwargs)
    servers = [
        FeedbackHTTPServer(service, port=0)
        for service in (direct_service, backend_a, backend_b)
    ]
    for server in servers:
        server.serve_in_thread()
    direct_http, http_a, http_b = servers
    router = FleetRouter(
        [f"127.0.0.1:{http_a.port}", f"127.0.0.1:{http_b.port}"]
    )
    router.serve_in_thread()
    direct = FeedbackClient("127.0.0.1", direct_http.port, timeout_s=120.0)
    fleet = FeedbackClient("127.0.0.1", router.port, timeout_s=120.0)
    yield direct, fleet
    direct.close()
    fleet.close()
    router.close()
    for server in servers:
        server.shutdown_gracefully(drain=False)


@pytest.mark.parametrize(
    "name", [problem.name for problem in all_problems()]
)
def test_reference_record_identical_through_the_fleet(tiers, name):
    """Every registry problem: the reference source, routed vs direct."""
    direct, fleet = tiers
    source = get_problem(name).spec.reference_source
    straight = direct.grade(name, source, timeout_s=TIMEOUT_S)
    routed = fleet.grade(name, source, timeout_s=TIMEOUT_S)
    assert straight["record"]["status"] == "already_correct"
    assert canonical_bytes(straight["record"]) == canonical_bytes(
        routed["record"]
    )
    # Both tiers truly graded: neither served the other's cache.
    assert not straight["cached"] and not routed["cached"]


@pytest.mark.parametrize("name", list(FIG2))
def test_fig2_record_identical_through_the_fleet(tiers, name):
    """Real solves across the routing boundary, costs per the paper."""
    direct, fleet = tiers
    straight = direct.grade("compDeriv-6.00x", FIG2[name], timeout_s=TIMEOUT_S)
    routed = fleet.grade("compDeriv-6.00x", FIG2[name], timeout_s=TIMEOUT_S)
    assert straight["record"]["status"] == "fixed"
    assert canonical_bytes(straight["record"]) == canonical_bytes(
        routed["record"]
    )


def test_fig2_costs_match_the_paper_through_the_fleet(tiers):
    _, fleet = tiers
    costs = {
        name: fleet.grade(
            "compDeriv-6.00x", source, timeout_s=TIMEOUT_S
        )["record"]["cost"]
        for name, source in FIG2.items()
    }
    assert costs == {"fig2a": 2, "fig2b": 1, "fig2c": 2}


def test_routing_spread_both_backends_graded(tiers):
    """After the per-problem sweep, the ring must have used both
    backends — a router funneling everything to one node would still
    pass byte-identity."""
    _, fleet = tiers
    stats = fleet.stats()
    served = {
        node: payload.get("graded", 0)
        for node, payload in stats["nodes"].items()
    }
    assert set(served) == {"fleet-a", "fleet-b"}
    assert all(count > 0 for count in served.values()), served


def test_fleet_cache_hits_are_routed_to_the_same_node(tiers):
    """A resubmission (same canonical form) must land on the node that
    graded it first and come back a cache hit."""
    _, fleet = tiers
    name = "evalPoly-6.00x"
    source = get_problem(name).spec.reference_source
    again = fleet.grade(name, source, timeout_s=TIMEOUT_S)
    assert again["cached"] is True
