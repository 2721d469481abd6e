"""Differential suite: server responses ≡ direct pipeline records.

The server must be an *amortization* of :func:`~repro.core.api.
generate_feedback`, never a reinterpretation: for every registry problem,
under both execution backends, the record coming back over HTTP is
byte-for-byte identical (modulo wall time) to grading the same source
directly. The Fig. 2 class is the CI smoke: the three computeDeriv
submissions from the paper, graded over HTTP, must reproduce the paper's
fixes exactly.
"""

import json

import pytest

from repro.compile import BACKEND
from repro.core.api import generate_feedback
from repro.engines import BoundedVerifier, engine_by_name
from repro.problems import all_problems, get_problem
from repro.server import FeedbackClient, FeedbackHTTPServer, FeedbackService, warm_registry
from repro.service import GradingConfig
from repro.service.records import comparable_record, report_to_record

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


def direct_record(problem, source: str, backend: str) -> dict:
    """The record the one-shot pipeline produces for this configuration."""
    with BACKEND.using(backend):
        report = generate_feedback(
            source,
            problem.spec,
            problem.model,
            engine=engine_by_name("cegismin"),
            timeout_s=TIMEOUT_S,
            verifier=BoundedVerifier(problem.spec),
        )
    return report_to_record(report)


@pytest.fixture(scope="module", params=["compiled", "interp"])
def served(request):
    backend = request.param
    # The server grades on the process's backend for the module's tests.
    with BACKEND.using(backend):
        config = GradingConfig(timeout_s=TIMEOUT_S)
        warmup = warm_registry(config=config)
        service = FeedbackService(warmup=warmup, jobs=2, config=config)
        server = FeedbackHTTPServer(service, port=0)
        server.serve_in_thread()
        client = FeedbackClient(port=server.port)
        yield backend, client
        client.close()
        server.shutdown_gracefully()


@pytest.mark.parametrize(
    "name", [problem.name for problem in all_problems()]
)
def test_reference_record_identical_over_http(served, name):
    """Every registry problem, both backends: reference source."""
    backend, client = served
    problem = get_problem(name)
    over_http = client.grade(
        name, problem.spec.reference_source, timeout_s=TIMEOUT_S
    )
    assert over_http["record"]["status"] == "already_correct"
    direct = direct_record(problem, problem.spec.reference_source, backend)
    assert canonical_bytes(over_http["record"]) == canonical_bytes(direct)


@pytest.mark.parametrize("name", list(FIG2))
def test_fig2_record_identical_over_http(served, name):
    """The paper's Fig. 2 computeDeriv submissions, both backends."""
    backend, client = served
    problem = get_problem("compDeriv-6.00x")
    over_http = client.grade(
        "compDeriv-6.00x", FIG2[name], timeout_s=TIMEOUT_S
    )
    assert over_http["record"]["status"] == "fixed"
    direct = direct_record(problem, FIG2[name], backend)
    assert canonical_bytes(over_http["record"]) == canonical_bytes(direct)


def test_fig2_costs_match_the_paper(served):
    """Fig. 2 (a)/(b)/(c) need 2/1/2 corrections (PR 1 reproduced this;
    the server must serve the same numbers)."""
    _, client = served
    costs = {
        name: client.grade(
            "compDeriv-6.00x", source, timeout_s=TIMEOUT_S
        )["record"]["cost"]
        for name, source in FIG2.items()
    }
    assert costs == {"fig2a": 2, "fig2b": 1, "fig2c": 2}
