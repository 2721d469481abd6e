"""Differential suite: thread-executor records ≡ process-executor records.

The process executor must be a *relocation* of the grading, never a
reinterpretation: for every registry problem, the record a preforked
worker process produces is byte-for-byte identical (modulo wall time,
via :func:`~repro.service.records.comparable_record`) to the one the
in-thread executor produces from the same warm state. The Fig. 2
computeDeriv trio additionally pins real solves (status ``fixed``, the
paper's costs) across the executor boundary — a worker grading on any
state but the warm problems it forked from diverges here.
"""

import json

import pytest

from repro.problems import all_problems, get_problem
from repro.server import FeedbackService, warm_registry
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
def executors():
    warmup = warm_registry()
    thread_service = FeedbackService(
        warmup=warmup,
        jobs=2,
        config=GradingConfig(timeout_s=TIMEOUT_S),
        executor="thread",
    )
    process_service = FeedbackService(
        warmup=warmup,
        jobs=2,
        config=GradingConfig(timeout_s=TIMEOUT_S),
        executor="process",
    )
    yield thread_service, process_service
    thread_service.close()
    process_service.close()


@pytest.mark.parametrize(
    "name", [problem.name for problem in all_problems()]
)
def test_reference_record_identical_across_executors(executors, name):
    """Every registry problem: the reference source, both executors."""
    thread_service, process_service = executors
    source = get_problem(name).spec.reference_source
    in_thread = thread_service.grade(name, source)
    in_process = process_service.grade(name, source)
    assert in_thread.record["status"] == "already_correct"
    assert canonical_bytes(in_thread.record) == canonical_bytes(
        in_process.record
    )
    # Both were real gradings, not one serving the other's cache.
    assert not in_thread.cached and not in_process.cached


@pytest.mark.parametrize("name", list(FIG2))
def test_fig2_record_identical_across_executors(executors, name):
    """Real solves across the executor boundary, costs per the paper."""
    thread_service, process_service = executors
    in_thread = thread_service.grade("compDeriv-6.00x", FIG2[name])
    in_process = process_service.grade("compDeriv-6.00x", FIG2[name])
    assert in_thread.record["status"] == "fixed"
    assert canonical_bytes(in_thread.record) == canonical_bytes(
        in_process.record
    )


def test_fig2_costs_match_the_paper(executors):
    _, process_service = executors
    costs = {
        name: process_service.grade("compDeriv-6.00x", source).record["cost"]
        for name, source in FIG2.items()
    }
    assert costs == {"fig2a": 2, "fig2b": 1, "fig2c": 2}
