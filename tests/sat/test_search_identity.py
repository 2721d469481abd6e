"""The solver's search order and the execution contract are pinned.

Decision and propagation order decide which clauses are learned, when
restarts fire and which model comes back, so they reach every engine
statistic and every fix above the SAT layer. Below the solver, candidate
execution decides which leaves the path forker finds, which cubes get
blocked (in first-read order) and how much fuel each run burns. A solver
or execution-backend change that claims to be a pure speedup must leave
all of them unchanged. This test grades a handful of fast registry
studentgen submissions through ``CegisMinEngine`` and pins the summed
``sat_*`` counters, the summed execution counters (table leaves, forker
runs executed and reused, candidate runs, fuel consumed, blocked cubes)
and the total CEGIS iterations, plus each returned status and
assignment. Every table leaf is either a forker run or a path the solve
had already run, so the two forker counters sum to the table leaves.

A change that alters the search or the execution semantics on purpose
(blocker literals, clause deletion, a different heap tie-break, a new
fuel rule) updates the constants here and reports its effect on the
benchmark ledger on its own.
"""

import pytest

from repro.core.api import generate_feedback
from repro.engines import CegisMinEngine
from repro.problems import get_problem
from repro.studentgen.corpus import generate_corpus

#: (problem, index into its seed-0 five-submission incorrect corpus,
#: engine options). A mix of fixes and exhausted spaces, with learned
#: clauses and restarts, plus the two ablations' code paths.
CASES = [
    ("evalPoly-6.00x", 4, {}),
    ("recurPower-6.00x", 3, {}),
    ("compBal-stdin-6.00", 2, {}),
    ("iterGCD-6.00x", 0, {}),
    ("evalPoly-6.00", 3, {}),
    ("hangman1-str-6.00x", 4, {}),
    ("oddTuples-6.00x", 3, {}),
    ("recurPower-6.00x", 0, {}),
    ("iterGCD-6.00x", 2, {"incremental": False}),
    ("oddTuples-6.00x", 3, {"explorer": False}),
]

COUNTERS = (
    "sat_decisions",
    "sat_propagations",
    "sat_conflicts",
    "sat_learned",
    "sat_restarts",
)

EXPECTED_TOTALS = {
    "sat_decisions": 6509,
    "sat_propagations": 30605,
    "sat_conflicts": 1556,
    "sat_learned": 1513,
    "sat_restarts": 6,
}

EXECUTION_COUNTERS = (
    "table_leaves",
    "forker_runs",
    "forker_reused",
    "candidate_runs",
    "fuel_consumed",
    "blocked_cubes",
)

EXPECTED_EXECUTION_TOTALS = {
    "table_leaves": 17142,
    "forker_runs": 14802,
    "forker_reused": 2340,
    "candidate_runs": 7119,
    "fuel_consumed": 176207,
    "blocked_cubes": 6127,
}

EXPECTED_ITERATIONS = 246

EXPECTED_OUTCOMES = [
    ("no_fix", None),
    ("no_fix", None),
    ("no_fix", None),
    ("no_fix", None),
    ("fixed", {0: 1, 1: 1, 4: 2, 5: 1}),
    ("fixed", {0: 1, 1: 1, 2: 1, 5: 1}),
    ("fixed", {6: 1, 7: 1, 9: 1}),
    ("fixed", {2: 4, 4: 1}),
    ("fixed", {2: 5, 4: 1, 5: 2, 6: 2, 7: 1}),
    ("fixed", {6: 1, 7: 1, 9: 1}),
]


def _grade(problem_name, index, options):
    problem = get_problem(problem_name)
    corpus = generate_corpus(problem, incorrect_count=5, seed=0)
    engine = CegisMinEngine(**{"explorer": True, **options})
    report = generate_feedback(
        corpus.incorrect[index].source,
        problem.spec,
        problem.model,
        engine=engine,
        timeout_s=120,
        backend="compiled",
    )
    return report.engine_result


@pytest.fixture(scope="module")
def results():
    return [_grade(*case) for case in CASES]


def test_summed_sat_counters_are_pinned(results):
    totals = {key: sum(r.stats[key] for r in results) for key in COUNTERS}
    assert totals == EXPECTED_TOTALS


def test_each_status_and_assignment_is_pinned(results):
    outcomes = [(r.status, r.assignment) for r in results]
    assert outcomes == EXPECTED_OUTCOMES


def test_summed_execution_counters_are_pinned(results):
    totals = {
        key: sum(r.stats[key] for r in results) for key in EXECUTION_COUNTERS
    }
    assert totals == EXPECTED_EXECUTION_TOTALS
    assert totals["forker_runs"] + totals["forker_reused"] == (
        totals["table_leaves"]
    )
    assert sum(r.iterations for r in results) == EXPECTED_ITERATIONS
