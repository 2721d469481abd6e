"""Benchmark: Table 1 — per-problem feedback generation.

Regenerates the paper's main evaluation table on synthetic corpora: for
every benchmark problem, the share of incorrect submissions receiving
feedback and the per-submission solve times. The pytest-benchmark timing
target is one representative (median-difficulty) submission per problem —
the quantity the paper's Avg/Median columns measure.
"""

import time

import pytest

from benchmarks.conftest import PROBLEMS, TIMEOUT_S, save_result
from repro.core import generate_feedback
from repro.engines import BoundedVerifier
from repro.problems import get_problem
from repro.studentgen import generate_corpus


@pytest.mark.parametrize("name", PROBLEMS)
def test_feedback_time_per_submission(benchmark, name, bench_config):
    """Time one median mutated submission through the full pipeline."""
    problem = get_problem(name)
    corpus = generate_corpus(
        problem, incorrect_count=6, seed=bench_config["seed"]
    )
    mutated = [s for s in corpus.incorrect if s.origin == "mutated"]
    submission = mutated[len(mutated) // 2] if mutated else corpus.incorrect[0]
    verifier = BoundedVerifier(problem.spec)

    def solve():
        return generate_feedback(
            submission.source,
            problem.spec,
            problem.model,
            timeout_s=TIMEOUT_S,
            verifier=verifier,
        )

    report = benchmark.pedantic(solve, rounds=1, iterations=1)
    benchmark.extra_info["status"] = report.status
    benchmark.extra_info["cost"] = report.cost
    assert report.status in ("fixed", "no_fix", "timeout")


def test_batch_runner_parallel_speedup(benchmark, bench_config):
    """Serial vs parallel batch runner on one mid-sized corpus.

    The batch service's headline claim: with ``--jobs 4`` the same corpus
    grades measurably faster than the serial path (the per-submission
    solver work is CPU-bound and independent). Caching is disabled on
    both sides so the comparison times actual solving.
    """
    from repro.harness import run_problem

    # recurPower mixes sub-second solves with several multi-second and
    # budget-exhausting submissions — the shape where parallelism pays.
    name = "recurPower-6.00x"
    timeout_s = min(TIMEOUT_S, 10.0)
    problem = get_problem(name)
    corpus = generate_corpus(
        problem, incorrect_count=10, seed=bench_config["seed"]
    )

    start = time.monotonic()
    serial = run_problem(
        problem, corpus=corpus, timeout_s=timeout_s, jobs=1
    )
    serial_s = time.monotonic() - start

    start = time.monotonic()
    parallel = run_problem(
        problem, corpus=corpus, timeout_s=timeout_s, jobs=4
    )
    parallel_s = time.monotonic() - start

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["serial_s"] = round(serial_s, 2)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 2)
    benchmark.extra_info["speedup"] = round(serial_s / max(parallel_s, 1e-9), 2)
    save_result(
        "batch_speedup",
        f"batch runner, {name}, {len(corpus.incorrect)} submissions: "
        f"serial {serial_s:.2f}s vs --jobs 4 {parallel_s:.2f}s "
        f"({serial_s / max(parallel_s, 1e-9):.2f}x)",
    )
    # Per-submission solver budgets are wall-clock, so worker contention
    # can push a borderline search over the budget (on few-core machines
    # especially). Parallelism may therefore *lose* budget-bound results
    # but must never invent them, and the deterministic categories
    # (correct, syntax error, ...) must agree exactly.
    budget_bound = ("fixed", "no_fix", "timeout")
    for s, p in zip(serial.records, parallel.records):
        if p.status == "fixed":
            assert s.status == "fixed"
        elif p.status in ("no_fix", "timeout"):
            assert s.status in budget_bound
        else:
            assert s.status == p.status
    assert parallel_s < serial_s


def test_table1_rows(benchmark, table1_runs):
    """Regenerate and persist the full Table 1 (paper vs measured)."""
    from repro.harness import format_table1

    text = benchmark.pedantic(
        lambda: format_table1(table1_runs), rounds=1, iterations=1
    )
    save_result("table1", text)
    # Sanity on the headline claim: a majority of fixable-population
    # submissions get feedback (paper: 64% overall incl. conceptual).
    total = sum(run.incorrect for _, run in table1_runs)
    fixed = sum(run.fixed for _, run in table1_runs)
    assert total > 0
    assert fixed / total > 0.25, f"only {fixed}/{total} fixed"
