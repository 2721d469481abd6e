"""Ablation benchmarks: the design choices DESIGN.md calls out.

- E-ABL1 — CEGISMIN vs brute-force enumeration (the paper's Section 7.2
  claim that mutation-style enumeration is infeasible on these spaces);
- E-ABL2 — incremental vs restart-per-bound solving (the Section 4.2
  incremental-solving claim);
- ascending vs descending cost search (our documented deviation from
  Algorithm 1's literal order);
- compiled vs tree-walking execution backend (the candidate-evaluation
  substrate the whole search bottoms out in).
"""

import pytest

from benchmarks.conftest import save_result
from repro.compile import BACKEND
from repro.core.rewriter import rewrite_submission
from repro.engines import BoundedVerifier, CegisMinEngine, EnumerativeEngine
from repro.mpy import parse_program
from repro.problems import get_problem
from repro.tilde.semantics import candidate_count

FIG2A = """def computeDeriv(poly):
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
"""


@pytest.fixture(scope="module")
def workload():
    problem = get_problem("compDeriv-6.00x")
    module = parse_program(FIG2A)
    tilde, registry = rewrite_submission(module, problem.spec, problem.model)
    verifier = BoundedVerifier(problem.spec)
    verifier.inputs
    return problem, tilde, registry, verifier


class TestEngineComparison:
    def test_cegismin(self, benchmark, workload):
        problem, tilde, registry, verifier = workload

        def solve():
            return CegisMinEngine().solve(
                tilde, registry, problem.spec, verifier, timeout_s=60
            )

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        benchmark.extra_info["cost"] = result.cost
        benchmark.extra_info["candidates"] = candidate_count(tilde)
        # The engine-depth telemetry the obs layer exports as
        # ``repro_*_total`` counters — recorded here so the benchmark
        # artifact explains *where* the wall time went, not just how
        # much there was.
        for key in (
            "sat_calls",
            "sat_conflicts",
            "sat_decisions",
            "sat_propagations",
            "table_leaves",
            "forker_runs",
            "candidate_runs",
            "fuel_consumed",
        ):
            if key in result.stats:
                benchmark.extra_info[key] = result.stats[key]
        assert result.status == "fixed"

    def test_enumerative_baseline(self, benchmark, workload):
        """The brute-force comparator on the same ~10^6+ space."""
        problem, tilde, registry, verifier = workload

        def solve():
            return EnumerativeEngine(
                max_cost=3, max_candidates=200_000
            ).solve(tilde, registry, problem.spec, verifier, timeout_s=60)

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        benchmark.extra_info["status"] = result.status
        benchmark.extra_info["candidates_tried"] = result.iterations
        # The paper's point: enumeration either times out, exhausts its
        # budget, or takes far longer than the symbolic engine. Any
        # terminating status is recorded; the comparison lives in the
        # timing columns.
        assert result.status in ("fixed", "timeout", "exhausted", "no_fix")


class TestExecutionBackend:
    """End-to-end engine wall time under each execution substrate."""

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_cegismin_backend(self, benchmark, workload, backend):
        problem, tilde, registry, verifier = workload

        def solve():
            with BACKEND.using(backend):
                return CegisMinEngine().solve(
                    tilde, registry, problem.spec, verifier, timeout_s=60
                )

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        benchmark.extra_info["backend"] = backend
        benchmark.extra_info["cost"] = result.cost
        assert result.status == "fixed"

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_enumerative_backend(self, benchmark, workload, backend):
        problem, tilde, registry, verifier = workload

        def solve():
            with BACKEND.using(backend):
                return EnumerativeEngine(
                    max_cost=2, max_candidates=50_000
                ).solve(
                    tilde, registry, problem.spec, verifier, timeout_s=60
                )

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        benchmark.extra_info["backend"] = backend
        benchmark.extra_info["status"] = result.status
        assert result.status in ("fixed", "timeout", "exhausted", "no_fix")


class TestIncrementalSolving:
    def test_incremental(self, benchmark, workload):
        problem, tilde, registry, verifier = workload

        def solve():
            return CegisMinEngine(incremental=True).solve(
                tilde, registry, problem.spec, verifier, timeout_s=60
            )

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        assert result.status == "fixed"

    def test_restart_per_bound(self, benchmark, workload):
        problem, tilde, registry, verifier = workload

        def solve():
            return CegisMinEngine(incremental=False).solve(
                tilde, registry, problem.spec, verifier, timeout_s=60
            )

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        assert result.status == "fixed"


class TestSearchDirection:
    def test_ascending(self, benchmark, workload):
        problem, tilde, registry, verifier = workload

        def solve():
            return CegisMinEngine(strategy="ascend").solve(
                tilde, registry, problem.spec, verifier, timeout_s=60
            )

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        assert result.status == "fixed" and result.minimal

    def test_descending_algorithm1_order(self, benchmark, workload):
        problem, tilde, registry, verifier = workload

        def solve():
            return CegisMinEngine(strategy="descend").solve(
                tilde, registry, problem.spec, verifier, timeout_s=60
            )

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        benchmark.extra_info["status"] = result.status
        assert result.status in ("fixed", "timeout")


def test_candidate_space_sizes(benchmark, workload):
    """Record the search-space sizes that motivate symbolic search."""
    problem, tilde, registry, verifier = workload
    size = benchmark(lambda: candidate_count(tilde))
    text = (
        f"Fig. 2(a) under the full computeDeriv model:\n"
        f"  holes: {len(registry)}\n"
        f"  candidate programs: {size:,}\n"
        f"(paper: \"more than 10^12 candidate programs for some of the "
        f"benchmark problems\"; 32 for the Section 2.1 simple model)"
    )
    save_result("candidate_spaces", text)
    assert size > 10_000
