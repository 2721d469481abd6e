"""Explorer ablation benchmark: the counterexample-blocking loop.

The quantity PR 3 changes: when a proposed candidate fails on an input,
how long does it take to refute the candidate's whole free-hole region?

- **table** (explorer on) — one path-forked exploration of the region:
  only *reachable* branch combinations execute, each exactly once, and
  every failing leaf becomes a blocking cube. The regions of one solve
  are replayed on one space, as the engine does, so a path an earlier
  region already ran comes from the forker's trie (``forker_runs``
  counts the paths executed);
- **sweep** (the replaced per-candidate strategy) — run every concrete
  combination of the region's free-hole domains one at a time, the
  uncapped version of the old ``_bulk_refute`` product enumeration.

The workload is real: each Fig. 2 submission is solved once with the
explorer on and every ``(failing candidate, counterexample input)`` pair
the engine actually blocked is recorded; both strategies then replay
exactly those blocking steps. A session finalizer writes
``BENCH_explore.json`` at the repo root, stamped with the git revision,
CPU count and Python version, and the final test enforces the
contract: the table strategy is ≥2x the sweep on the aggregate Fig. 2
blocking workload. End-to-end engine times under ``--explorer on|off``
are recorded alongside for the trajectory.
"""

import itertools
import json
import pathlib
import time

import pytest

from benchmarks.conftest import capture_blocked_regions, run_stamp
from repro.core.rewriter import rewrite_submission
from repro.engines import BoundedVerifier, CandidateSpace, CegisMinEngine
from repro.engines.verify import outcomes_match
from repro.mpy import parse_program
from repro.problems import get_problem

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

_RESULTS: dict = {}
_BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_explore.json"
)


@pytest.fixture(scope="session", autouse=True)
def _write_explore_json():
    yield
    if not _RESULTS:
        return
    workloads = {k: v for k, v in _RESULTS.items() if k in FIG2}
    table_s = sum(w["blocking"]["table_s"] for w in workloads.values())
    sweep_s = sum(w["blocking"]["sweep_s"] for w in workloads.values())
    payload = {
        "workload": (
            "Fig. 2(a)-(c) computeDeriv submissions under the full error "
            "model: every (failing candidate, counterexample input) pair "
            "CEGISMIN blocks, refuted by exploration table vs per-"
            "candidate sweep"
        ),
        "unix_time": time.time(),
        **run_stamp(),
        "workloads": workloads,
        "blocking_loop_speedup": sweep_s / table_s if table_s else None,
    }
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nblocking-loop speedup: {payload['blocking_loop_speedup']:.1f}x")


@pytest.fixture(scope="module")
def problem():
    p = get_problem("compDeriv-6.00x")
    verifier = BoundedVerifier(p.spec)
    verifier.inputs  # materialize once for every workload
    return p, verifier


def _space(problem, verifier, tilde, registry):
    return CandidateSpace(
        tilde,
        problem.spec.student_function,
        verifier.candidate_fuel,
        registry=registry,
        compare_stdout=problem.spec.compare_stdout,
    )


@pytest.mark.parametrize("name", list(FIG2))
def test_blocking_loop(problem, name):
    """Refute the engine's actual blocking workload both ways."""
    problem, verifier = problem
    tilde, registry = rewrite_submission(
        parse_program(FIG2[name]), problem.spec, problem.model
    )
    pairs, solve_result = capture_blocked_regions(
        problem, verifier, tilde, registry
    )
    assert solve_result.status == "fixed"
    space = _space(problem, verifier, tilde, registry)

    table_s = sweep_s = 0.0
    total_leaves = total_runs = total_sweep_runs = total_failing = 0
    for assignment, args in pairs:
        expected = verifier.expected(args)

        start = time.perf_counter()
        table = space.explore_free_region(args, assignment)
        _, failing = verifier.table_verdict(table)
        table_s += time.perf_counter() - start
        total_leaves += len(table)
        total_runs += table.runs
        total_failing += len(failing)

        # The sweep must classify the same region: every combination of
        # the free holes the region's paths read.
        free_read = sorted(
            {
                cid
                for leaf in table.leaves
                for cid in leaf.cube
                if registry.info(cid).free
            }
        )
        domains = [range(registry.info(cid).arity) for cid in free_read]
        pinned = {
            cid: branch
            for cid, branch in assignment.items()
            if not registry.info(cid).free
        }
        start = time.perf_counter()
        for combo in itertools.product(*domains):
            total_sweep_runs += 1
            variant = dict(pinned)
            for cid, branch in zip(free_read, combo):
                if branch:
                    variant[cid] = branch
            outcomes_match(expected, space.outcome(variant, args))
        sweep_s += time.perf_counter() - start

    _RESULTS[name] = {
        "solve": {
            "cost": solve_result.cost,
            "sat_calls": solve_result.stats["sat_calls"],
            "blocked_cubes": solve_result.stats["blocked_cubes"],
        },
        "blocking": {
            "regions": len(pairs),
            "table_leaves": total_leaves,
            "forker_runs": total_runs,
            "failing_leaves": total_failing,
            "sweep_runs": total_sweep_runs,
            "table_s": table_s,
            "sweep_s": sweep_s,
            "speedup": sweep_s / table_s if table_s else None,
        },
    }
    # Sanity: the table visits no more runs than the sweep (reachability
    # can only shrink the region's path count).
    assert total_leaves <= total_sweep_runs


@pytest.mark.parametrize("name", list(FIG2))
def test_end_to_end_ablation(problem, name):
    """Whole-solve wall time, explorer on vs off, for the trajectory."""
    problem, verifier = problem
    tilde, registry = rewrite_submission(
        parse_program(FIG2[name]), problem.spec, problem.model
    )
    timings = {}
    results = {}
    for explorer in (True, False):
        start = time.perf_counter()
        results[explorer] = CegisMinEngine(explorer=explorer).solve(
            tilde, registry, problem.spec, verifier, timeout_s=120
        )
        timings[explorer] = time.perf_counter() - start
    on, off = results[True], results[False]
    assert on.status == off.status == "fixed"
    assert (on.cost, on.minimal) == (off.cost, off.minimal)
    _RESULTS.setdefault(name, {})["end_to_end"] = {
        "explorer_on_s": timings[True],
        "explorer_off_s": timings[False],
        "speedup": timings[False] / timings[True],
        "sat_calls_on": on.stats["sat_calls"],
        "sat_calls_off": off.stats["sat_calls"],
    }


def test_blocking_speedup_contract():
    """The tentpole's perf bar: tables ≥2x the per-candidate sweep on the
    aggregate Fig. 2 counterexample-blocking workload."""
    missing = [name for name in FIG2 if name not in _RESULTS]
    assert not missing, f"blocking benchmarks did not run: {missing}"
    table_s = sum(_RESULTS[n]["blocking"]["table_s"] for n in FIG2)
    sweep_s = sum(_RESULTS[n]["blocking"]["sweep_s"] for n in FIG2)
    speedup = sweep_s / table_s
    assert speedup >= 2.0, (
        f"exploration tables must be ≥2x the per-candidate sweep on the "
        f"Fig. 2 blocking workload, measured {speedup:.2f}x"
    )
