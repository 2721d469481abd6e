"""Substrate micro-benchmarks: execution backends, SAT solver, transformer.

Not a paper artifact, but the quantities every experiment above is built
from — regressions here show up multiplied by corpus sizes.

The execution-backend benchmarks all drive the *same workload* (the
computeDeriv reference on ``[3, -2, 1]``) through the three substrate
shapes the engines use:

- ``interp_fresh``     — tree-walker, fresh interpreter per run (the
  stateful-module path);
- ``interp``           — tree-walker, interpreter reused across runs (the
  engines' default interpreter hot loop);
- ``compiled``         — the closure-compiled backend, lowered once.

Plus the CEGIS-shaped pair (``candidate_interp`` / ``candidate_compiled``)
that alternates hole assignments between runs, and the path forker's
replay loop (``forker_leaves``): CEGISMIN refutes each failing
candidate's free-hole region by running the tilde program once per
leaf, which is where Table 1 spends most of its execution time. That
case replays ``CandidateSpace.explore_free_region`` over a prefix of the
(failing candidate, counterexample) pairs CEGISMIN blocks on two seed-0
submissions it proves unfixable, each round on new forkers (empty path
tries), so a round runs the paths one solve runs: ``oddTuples-6.00`` #2, where 79 of the
104 leaves run out of fuel, and ``recurPower-6.00x`` #4, where 112 of
the 378 leaves exceed the recursion depth; both kinds of leaf run their
whole budget. The SAT solver is measured three ways: random 3-SAT
(``sat_3sat``), a counting network under tightening bounds
(``counting_network``), and the synthesis shape (``sat_cegis``): a
registry problem's hole encoding with the blocked cubes CEGISMIN adds
while proving a submission unfixable, solved under ascending cost
bounds. Only the last has the long watch lists of blocking clauses that
dominate the solver's time on Table 1.

A session finalizer writes every mean to ``BENCH_substrate.json`` at the
repo root, stamped with the git revision, CPU count and Python version,
so the perf trajectory is tracked PR-over-PR, and the final test
enforces the compiled backend's contract: ≥3x the reused tree-walker on
the same workload.
"""

import json
import pathlib
import random
import time

import pytest

from benchmarks.conftest import capture_blocked_regions, run_stamp
from repro.compile import compile_program
from repro.core.rewriter import rewrite_submission
from repro.eml import apply_error_model, parse_error_model
from repro.engines import BoundedVerifier, CandidateSpace, CegisMinEngine
from repro.engines.encoding import HoleEncoding
from repro.mpy import parse_program, run_function
from repro.mpy.interp import Interpreter
from repro.problems import get_problem
from repro.sat import SAT, UNSAT, CountingNetwork, Solver
from repro.studentgen.corpus import generate_corpus
from repro.symbolic.recorder import RecordingInterpreter

DERIV = get_problem("compDeriv-6.00x")
WORKLOAD_ARGS = ([3, -2, 1],)
EXPECTED = [-2, 2]

#: The CEGIS-shaped SAT case: a seed-0 studentgen submission the engine
#: proves unfixable after blocking a few thousand cubes.
CEGIS_PROBLEM = "evalPoly-6.00x"
CEGIS_SUBMISSION = 4

#: The forker case: (problem, seed-0 incorrect submission, how many of
#: the regions CEGISMIN blocks on it to replay). The prefixes keep one
#: round near 0.1 s; together they hold ``FORKER_LEAVES`` leaves.
FORKER_CASES = (
    ("oddTuples-6.00", 2, 4),
    ("recurPower-6.00x", 4, 8),
)
FORKER_LEAVES = 482
#: Rounds of the forker case (each needs its own untimed setup).
FORKER_ROUNDS = 20

_SUBSTRATE_RESULTS: dict = {}
_REPO = pathlib.Path(__file__).resolve().parent.parent
_BENCH_JSON = _REPO / "BENCH_substrate.json"


def _record(name: str, benchmark) -> None:
    _SUBSTRATE_RESULTS[name] = {
        "mean_s": benchmark.stats.stats.mean,
        "ops_per_s": 1.0 / benchmark.stats.stats.mean,
        "rounds": benchmark.stats.stats.rounds,
    }


@pytest.fixture(scope="session", autouse=True)
def _write_substrate_json():
    yield
    if not _SUBSTRATE_RESULTS:
        return
    payload = {
        "workload": (
            f"{DERIV.name} reference, args={WORKLOAD_ARGS!r}, plus the "
            "Fig. 2 candidate space under alternating hole assignments; "
            "forker_leaves replays the first regions CEGISMIN blocks on "
            "oddTuples-6.00 #2 and recurPower-6.00x #4 (seed 0)"
        ),
        "unix_time": time.time(),
        **run_stamp(),
        "timings": _SUBSTRATE_RESULTS,
    }
    speedups = {}
    pairs = [
        ("interp", "compiled", "compiled_vs_interp_reuse"),
        ("interp_fresh", "compiled", "compiled_vs_interp_fresh"),
        ("candidate_interp", "candidate_compiled", "candidate_switch"),
    ]
    for slow, fast, label in pairs:
        if slow in _SUBSTRATE_RESULTS and fast in _SUBSTRATE_RESULTS:
            speedups[label] = (
                _SUBSTRATE_RESULTS[slow]["mean_s"]
                / _SUBSTRATE_RESULTS[fast]["mean_s"]
            )
    payload["speedups"] = speedups
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def test_interpreter_throughput(benchmark):
    """Tree-walker, fresh interpreter per run (stateful-module shape)."""
    module = parse_program(DERIV.spec.reference_source)

    def run():
        return run_function(module, DERIV.spec.function, WORKLOAD_ARGS).value

    result = benchmark(run)
    assert result == EXPECTED
    _record("interp_fresh", benchmark)


def test_interpreter_reuse_throughput(benchmark):
    """Tree-walker, one interpreter reused (the engines' interp path)."""
    module = parse_program(DERIV.spec.reference_source)
    interp = Interpreter(module)

    def run():
        return interp.call(DERIV.spec.function, WORKLOAD_ARGS).value

    result = benchmark(run)
    assert result == EXPECTED
    _record("interp", benchmark)


def test_compiled_throughput(benchmark):
    """Closure-compiled backend: lowered once, run at closure speed."""
    module = parse_program(DERIV.spec.reference_source)
    program = compile_program(module)

    def run():
        return program.call(DERIV.spec.function, WORKLOAD_ARGS).value

    result = benchmark(run)
    assert result == EXPECTED
    _record("compiled", benchmark)


def _fig2_candidate_space():
    model = parse_error_model(
        """
rule RETR: return a -> return [0]
rule RANR: range(a1, a2) -> range(a1 + 1, a2)
rule COMPR: a0 == a1 -> False
"""
    )
    module = parse_program(DERIV.spec.reference_source)
    tilde, registry = rewrite_submission(module, DERIV.spec, model)
    holes = sorted(info.cid for info in registry.holes())
    # Alternate between the default program and single-hole flips — the
    # candidate-switching pattern of the CEGIS synthesis loop.
    assignments = [{}] + [{cid: 1} for cid in holes[:3]]
    return tilde, assignments


def test_candidate_switch_interp(benchmark):
    """RecordingInterpreter sweeping candidates (tree-walker hot loop)."""
    tilde, assignments = _fig2_candidate_space()
    interp = RecordingInterpreter(tilde, {}, fuel=DERIV.spec.fuel)
    fn = DERIV.spec.student_function

    def run():
        total = 0
        for assignment in assignments:
            result = interp.run(fn, WORKLOAD_ARGS, assignment=assignment)
            total += len(result.value)
        return total

    benchmark(run)
    _record("candidate_interp", benchmark)


def test_candidate_switch_compiled(benchmark):
    """Compiled backend: candidate switch is an assignment-array write."""
    tilde, assignments = _fig2_candidate_space()
    program = compile_program(tilde, fuel=DERIV.spec.fuel)
    fn = DERIV.spec.student_function

    def run():
        total = 0
        for assignment in assignments:
            result = program.run(fn, WORKLOAD_ARGS, assignment=assignment)
            total += len(result.value)
        return total

    benchmark(run)
    _record("candidate_compiled", benchmark)


def _blocked_regions(problem, index, count):
    """A fresh space, and the first ``count`` (candidate, input) pairs
    whose free-hole regions CEGISMIN explores while solving submission
    ``index`` of ``problem``'s seed-0 incorrect corpus."""
    corpus = generate_corpus(problem, incorrect_count=5, seed=0)
    module = parse_program(corpus.incorrect[index].source)
    tilde, registry = rewrite_submission(module, problem.spec, problem.model)
    verifier = BoundedVerifier(problem.spec)
    pairs, result = capture_blocked_regions(problem, verifier, tilde, registry)
    assert result.status == "no_fix"
    space = CandidateSpace(
        tilde,
        problem.spec.student_function,
        verifier.candidate_fuel,
        registry=registry,
        backend="compiled",
        compare_stdout=problem.spec.compare_stdout,
    )
    return space, pairs[:count]


def test_forker_leaves(benchmark):
    """Path-forker replay of blocked regions (the Table 1 execution loop)."""
    regions = [
        _blocked_regions(get_problem(name), index, count)
        for name, index, count in FORKER_CASES
    ]

    def fresh_forkers():
        # A forker keeps every path it has run, so one kept from an
        # earlier round would serve this round from memory: each round
        # gets new forkers over the same compiled programs, untimed.
        for space, _ in regions:
            space._forker = None
            space.forker()

    def run():
        leaves = 0
        for space, pairs in regions:
            for assignment, args in pairs:
                leaves += len(space.explore_free_region(args, assignment))
        return leaves

    leaves = benchmark.pedantic(run, setup=fresh_forkers, rounds=FORKER_ROUNDS)
    assert leaves == FORKER_LEAVES
    _record("forker_leaves", benchmark)


def test_compiled_speedup_contract():
    """The backend's reason to exist: ≥3x the reused tree-walker."""
    if "interp" not in _SUBSTRATE_RESULTS or (
        "compiled" not in _SUBSTRATE_RESULTS
    ):
        pytest.skip("throughput benchmarks were deselected")
    speedup = (
        _SUBSTRATE_RESULTS["interp"]["mean_s"]
        / _SUBSTRATE_RESULTS["compiled"]["mean_s"]
    )
    assert speedup >= 3.0, f"compiled backend only {speedup:.2f}x"


def test_transformer_throughput(benchmark):
    module = parse_program(
        """def computeDeriv(poly):
    deriv = []
    for i in range(1, len(poly)):
        deriv.append(poly[i] * i)
    if len(poly) == 1:
        return [0]
    return deriv
"""
    )

    def transform():
        return apply_error_model(module, DERIV.model, DERIV.spec.param_type_map())

    tilde, registry = benchmark(transform)
    assert len(registry) > 5


def test_sat_solver_3sat(benchmark):
    rng = random.Random(11)
    num_vars = 60
    clauses = [
        [rng.randint(1, num_vars) * rng.choice([1, -1]) for _ in range(3)]
        for _ in range(int(num_vars * 4.0))
    ]

    def solve():
        solver = Solver()
        for _ in range(num_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        return solver.solve()

    result = benchmark(solve)
    assert result in ("sat", "unsat")
    _record("sat_3sat", benchmark)


def test_counting_network_bounds(benchmark):
    def run():
        solver = Solver()
        inputs = [solver.new_var() for _ in range(40)]
        network = CountingNetwork(solver, inputs)
        solver.add_clause(inputs[:5])
        outcomes = []
        for bound in (10, 5, 2, 1):
            outcomes.append(
                solver.solve(assumptions=network.bound_assumption(bound))
            )
        return outcomes

    outcomes = benchmark(run)
    assert outcomes[0] == SAT
    _record("counting_network", benchmark)


def _cegis_blocked_cubes():
    """The registry, and every cube CEGISMIN blocks on the CEGIS case."""
    problem = get_problem(CEGIS_PROBLEM)
    corpus = generate_corpus(problem, incorrect_count=5, seed=0)
    module = parse_program(corpus.incorrect[CEGIS_SUBMISSION].source)
    tilde, registry = rewrite_submission(module, problem.spec, problem.model)
    cubes = []
    block_cube = HoleEncoding.block_cube

    def recording(encoding, cube):
        cubes.append(dict(cube))
        block_cube(encoding, cube)

    HoleEncoding.block_cube = recording
    try:
        result = CegisMinEngine(explorer=True).solve(
            tilde,
            registry,
            problem.spec,
            BoundedVerifier(problem.spec),
            timeout_s=120,
            backend="compiled",
        )
    finally:
        HoleEncoding.block_cube = block_cube
    assert result.status == "no_fix"
    return registry, cubes


def test_sat_cegis_blocked_cubes(benchmark):
    """Hole encoding + a fixed list of blocked cubes, ascending bounds."""
    registry, cubes = _cegis_blocked_cubes()

    def run():
        solver = Solver()
        encoding = HoleEncoding(solver, registry)
        encoding.block_cubes(cubes)
        cap = min(CegisMinEngine().max_cost, len(encoding.cost_inputs))
        outcomes = []
        for level in range(cap + 1):
            encoding.reset_phases()
            outcomes.append(
                solver.solve(assumptions=encoding.bound_assumptions(level))
            )
        return outcomes

    outcomes = benchmark(run)
    assert outcomes and all(outcome == UNSAT for outcome in outcomes)
    _record("sat_cegis", benchmark)
