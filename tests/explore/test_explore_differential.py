"""Differential suite: exploration tables ≡ brute-force enumeration.

For every registered problem, a studentgen corpus submission is rewritten
under the largest error-model prefix whose candidate space stays small
enough to enumerate outright. The exploration table of each input must
then agree with running *every* canonical assignment individually —
outcome (value, stdout, error-ness) and touched-hole cube — and the two
execution backends must produce bit-identical tables. This is the
acceptance bar for replacing per-candidate sweeps with shared-prefix
exploration: the table IS the brute-force sweep, computed path by path.
"""

import pytest

from repro.compile import BACKEND, COMPILED, INTERP
from repro.core.rewriter import rewrite_submission
from repro.engines import BoundedVerifier, CandidateSpace
from repro.mpy import parse_program
from repro.problems import all_problems
from repro.studentgen import generate_corpus
from repro.engines.enumerative import assignments_up_to_cost
from repro.tilde.semantics import assignment_cost, candidate_count

#: Upper bound on the canonical assignments we enumerate exhaustively
#: (``candidate_count`` counts exactly the canonical selections).
CANDIDATE_CAP = 1200
INPUTS_PER_PROBLEM = 3

PROBLEM_NAMES = [p.name for p in all_problems()]


def _bounded_space(problem, source, cap=CANDIDATE_CAP):
    """(tilde, registry) under the largest enumerable model prefix."""
    module = parse_program(source)
    for size in range(len(problem.model), -1, -1):
        model = problem.model.prefix(size, name=f"E{size}")
        tilde, registry = rewrite_submission(module, problem.spec, model)
        if candidate_count(tilde) <= cap:
            return tilde, registry
    raise AssertionError("prefix(0) must always be enumerable")


@pytest.fixture(scope="module", params=PROBLEM_NAMES)
def workload(request):
    from repro.problems import get_problem

    problem = get_problem(request.param)
    corpus = generate_corpus(problem, incorrect_count=2, seed=0)
    if not corpus.incorrect:
        pytest.skip(f"no incorrect submissions generated for {problem.name}")
    tilde, registry = _bounded_space(problem, corpus.incorrect[0].source)
    verifier = BoundedVerifier(problem.spec)
    inputs = verifier.inputs[:INPUTS_PER_PROBLEM]
    spaces = {}
    for backend in (COMPILED, INTERP):
        with BACKEND.using(backend):
            spaces[backend] = CandidateSpace(
                tilde,
                problem.spec.student_function,
                verifier.candidate_fuel,
                registry=registry,
                compare_stdout=problem.spec.compare_stdout,
            )
    # The brute-force side: every canonical assignment, exactly once
    # (DFS over active holes — no raw-product multiplicity).
    max_cost = sum(1 for i in registry.holes() if not i.free)
    assignments = [a for a, _ in assignments_up_to_cost(registry, max_cost)]
    return problem, registry, spaces, inputs, assignments


def _flat(table):
    return [(tuple(leaf.cube.items()), leaf.outcome) for leaf in table.leaves]


class TestTablesEqualBruteForce:
    def test_every_assignment_classified_exactly(self, workload):
        problem, registry, spaces, inputs, assignments = workload
        space = spaces[COMPILED]
        assert assignments, "enumeration must at least yield the default"
        for args in inputs:
            table = space.explore(args)
            for assignment in assignments:
                leaf = table.leaf_for(assignment)
                assert leaf is not None, (
                    f"{problem.name}: unrestricted table must cover "
                    f"{assignment} on {args!r}"
                )
                # Oracle: actually run this candidate on this input.
                outcome = space.outcome(assignment, args)
                assert leaf.outcome == outcome, (
                    f"{problem.name}: table says {leaf.outcome} but running "
                    f"{assignment} on {args!r} gives {outcome}"
                )
                assert leaf.cube == space.cube(), (
                    f"{problem.name}: cube mismatch for {assignment} on "
                    f"{args!r}"
                )

    def test_backends_produce_identical_tables(self, workload):
        # The brute-force oracle above runs on the compiled substrate;
        # leaf-for-leaf identity extends its verdict to the tree-walker.
        problem, registry, spaces, inputs, assignments = workload
        args = inputs[0]
        compiled = spaces[COMPILED].explore(args)
        interp = spaces[INTERP].explore(args)
        assert _flat(compiled) == _flat(interp), (
            f"{problem.name}: backends disagree on {args!r}"
        )

    def test_budgeted_tables_cover_the_cost_slice(self, workload):
        problem, registry, spaces, inputs, assignments = workload
        space = spaces[COMPILED]
        budget = 1
        for args in inputs[:1]:
            table = space.explore(args, budget=budget)
            for assignment in assignments:
                leaf = table.leaf_for(assignment)
                if assignment_cost(registry, assignment) <= budget:
                    assert leaf is not None, (
                        f"{problem.name}: cost≤{budget} assignment "
                        f"{assignment} must be covered"
                    )
                if leaf is not None:
                    # Any leaf the walk reaches is valid unconditionally.
                    assert leaf.outcome == space.outcome(assignment, args)

    def test_free_region_covers_every_agreeing_assignment(self, workload):
        problem, registry, spaces, inputs, assignments = workload
        space = spaces[COMPILED]
        costly = [i.cid for i in registry.holes() if not i.free]
        # Pick the first non-default candidate as the region's anchor.
        anchor = next((a for a in assignments if a), None)
        if anchor is None:
            pytest.skip("space has a single candidate")
        args = inputs[0]
        table = space.explore_free_region(args, anchor)
        agreeing = [
            a
            for a in assignments
            if all(a.get(cid, 0) == anchor.get(cid, 0) for cid in costly)
        ]
        assert anchor in agreeing
        for assignment in agreeing:
            leaf = table.leaf_for(assignment)
            assert leaf is not None, (
                f"{problem.name}: region table must cover {assignment}"
            )
            assert leaf.outcome == space.outcome(assignment, args)
