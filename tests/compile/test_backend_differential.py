"""Differential suite: compiled execution must equal the tree-walker.

Three populations, as demanded by the backend's correctness contract:

1. every registered problem's **reference** program over a slice of its
   bounded input space (outcome, stdout, error message, remaining fuel);
2. the synthetic **student corpus** (mutated / conceptual / trivial
   attempts) — the programs the engines actually sweep;
3. **hole-rewritten candidate spaces** under randomized assignments —
   outcomes *and* touched-hole cubes (in first-read order) *and* fuel
   must agree exactly, because the CEGIS blocking-clause generalization
   and the path forker's replay are built from them.
"""

from __future__ import annotations

import random
import zlib

import pytest

from tests.compile.difftools import (
    assert_call_parity,
    observe,
    sample_inputs,
)

from repro.compile import compile_program
from repro.core.rewriter import normalize_submission, rewrite_submission
from repro.mpy import parse_program
from repro.mpy.errors import FrontendError
from repro.problems import all_problems, get_problem
from repro.studentgen import generate_corpus
from repro.symbolic.recorder import RecordingInterpreter

PROBLEM_NAMES = [problem.name for problem in all_problems()]

#: Problems whose candidate spaces the randomized-assignment sweep covers
#: (spanning list, int, tuple, string and stdout-comparing specs, and the
#: problems whose leaves dominate a Table 1 pass, where the compiled
#: backend's inlined fast paths fire most).
CANDIDATE_PROBLEMS = [
    "compDeriv-6.00x",
    "iterPower-6.00x",
    "recurPower-6.00x",
    "oddTuples-6.00x",
    "oddTuples-6.00",
    "compBal-stdin-6.00",
    "evalPoly-6.00x",
    "iterGCD-6.00x",
    "hangman1-str-6.00x",
]


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_reference_differential(name):
    problem = get_problem(name)
    spec = problem.spec
    module = spec.reference_module()
    for args in sample_inputs(spec, 40):
        assert_call_parity(module, spec.function, args, fuel=spec.fuel)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_corpus_differential(name):
    problem = get_problem(name)
    spec = problem.spec
    corpus = generate_corpus(
        problem, incorrect_count=4, correct_count=1, syntax_count=0, seed=11
    )
    inputs = sample_inputs(spec, 8)
    checked = 0
    for submission in corpus.incorrect + corpus.correct:
        try:
            module = parse_program(submission.source)
            normalized, _ = normalize_submission(module, spec)
        except FrontendError:
            continue
        for args in inputs:
            assert_call_parity(
                normalized, spec.student_function, args, fuel=spec.fuel
            )
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", CANDIDATE_PROBLEMS)
def test_candidate_differential(name):
    """Randomized hole assignments: outcome, cube and fuel all agree."""
    problem = get_problem(name)
    spec = problem.spec
    corpus = generate_corpus(
        problem, incorrect_count=2, correct_count=0, syntax_count=0, seed=3
    )
    rng = random.Random(zlib.crc32(name.encode()))
    inputs = sample_inputs(spec, 6)
    for submission in corpus.incorrect:
        module = parse_program(submission.source)
        tilde, registry = rewrite_submission(module, spec, problem.model)
        holes = list(registry.holes())
        interp = RecordingInterpreter(tilde, {}, fuel=spec.fuel)
        program = compile_program(tilde, fuel=spec.fuel)
        for trial in range(12):
            assignment = {
                hole.cid: rng.randrange(hole.arity)
                for hole in holes
                if rng.random() < 0.5
            }
            args = inputs[trial % len(inputs)]
            interp_outcome = observe(
                lambda: interp.run(
                    spec.student_function, args, assignment=assignment
                )
            )
            interp_cube = interp.cube()
            interp_fuel = interp.fuel
            compiled_outcome = observe(
                lambda: program.run(
                    spec.student_function, args, assignment=assignment
                )
            )
            assert compiled_outcome == interp_outcome, (
                f"{name}: outcome mismatch under {assignment} on {args}"
            )
            # First-read order too: the path forker replays it.
            assert list(program.cube().items()) == list(
                interp_cube.items()
            ), f"{name}: cube mismatch under {assignment} on {args}"
            assert program.fuel == interp_fuel, (
                f"{name}: fuel mismatch under {assignment} on {args}"
            )


def test_default_assignment_equals_instantiated_default():
    """Assignment {} must behave exactly like the unmodified program."""
    problem = get_problem("compDeriv-6.00x")
    spec = problem.spec
    module = spec.reference_module()
    tilde, registry = rewrite_submission(module, spec, problem.model)
    program = compile_program(tilde, fuel=spec.fuel)
    plain = compile_program(module, fuel=spec.fuel)
    for args in sample_inputs(spec, 10):
        tilde_result = observe(
            lambda: program.run(spec.student_function, args, assignment={})
        )
        plain_result = observe(lambda: plain.call(spec.function, args))
        # The rewritten tree renames to the student function and may burn
        # differently through choice defaults only in dispatch, never in
        # observable outcome.
        assert tilde_result[0] == plain_result[0]
        if tilde_result[0] == "ok":
            assert tilde_result[1] == plain_result[1]
