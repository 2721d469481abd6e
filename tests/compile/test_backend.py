"""Backend selection and engine-level equivalence.

The acceptance bar for the compiled substrate: the CEGISMIN and
enumerative engines must produce *identical* ``EngineResult`` assignments
and costs under both backends on the Fig. 2 workload — same search, same
blocking cubes, same minimal correction.
"""

from __future__ import annotations

import pytest

from repro.compile import BACKEND, COMPILED, INTERP
from repro.compile.compiler import CompiledProgram
from repro.core.spec import ProblemSpec
from repro.core.rewriter import rewrite_submission
from repro.eml import parse_error_model
from repro.engines import (
    BoundedVerifier,
    CandidateSpace,
    CegisMinEngine,
    EnumerativeEngine,
)
from repro.engines.base import _ProgramPathRunner
from repro.mpy import parse_program
from repro.mpy.values import Bounds
from repro.symbolic.recorder import InterpPathRunner

DERIV_REF = """def computeDeriv_list_int(poly_list_int):
    result = []
    for i in range(len(poly_list_int)):
        result += [i * poly_list_int[i]]
    if len(poly_list_int) == 1:
        return result
    else:
        return result[1:]
"""

SIMPLE_MODEL = """
rule RETR: return a -> return [0]
rule RANR: range(a1, a2) -> range(a1 + 1, a2)
rule COMPR: a0 == a1 -> False
"""

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
def deriv_spec():
    return ProblemSpec.from_typed_reference(
        "computeDeriv", DERIV_REF, bounds=Bounds(int_bits=3, max_list_len=3)
    )


@pytest.fixture(scope="module")
def fig2_space(deriv_spec):
    model = parse_error_model(SIMPLE_MODEL)
    return rewrite_submission(parse_program(FIG2A), deriv_spec, model)


class TestSelection:
    def test_candidate_space_substrates(self, fig2_space, deriv_spec):
        tilde, registry = fig2_space
        with BACKEND.using(COMPILED):
            compiled = CandidateSpace(
                tilde, "computeDeriv", 1000, registry=registry
            )
        assert isinstance(compiled.runner, _ProgramPathRunner)
        assert isinstance(compiled.runner.program, CompiledProgram)
        with BACKEND.using(INTERP):
            walker = CandidateSpace(
                tilde, "computeDeriv", 1000, registry=registry
            )
        assert isinstance(walker.runner, InterpPathRunner)
        result_c = compiled.run({}, ([1, 2],))
        result_i = walker.run({}, ([1, 2],))
        assert result_c.value == result_i.value
        assert compiled.cube() == walker.cube()
        assert compiled.fuel_consumed == walker.fuel_consumed > 0
        # One runner serves the single runs and the forker alike.
        assert compiled.forker().runner is compiled.runner
        assert walker.forker().runner is walker.runner

    def test_the_backend_is_fixed_when_an_executor_is_built(
        self, fig2_space, deriv_spec, monkeypatch
    ):
        # Built under interp, a space and a verifier stay interp wherever
        # they run later: nothing compiles once the block is left.
        tilde, registry = fig2_space
        with BACKEND.using(INTERP):
            space = CandidateSpace(
                tilde, "computeDeriv", 1000, registry=registry
            )
            verifier = BoundedVerifier(deriv_spec)

        def refuse(self, *args, **kwargs):
            raise AssertionError("compiled after the backend was fixed")

        monkeypatch.setattr(CompiledProgram, "__init__", refuse)
        assert verifier.backend == INTERP
        assert verifier.inputs
        assert space.outcome({}, ([1, 2],))[0] == "ok"
        assert space.explore(([1, 2],)).leaves


class TestEngineEquivalence:
    @pytest.mark.parametrize("make_engine", [
        lambda: CegisMinEngine(),
        lambda: EnumerativeEngine(max_cost=4),
    ], ids=["cegismin", "enumerative"])
    def test_identical_results_across_backends(
        self, deriv_spec, fig2_space, make_engine
    ):
        tilde, registry = fig2_space
        results = {}
        for backend in (COMPILED, INTERP):
            # The runner inside solve() follows the process default.
            with BACKEND.using(backend):
                verifier = BoundedVerifier(deriv_spec)
                result = make_engine().solve(
                    tilde,
                    registry,
                    deriv_spec,
                    verifier,
                    timeout_s=120,
                )
            results[backend] = result
        compiled, interp = results[COMPILED], results[INTERP]
        assert compiled.status == interp.status == "fixed"
        assert compiled.assignment == interp.assignment
        assert compiled.cost == interp.cost == 3
        assert compiled.minimal and interp.minimal
        assert compiled.iterations == interp.iterations
        assert compiled.counterexamples == interp.counterexamples

    @pytest.mark.parametrize("backend", [COMPILED, INTERP])
    def test_grading_top_level_error_is_incorrect(self, backend):
        """Both backends classify an erroring top level as incorrect.

        The tree-walker raises at construction, the compiled backend at
        first call; grade_submission must fold both into 'incorrect'
        rather than crash under one substrate and grade under the other.
        """
        from repro.core.api import grade_submission
        from repro.problems import get_problem

        source = (
            "xs = [1, 2, 3]\n"
            "y = xs[10]\n"
            "def computeDeriv(poly):\n"
            "    return []\n"
        )
        spec = get_problem("compDeriv-6.00x").spec
        with BACKEND.using(backend):
            assert grade_submission(source, spec) == "incorrect"

    def test_verifier_tables_identical(self, deriv_spec):
        with BACKEND.using(COMPILED):
            compiled = BoundedVerifier(deriv_spec)
        with BACKEND.using(INTERP):
            interp = BoundedVerifier(deriv_spec)
        assert (compiled.backend, interp.backend) == (COMPILED, INTERP)
        assert compiled.inputs == interp.inputs
        assert compiled.candidate_fuel == interp.candidate_fuel
        assert compiled._expected == interp._expected
        assert compiled._triples == interp._triples
