"""Engine tests: CEGISMIN and the enumerative baseline.

The central invariant: on any space where both terminate, the cost found by
CEGISMIN equals the brute-force minimum (the enumerative engine's result is
minimal by construction since it enumerates in cost order).
"""

import pytest

from repro.core.spec import ProblemSpec
from repro.eml import parse_error_model
from repro.engines import BoundedVerifier, CegisMinEngine, EnumerativeEngine
from repro.engines.base import FIXED, NO_FIX, CandidateSpace, solve_deadline
from repro.engines.enumerative import assignments_up_to_cost
from repro.mpy import parse_program
from repro.mpy.values import Bounds
from repro.resilience.deadline import Deadline
from repro.tilde.nodes import instantiate
from repro.tilde.semantics import assignment_cost

BOUNDS = Bounds(int_bits=3, max_list_len=3)

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
        "computeDeriv", DERIV_REF, bounds=BOUNDS
    )


@pytest.fixture(scope="module")
def deriv_verifier(deriv_spec):
    return BoundedVerifier(deriv_spec)


def _prepare(spec, model_text, student_source):
    model = parse_error_model(model_text)
    module = parse_program(student_source)
    from repro.core.rewriter import rewrite_submission

    return rewrite_submission(module, spec, model)


class TestCegisMinOnPaperExample:
    def test_fig2a_fixed_with_three_corrections(
        self, deriv_spec, deriv_verifier
    ):
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        result = CegisMinEngine().solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        assert result.status == FIXED
        assert result.cost == 3  # the paper's Fig. 2(d): 3 changes
        assert result.minimal

    def test_fixed_program_verifies(self, deriv_spec, deriv_verifier):
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        result = CegisMinEngine().solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        fixed = instantiate(tilde, result.assignment)
        from repro.engines.verify import outcome_of
        from repro.mpy.interp import Interpreter

        interp = Interpreter(fixed, fuel=deriv_spec.fuel)
        assert deriv_verifier.is_equivalent(
            lambda args: outcome_of(
                lambda: interp.call("computeDeriv", args), False
            )
        )

    def test_correct_submission_costs_zero(self, deriv_spec, deriv_verifier):
        correct = """def computeDeriv(poly):
    if len(poly) == 1:
        return [0]
    out = []
    for i in range(1, len(poly)):
        out.append(i * poly[i])
    return out
"""
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, correct)
        result = CegisMinEngine().solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        assert result.status == FIXED
        assert result.cost == 0

    def test_no_fix_when_model_insufficient(self, deriv_spec, deriv_verifier):
        # A model that only rewrites range() cannot fix a missing base case
        # plus wrong aggregation.
        broken = """def computeDeriv(poly):
    return []
"""
        tilde, registry = _prepare(
            deriv_spec, "rule RANR: range(a1, a2) -> range(a1 + 1, a2)", broken
        )
        result = CegisMinEngine().solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        assert result.status == NO_FIX


class TestEnginesAgree:
    @pytest.mark.parametrize(
        "student",
        [
            FIG2A,
            # single off-by-one
            """def computeDeriv(poly):
    result = []
    for i in range(0, len(poly)):
        result += [i * poly[i]]
    if len(poly) == 1:
        return result
    else:
        return result[1:]
""",
        ],
    )
    def test_same_minimal_cost(self, deriv_spec, deriv_verifier, student):
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, student)
        cegis = CegisMinEngine().solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        brute = EnumerativeEngine(max_cost=4).solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        assert cegis.status == brute.status == FIXED
        assert cegis.cost == brute.cost

    def test_nonincremental_matches(self, deriv_spec, deriv_verifier):
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        incremental = CegisMinEngine(incremental=True).solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        restart = CegisMinEngine(incremental=False).solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60
        )
        assert incremental.cost == restart.cost == 3
        assert incremental.minimal and restart.minimal


class TestAssignmentEnumeration:
    def test_cost_order_and_uniqueness(self, deriv_spec):
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        seen = set()
        last_cost = 0
        for assignment, cost in assignments_up_to_cost(registry, 3):
            key = tuple(sorted(assignment.items()))
            assert key not in seen, "duplicate assignment"
            seen.add(key)
            assert cost >= last_cost, "not cost-ordered"
            last_cost = cost
            assert assignment_cost(registry, assignment) == cost

    def test_counts_match_binomials(self, deriv_spec):
        # Five binary holes: sum_{k<=2} C(5,k) assignments.
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        assert len(registry) == 5
        total = sum(1 for _ in assignments_up_to_cost(registry, 2))
        assert total == 1 + 5 + 10


class TestTimeout:
    def test_timeout_reported(self, deriv_spec, deriv_verifier):
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        result = CegisMinEngine().solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=0.0
        )
        assert result.status in ("timeout", "fixed")
        # With a zero budget and no prior success, it must be a timeout.
        assert result.status == "timeout"


class _BrokenVerifier:
    def failing_tests(self, run):
        raise RuntimeError("verifier failed")


class TestSolveSetup:
    """The per-solve setup both engines share."""

    def test_solve_deadline_takes_the_earlier_end(self):
        assert solve_deadline(100.0, 5.0, None) == 105.0
        assert solve_deadline(100.0, 5.0, Deadline(102.0)) == 102.0
        assert solve_deadline(100.0, 5.0, Deadline(109.0)) == 105.0

    def test_failing_as_written(self, deriv_spec, deriv_verifier):
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        space = CandidateSpace.for_solve(
            tilde, registry, deriv_spec, deriv_verifier
        )
        # Fig. 2(a) as written fails tests; a verifier that raises
        # leaves the degraded record without them.
        assert space.failing_as_written(deriv_verifier)
        assert space.failing_as_written(_BrokenVerifier()) is None

    @pytest.mark.parametrize("engine_cls", [CegisMinEngine, EnumerativeEngine])
    def test_engines_explore_by_default(
        self, engine_cls, monkeypatch, deriv_spec, deriv_verifier
    ):
        # The ablation is the explorer=False argument alone; the retired
        # REPRO_EXPLORER variable no longer reaches the engines.
        monkeypatch.setenv("REPRO_EXPLORER", "off")
        tilde, registry = _prepare(deriv_spec, SIMPLE_MODEL, FIG2A)
        result = engine_cls().solve(
            tilde, registry, deriv_spec, deriv_verifier, timeout_s=60.0
        )
        assert result.status == FIXED
        assert result.stats["explorer"] is True
