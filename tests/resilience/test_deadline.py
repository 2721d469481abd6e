"""End-to-end deadline propagation: the clock object, the amortized
ticker, the engine fold, and the SAT solver's conflict-loop check.

The slow-solve fixture is ``restaurant-rush`` with one ``+`` flipped to
``-``: empirically the cheapest submission in the registry whose repair
search reliably exceeds a ~1.5 s budget while still failing within the
verifier's first canonical inputs — so a timeout record carries real
degraded feedback, not just a status.
"""

import time

import pytest

from repro.problems import get_problem
from repro.resilience.deadline import Deadline, DeadlineTicker
from repro.sat import SAT, UNSAT, Solver
from repro.server.warm import warm_problem
from repro.service import GradingConfig
from repro.service.workers import grade_record

#: Engine-overshoot allowance, mirroring the service acceptance
#: contract: a structured timeout must land within budget + 0.5 s.
GRACE_S = 0.5


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(5.0)
        assert 4.5 < deadline.remaining() <= 5.0
        assert not deadline.expired()

    def test_negative_timeout_clamps_to_now(self):
        deadline = Deadline.after(-3.0)
        assert deadline.remaining() == 0.0
        time.sleep(0.001)
        assert deadline.expired()

    def test_budget_caps(self):
        deadline = Deadline.after(10.0)
        assert deadline.budget() == pytest.approx(10.0, abs=0.2)
        assert deadline.budget(cap=2.0) == pytest.approx(2.0, abs=0.001)
        assert deadline.budget(cap=-1.0) == 0.0

    def test_remaining_never_negative(self):
        deadline = Deadline(time.monotonic() - 100.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired()


class TestDeadlineTicker:
    def test_no_deadline_never_fires(self):
        ticker = DeadlineTicker(None, stride=2)
        assert not any(ticker.tick() for _ in range(100))

    def test_fires_only_on_the_stride(self):
        past = time.monotonic() - 1.0
        ticker = DeadlineTicker(past, stride=4)
        # Three cheap ticks, then the stride-th reads the clock.
        assert [ticker.tick() for _ in range(4)] == [
            False,
            False,
            False,
            True,
        ]

    def test_future_deadline_does_not_fire(self):
        ticker = DeadlineTicker(time.monotonic() + 60.0, stride=1)
        assert not any(ticker.tick() for _ in range(10))


class TestSolverDeadline:
    @staticmethod
    def _pigeonhole(solver: Solver, pigeons: int, holes: int) -> None:
        def var(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p in range(pigeons):
                for q in range(p + 1, pigeons):
                    solver.add_clause([-var(p, h), -var(q, h)])

    def test_expired_deadline_raises_within_grace(self):
        solver = Solver()
        # PHP(7, 6): UNSAT, ~900 conflicts — far more than one ticker
        # stride, so the amortized check must fire.
        self._pigeonhole(solver, 7, 6)
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            solver.solve(deadline=time.monotonic() - 1.0)
        assert time.monotonic() - started < GRACE_S

    def test_solver_stays_usable_after_timeout(self):
        solver = Solver()
        self._pigeonhole(solver, 7, 6)
        with pytest.raises(TimeoutError):
            solver.solve(deadline=time.monotonic() - 1.0)
        easy = Solver()
        easy.add_clause([1, 2])
        easy.add_clause([-1])
        assert easy.solve() == SAT
        # And the timed-out instance itself still solves to completion.
        assert solver.solve() == UNSAT


@pytest.fixture(scope="module")
def rush():
    return warm_problem(get_problem("restaurant-rush"), prime=False)


@pytest.fixture(scope="module")
def slow_submission(rush):
    # One flipped operator: wrong on early canonical inputs, and the
    # repair search does not finish inside a ~1.5 s budget.
    mutated = rush.spec.reference_source.replace("+", "-", 1)
    assert mutated != rush.spec.reference_source
    return mutated


class TestEngineDeadline:
    def test_pre_expired_deadline_short_circuits_before_the_solve(
        self, rush, slow_submission
    ):
        started = time.monotonic()
        record = grade_record(
            rush,
            slow_submission,
            GradingConfig(timeout_s=30.0),
            deadline=Deadline(time.monotonic() - 1.0),
        )
        assert record["status"] == "timeout"
        # Nothing like a 30 s solve happened.
        assert time.monotonic() - started < GRACE_S

    @pytest.mark.parametrize("engine", ["cegismin", "enumerative"])
    def test_timeout_within_grace_with_degraded_feedback(
        self, rush, slow_submission, engine
    ):
        budget = 1.5
        started = time.monotonic()
        record = grade_record(
            rush, slow_submission, GradingConfig(engine, budget)
        )
        wall = time.monotonic() - started
        assert record["status"] == "timeout"
        assert wall < budget + GRACE_S
        degraded = record["degraded"]
        assert degraded["reason"] == "solver_timeout"
        assert degraded["failing_tests"]
        for row in degraded["failing_tests"]:
            assert set(row) == {"input", "expected", "got"}

    def test_deadline_folds_below_the_requested_budget(
        self, rush, slow_submission
    ):
        # timeout_s says 30 s, but the end-to-end deadline has only
        # ~1.2 s left — the engine must spend the *minimum* of the two.
        started = time.monotonic()
        record = grade_record(
            rush,
            slow_submission,
            GradingConfig(timeout_s=30.0),
            deadline=Deadline.after(1.2),
        )
        wall = time.monotonic() - started
        assert record["status"] == "timeout"
        assert wall < 1.2 + GRACE_S
