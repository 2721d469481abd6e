"""Tests for the CDCL solver: hand cases, brute-force cross-checks."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SAT, UNSAT, Solver


def brute_force(num_vars, clauses, assumptions=()):
    """Reference SAT decision by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        def value(lit):
            truth = bits[abs(lit) - 1]
            return truth if lit > 0 else not truth

        if all(value(l) for l in assumptions) and all(
            any(value(l) for l in clause) for clause in clauses
        ):
            return SAT
    return UNSAT


def check_model(solver, clauses):
    for clause in clauses:
        assert any(solver.model_value(l) for l in clause), clause


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() == SAT

    def test_unit_clause(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.solve() == SAT
        assert solver.model_value(1) is True

    def test_contradictory_units(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve() == UNSAT

    def test_simple_implication_chain(self):
        solver = Solver()
        clauses = [[-1, 2], [-2, 3], [-3, 4], [1]]
        for c in clauses:
            solver.add_clause(c)
        assert solver.solve() == SAT
        for v in (1, 2, 3, 4):
            assert solver.model_value(v) is True

    def test_pigeonhole_2_into_1(self):
        solver = Solver()
        # p1 in hole, p2 in hole, not both.
        solver.add_clause([1])
        solver.add_clause([2])
        solver.add_clause([-1, -2])
        assert solver.solve() == UNSAT

    def test_pigeonhole_3_into_2(self):
        solver = Solver()
        # var (p,h) = p*2 + h + 1 for p in 0..2, h in 0..1
        def v(p, h):
            return p * 2 + h + 1

        for p in range(3):
            solver.add_clause([v(p, 0), v(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-v(p1, h), -v(p2, h)])
        assert solver.solve() == UNSAT

    def test_xor_chain_sat(self):
        solver = Solver()
        # x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0
        solver.add_clause([1, 2])
        solver.add_clause([-1, -2])
        solver.add_clause([2, 3])
        solver.add_clause([-2, -3])
        solver.add_clause([1, -3])
        solver.add_clause([-1, 3])
        assert solver.solve() == SAT
        model = solver.model()
        assert model[1] != model[2]
        assert model[2] != model[3]
        assert model[1] == model[3]

    def test_tautological_clause_ignored(self):
        solver = Solver()
        solver.add_clause([1, -1])
        assert solver.solve() == SAT

    def test_duplicate_literals_deduped(self):
        solver = Solver()
        solver.add_clause([1, 1, 1])
        assert solver.solve() == SAT
        assert solver.model_value(1) is True


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) == SAT
        assert solver.model_value(2) is True

    def test_unsat_under_assumption_sat_without(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[-2]) == UNSAT
        assert solver.solve() == SAT
        assert solver.model_value(2) is True

    def test_conflicting_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[1, -1]) == UNSAT

    def test_assumptions_do_not_persist(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]) == UNSAT
        assert solver.solve(assumptions=[-1]) == SAT
        assert solver.solve() == SAT

    def test_incremental_clause_addition(self):
        solver = Solver()
        solver.add_clause([1, 2, 3])
        assert solver.solve() == SAT
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() == SAT
        assert solver.model_value(3) is True
        solver.add_clause([-3])
        assert solver.solve() == UNSAT

    def test_blocking_loop_enumerates_all_models(self):
        solver = Solver()
        solver.add_clause([1, 2])
        models = set()
        while solver.solve() == SAT:
            model = tuple(solver.model_value(v) for v in (1, 2))
            models.add(model)
            solver.add_clause(
                [-v if solver.model_value(v) else v for v in (1, 2)]
            )
        assert models == {(True, True), (True, False), (False, True)}


class TestPhasePreferences:
    def test_preferred_phase_guides_free_variables(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.new_var()  # var 3, unconstrained
        solver.set_preferred(1, True)
        solver.set_preferred(2, False)
        assert solver.solve() == SAT
        assert solver.model_value(1) is True


class TestRandomCNF:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        num_vars = data.draw(st.integers(min_value=1, max_value=8))
        num_clauses = data.draw(st.integers(min_value=1, max_value=24))
        clauses = []
        for _ in range(num_clauses):
            width = data.draw(st.integers(min_value=1, max_value=3))
            clause = [
                data.draw(st.integers(min_value=1, max_value=num_vars))
                * (1 if data.draw(st.booleans()) else -1)
                for _ in range(width)
            ]
            clauses.append(clause)
        solver = Solver()
        for v in range(num_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result == brute_force(num_vars, clauses)
        if result == SAT:
            check_model(solver, clauses)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_assumptions_agree_with_brute_force(self, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=6))
        clauses = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=15))):
            clause = [
                data.draw(st.integers(min_value=1, max_value=num_vars))
                * (1 if data.draw(st.booleans()) else -1)
                for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
            ]
            clauses.append(clause)
        assumptions = [
            v * (1 if data.draw(st.booleans()) else -1)
            for v in data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=num_vars),
                    unique=True,
                    max_size=3,
                )
            )
        ]
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        while solver.num_vars < num_vars:
            solver.new_var()
        result = solver.solve(assumptions=assumptions)
        assert result == brute_force(num_vars, clauses, assumptions)

    def test_larger_random_instances(self):
        rng = random.Random(7)
        for trial in range(30):
            num_vars = rng.randint(10, 18)
            # near the 3-SAT phase transition for interesting instances
            num_clauses = int(num_vars * 4.2)
            clauses = [
                [
                    rng.randint(1, num_vars) * rng.choice([1, -1])
                    for _ in range(3)
                ]
                for _ in range(num_clauses)
            ]
            solver = Solver()
            for v in range(num_vars):
                solver.new_var()
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve()
            assert result == brute_force(num_vars, clauses), f"trial {trial}"
            if result == SAT:
                check_model(solver, clauses)


class TestOrderHeap:
    """The lazy VSIDS max-heap must reproduce the linear scan exactly.

    Decision order is observable through ``stats`` (decisions, conflicts,
    restarts all depend on which variable is picked first), so equal
    stats across the two pickers on random instances pins the heap to
    the reference semantics: highest activity wins, ties break toward
    the smallest variable index.
    """

    @staticmethod
    def _pick_branch_var_linear(solver):
        """Reference O(num_vars) scan over the unassigned variables."""
        best = None
        best_activity = -1.0
        for var in range(1, solver.num_vars + 1):
            if (
                solver.values[var << 1] is None
                and solver.activity[var] > best_activity
            ):
                best = var
                best_activity = solver.activity[var]
        return best

    def _paired_solvers(self):
        heap_solver = Solver()
        linear_solver = Solver()
        linear_solver._pick_branch_var = lambda: (
            self._pick_branch_var_linear(linear_solver)
        )
        return heap_solver, linear_solver

    def test_matches_linear_scan_on_random_instances(self):
        rng = random.Random(31)
        for trial in range(25):
            num_vars = rng.randint(10, 60)
            clauses = [
                [
                    rng.randint(1, num_vars) * rng.choice([1, -1])
                    for _ in range(3)
                ]
                for _ in range(int(num_vars * rng.uniform(2.5, 4.5)))
            ]
            heap_solver, linear_solver = self._paired_solvers()
            for solver in (heap_solver, linear_solver):
                for _ in range(num_vars):
                    solver.new_var()
                for clause in clauses:
                    solver.add_clause(list(clause))
            assert heap_solver.solve() == linear_solver.solve(), trial
            assert heap_solver.stats == linear_solver.stats, trial

    def test_matches_under_incremental_assumptions(self):
        rng = random.Random(13)
        heap_solver, linear_solver = self._paired_solvers()
        for solver in (heap_solver, linear_solver):
            for _ in range(30):
                solver.new_var()
        for step in range(25):
            clause = [
                rng.randint(1, 30) * rng.choice([1, -1]) for _ in range(3)
            ]
            assumptions = [
                rng.randint(1, 30) * rng.choice([1, -1]) for _ in range(2)
            ]
            heap_solver.add_clause(list(clause))
            linear_solver.add_clause(list(clause))
            assert heap_solver.solve(
                assumptions=assumptions
            ) == linear_solver.solve(assumptions=assumptions), step
            assert heap_solver.stats == linear_solver.stats, step

    def test_unassigned_vars_reenter_heap_after_backtrack(self):
        solver = Solver()
        for _ in range(6):
            solver.new_var()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        solver.add_clause([-3, -2, 4])
        assert solver.solve() == SAT
        # A second solve must still be able to branch on every variable.
        solver.add_clause([-4, 5])
        assert solver.solve() == SAT
