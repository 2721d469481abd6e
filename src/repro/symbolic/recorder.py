"""Hole-directed execution of M̃PY programs with read-set recording.

Running a candidate means interpreting the M̃PY tree while resolving each
choice node from a hole assignment. The interpreter records every hole it
actually consults: since execution is deterministic, *any* assignment that
agrees on the recorded holes replays the identical run on the same input.
A failing run therefore rules out the whole cube of agreeing assignments —
the blocking-clause generalization the CEGIS synthesis phase feeds back to
the SAT solver.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.mpy import nodes as N
from repro.mpy.interp import DEFAULT_FUEL, Interpreter, RunResult
from repro.tilde.nodes import ChoiceBinOp, ChoiceCompare, ChoiceExpr, ChoiceStmt


class RecordingInterpreter(Interpreter):
    """Interprets an M̃PY module under a hole assignment, recording reads."""

    def __init__(
        self,
        module: N.Module,
        assignment: Optional[Dict[int, int]] = None,
        fuel: int = DEFAULT_FUEL,
    ):
        self.assignment: Dict[int, int] = assignment or {}
        self.touched: Dict[int, int] = {}
        super().__init__(module, fuel=fuel)

    def run(
        self, name: str, args: tuple, assignment: Optional[Dict[int, int]] = None
    ) -> RunResult:
        """Call ``name`` on ``args``; resets the touch record first."""
        if assignment is not None:
            self.assignment = assignment
        self.touched = {}
        return self.call(name, args)

    def cube(self) -> Dict[int, int]:
        """The holes read by the last run, with the branches they took."""
        return dict(self.touched)

    # -- choice-node semantics ----------------------------------------------

    def _branch(self, cid: int) -> int:
        branch = self.assignment.get(cid, 0)
        self.touched[cid] = branch
        return branch

    def eval_ChoiceExpr(self, expr: ChoiceExpr, env):
        return self.eval(expr.choices[self._branch(expr.cid)], env)

    def eval_ChoiceCompare(self, expr: ChoiceCompare, env):
        op = expr.ops[self._branch(expr.cid)]
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        return self.compare_op(op, left, right)

    def eval_ChoiceBinOp(self, expr: ChoiceBinOp, env):
        op = expr.ops[self._branch(expr.cid)]
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        return self.binary_op(op, left, right)

    def exec_ChoiceStmt(self, stmt: ChoiceStmt, env) -> None:
        block = stmt.choices[self._branch(stmt.cid)]
        self.exec_block(block, env)

    def assign_target(self, target, value, env) -> None:
        # Assignment-target corrections (rewriting the LHS of assignments,
        # which the paper lists among its supported transformations).
        if isinstance(target, ChoiceExpr):
            chosen = target.choices[self._branch(target.cid)]
            self.assign_target(chosen, value, env)
            return
        super().assign_target(target, value, env)


class InterpPathRunner:
    """Tree-walker path runner: the interpreter backend's recording runner.

    Implements the :class:`~repro.explore.forker.PathForker` runner
    protocol on the interpreter backend so the exploration tables stay
    differential-testable against the compiled substrate; a
    :class:`~repro.engines.base.CandidateSpace` on this backend runs its
    single candidates through it too. Stateless modules reuse one
    interpreter; stateful modules rebuild per path so top-level choice
    reads land in the cube — including when top-level execution itself
    raises (the instance is kept reachable so its partial touched record
    is the failing path's cube, mirroring the compiled backend's
    lazy-error behavior).
    """

    def __init__(self, module: N.Module, function: str, fuel: int):
        self.module = module
        self.function = function
        self.max_fuel = fuel
        self.stateful = any(
            not isinstance(stmt, N.FuncDef) for stmt in module.body
        )
        self._interp: Optional[RecordingInterpreter] = None

    @property
    def fuel(self) -> int:
        return getattr(self._interp, "fuel", self.max_fuel)

    def run_recorded(
        self, args: tuple, assignment: Dict[int, int]
    ) -> RunResult:
        if self.stateful or self._interp is None:
            # Two-phase construction: __init__ executes the module top
            # level and can raise; holding the instance first keeps the
            # partial touch record readable through cube().
            interp = RecordingInterpreter.__new__(RecordingInterpreter)
            self._interp = interp
            interp.__init__(self.module, dict(assignment), fuel=self.max_fuel)
            return interp.call(self.function, args)
        return self._interp.run(
            self.function, args, assignment=dict(assignment)
        )

    def cube(self) -> Dict[int, int]:
        assert self._interp is not None
        return self._interp.cube()
