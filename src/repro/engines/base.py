"""Common engine interface, result type, and the candidate space.

:class:`CandidateSpace` is the engines' shared view of one M̃PY search
space: the tilde module, its hole registry, and one recording runner
(compiled closures by default, the tree-walker under ``interp``). It
serves both access patterns the engines need:

- **per-candidate** — :meth:`CandidateSpace.outcome` runs one assignment
  on one input (an array write + a closure call on the compiled backend);
- **per-input** — :meth:`CandidateSpace.explore` forks at every choice
  point the input's execution reads and returns the complete
  (touched-hole cube → outcome) table for that input, the all-candidates-
  at-once view CEGISMIN blocks counterexamples with and the enumerative
  engine intersects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.compile import BACKEND, COMPILED, compile_program
from repro.explore import (
    ExplorationTable,
    Outcome,
    PathForker,
    domains_from_registry,
    outcome_of,
)
from repro.mpy import nodes as N
from repro.symbolic.recorder import InterpPathRunner
from repro.tilde.nodes import HoleRegistry

if TYPE_CHECKING:
    from repro.core.spec import ProblemSpec
    from repro.resilience.deadline import Deadline

#: Engine statuses.
FIXED = "fixed"  # a minimal correction set was found
NO_FIX = "no_fix"  # the search space contains no equivalent program
TIMEOUT = "timeout"  # gave up on the clock (paper: 4-minute budget)
EXHAUSTED = "exhausted"  # enumeration cap reached (enumerative engine only)


def solve_deadline(
    start: float, timeout_s: float, deadline: Optional["Deadline"]
) -> float:
    """The one monotonic instant a solve stops at, fed to every layer
    below it (forker, verifier, SAT solver): the engine's own budget
    from ``start``, tightened by whatever the request's end-to-end
    ``deadline`` has left (queue wait and warmup already spent)."""
    end = start + timeout_s
    return end if deadline is None else min(end, deadline.at)


@dataclass
class EngineResult:
    """Outcome of one synthesis run."""

    status: str
    assignment: Optional[Dict[int, int]] = None
    cost: Optional[int] = None
    #: True when the returned fix is proven minimal (CEGISMIN ran to UNSAT).
    minimal: bool = False
    iterations: int = 0
    counterexamples: int = 0
    wall_time: float = 0.0
    stats: dict = field(default_factory=dict)
    #: Degraded feedback on ``timeout``: JSON-safe failing tests of the
    #: submission *as written* (assignment ∅) over the verifier's
    #: canonical input prefix — deterministic regardless of where the
    #: solve stopped. None on every other status.
    failing: Optional[list] = None

    @property
    def fixed(self) -> bool:
        return self.status == FIXED


class _ProgramPathRunner:
    """Adapts a :class:`~repro.compile.compiler.CompiledProgram` to the
    forker's two-method runner protocol (entry point bound once)."""

    __slots__ = ("program", "function")

    def __init__(self, program, function: str):
        self.program = program
        self.function = function

    @property
    def fuel(self) -> int:
        return self.program.fuel

    def run_recorded(self, args: tuple, assignment: Dict[int, int]):
        return self.program.run_recorded(self.function, args, assignment)

    def cube(self) -> Dict[int, int]:
        return self.program.cube()


class CandidateSpace:
    """One M̃PY candidate space, executable and explorable.

    One recording runner, built on the process's
    :data:`~repro.compile.BACKEND`, serves the per-candidate runs and
    the path forker alike: the compiled program (lowered to closures
    once; switching candidates is an assignment-array write) or the
    tree-walker's :class:`~repro.symbolic.recorder.InterpPathRunner`.
    """

    def __init__(
        self,
        tilde: N.Module,
        function: str,
        fuel: int,
        registry: Optional[HoleRegistry] = None,
        compare_stdout: bool = False,
    ):
        self.fuel = fuel
        self.registry = registry
        self.compare_stdout = compare_stdout
        self.runner = (
            _ProgramPathRunner(compile_program(tilde, fuel=fuel), function)
            if BACKEND.default() == COMPILED
            else InterpPathRunner(tilde, function, fuel)
        )
        self._forker: Optional[PathForker] = None
        #: Telemetry: direct candidate executions through :meth:`run` and
        #: the fuel they burned (forker runs are counted by the tables).
        self.run_count = 0
        self.fuel_consumed = 0

    @classmethod
    def for_solve(
        cls,
        tilde: N.Module,
        registry: HoleRegistry,
        spec: "ProblemSpec",
        verifier,
    ) -> "CandidateSpace":
        """The space one engine solve searches: ``spec``'s entry point
        and stdout rule, run on the verifier's calibrated fuel."""
        return cls(
            tilde,
            spec.student_function,
            verifier.candidate_fuel,
            registry=registry,
            compare_stdout=spec.compare_stdout,
        )

    # -- per-candidate execution --------------------------------------------

    def run(self, assignment: Dict[int, int], args: tuple):
        """Run one candidate on one input; the cube record covers the
        whole run (top-level re-execution included)."""
        self.run_count += 1
        runner = self.runner
        try:
            return runner.run_recorded(args, assignment)
        finally:
            self.fuel_consumed += self.fuel - max(0, runner.fuel)

    def cube(self) -> Dict[int, int]:
        """The holes the last :meth:`run` read, insertion-ordered."""
        return self.runner.cube()

    def outcome(self, assignment: Dict[int, int], args: tuple) -> Outcome:
        """The observable outcome of one candidate on one input."""
        return outcome_of(
            lambda: self.run(assignment, args), self.compare_stdout
        )

    def failing_as_written(self, verifier) -> Optional[list]:
        """Degraded feedback for a solve that timed out: the verifier's
        failing tests of the submission as written (assignment ∅) —
        deterministic and a few bounded runs, well inside the timeout
        grace. ``None`` when even that raises."""
        try:
            return verifier.failing_tests(lambda args: self.outcome({}, args))
        except Exception:
            return None

    # -- per-input exploration ----------------------------------------------

    def forker(self) -> PathForker:
        """The path forker over this space (requires a registry)."""
        if self._forker is None:
            if self.registry is None:
                raise ValueError(
                    "exploration needs the hole registry; construct the "
                    "CandidateSpace with registry="
                )
            arity, cost = domains_from_registry(self.registry)
            self._forker = PathForker(
                self.runner, arity, cost, compare_stdout=self.compare_stdout
            )
        return self._forker

    def explore(
        self,
        args: tuple,
        pinned: Optional[Dict[int, int]] = None,
        budget: Optional[int] = None,
        fork: Optional[Callable[[int], bool]] = None,
        deadline: Optional[float] = None,
        max_leaves: Optional[int] = None,
    ) -> ExplorationTable:
        """The exploration table of ``args`` (see :class:`PathForker`)."""
        return self.forker().explore(
            args,
            pinned=pinned,
            budget=budget,
            fork=fork,
            deadline=deadline,
            max_leaves=max_leaves,
        )

    def explore_free_region(
        self,
        args: tuple,
        assignment: Dict[int, int],
        deadline: Optional[float] = None,
    ) -> ExplorationTable:
        """The table of ``assignment``'s free-hole neighborhood on ``args``.

        Costly holes are pinned at the candidate's branches; only free
        rule-RHS holes (which carry no cost pressure, so the SAT solver
        would otherwise propose their siblings one by one) fan out. The
        leaves cover *every* assignment agreeing with the candidate on
        its non-free holes — the complete, uncapped replacement for
        per-sibling refutation.
        """
        assert self.registry is not None
        registry = self.registry
        pinned = {
            cid: branch
            for cid, branch in assignment.items()
            if cid in registry and not registry.info(cid).free
        }
        free = {
            info.cid for info in registry.holes() if info.free
        }
        return self.explore(
            args,
            pinned=pinned,
            fork=free.__contains__,
            deadline=deadline,
        )


class Engine(abc.ABC):
    """A search strategy over an M̃PY candidate space."""

    name: str = "engine"

    @abc.abstractmethod
    def solve(
        self,
        tilde: N.Module,
        registry: HoleRegistry,
        spec: ProblemSpec,
        verifier,
        timeout_s: float = 60.0,
        deadline: Optional["Deadline"] = None,
    ) -> EngineResult:
        """Find a minimal-cost hole assignment equivalent to the reference.

        Candidates run on the process's :data:`~repro.compile.BACKEND`
        (see :class:`CandidateSpace`).

        ``deadline`` is the request's end-to-end
        :class:`~repro.resilience.deadline.Deadline`; when given it caps
        the solve *in addition to* ``timeout_s`` (queue wait and warmup
        already spent from it). ``None`` means the engine starts a fresh
        ``timeout_s`` clock — the standalone-call behavior.
        """
