"""CEGISMIN: counterexample-guided inductive synthesis with minimization.

This is the paper's Algorithm 1 on our substrate:

- **Synthesis phase** — the SAT solver proposes a hole assignment
  consistent with every behavior observed so far (blocking clauses from
  failed runs) and with the current cost bound (assumption on the counting
  network). This mirrors ``Synth(σ, Φ)``.
- **Verification phase** — the candidate is swept over the full bounded
  input space. A disagreeing input is the new counterexample state σ
  (``Verify(φ)``).
- **Minimization** — when verification succeeds, instead of returning, the
  loop records the solution φ_p and adds the constraint "cost < cost(φ)"
  (the paper's ``minHole < minHoleVal``), continuing until the constraints
  become unsatisfiable; the previous solution is then a *provably minimal*
  correction (Algorithm 1 lines 5–7, 11–13).

Failed runs are generalized before blocking: execution under a concrete
assignment only reads the holes on its path, so the blocking clause covers
the whole cube of assignments that agree on those holes. With
``explorer=True`` (the default), each failure goes further: the path
forker re-runs the counterexample input over the failing candidate's
**free-hole neighborhood** — every assignment agreeing with the candidate
on its costly holes — and every failing leaf of the resulting exploration
table is blocked in the same SAT round. Free rule-RHS holes carry no cost
pressure, so without the tables the solver would propose their siblings
one by one; with them the whole failing region vanishes at once, uncapped,
visiting only *reachable* branch combinations (the concrete counterpart of
what SKETCH's symbolic encoding rules out in a single conflict).
``explorer=False`` is the ablation: one generalized cube per failing
candidate, the per-candidate sweep the tables replace.

``incremental=False`` rebuilds the solver at every cost bound instead of
reusing learned state — the ablation the paper's incremental-solving claim
(Section 4.2) is benchmarked against. SAT statistics are accumulated
across rebuilds, so ``EngineResult.stats`` reports whole-run totals in
both modes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import time
from typing import Dict, List, Optional, Tuple

from repro.engines.base import (
    FIXED,
    NO_FIX,
    TIMEOUT,
    CandidateSpace,
    Engine,
    EngineResult,
    solve_deadline,
)
from repro.engines.encoding import HoleEncoding
from repro.engines.verify import BoundedVerifier, outcomes_match
from repro.mpy import nodes as N
from repro.sat import SAT, Solver
from repro.tilde.nodes import HoleRegistry
from repro.tilde.semantics import assignment_cost

if TYPE_CHECKING:
    from repro.core.spec import ProblemSpec
    from repro.resilience.deadline import Deadline


class CegisMinEngine(Engine):
    """The paper's solver: CEGIS + SAT + incremental cost minimization."""

    name = "cegismin"

    def __init__(
        self,
        seed_inputs: int = 4,
        max_iterations: int = 200_000,
        incremental: bool = True,
        max_cost: int = 5,
        strategy: str = "ascend",
        explorer: bool = True,
    ):
        self.seed_inputs = seed_inputs
        self.max_iterations = max_iterations
        self.incremental = incremental
        #: Give up beyond this many corrections (the paper's distribution
        #: tops out at 4, Fig. 14(a)); larger rewrites are the "big
        #: conceptual errors" the tool is not meant to fix.
        self.max_cost = max_cost
        #: "ascend": iterative deepening on the correction cost — each level
        #: is exhausted before the next, so the first verified candidate is
        #: provably minimal. "descend": the paper's Algorithm 1 order (find
        #: any solution, then constrain cost < best until UNSAT); with a
        #: concrete-execution backend this direction explores far more of
        #: the space, which is exactly what the ablation benchmark shows.
        self.strategy = strategy
        #: Table-based blocking: block every failing leaf of a
        #: counterexample's free-hole region per round. False is the
        #: per-candidate-sweep ablation.
        self.explorer = explorer

    def solve(
        self,
        tilde: N.Module,
        registry: HoleRegistry,
        spec: ProblemSpec,
        verifier: BoundedVerifier,
        timeout_s: float = 60.0,
        backend: Optional[str] = None,
        deadline: Optional["Deadline"] = None,
    ) -> EngineResult:
        start = time.monotonic()
        deadline = solve_deadline(start, timeout_s, deadline)
        space = CandidateSpace.for_solve(
            tilde, registry, spec, verifier, backend
        )

        solver = Solver()
        encoding = HoleEncoding(solver, registry)
        #: Every cube blocked so far, keyed by its frozen items, in
        #: blocking order (non-incremental rebuilds replay them).
        blocked: Dict[frozenset, None] = {}
        #: SAT statistics of solvers discarded by non-incremental rebuilds;
        #: reported totals are base + the live solver (whole-run numbers).
        sat_base = {key: 0 for key in solver.stats}

        cex_cache: List[tuple] = list(verifier.seed_inputs(self.seed_inputs))
        best: Optional[Dict[int, int]] = None
        best_cost: Optional[int] = None
        iterations = 0
        sat_calls = 0
        table_leaves = 0
        forker_runs = 0
        forker_reused = 0

        def result(status: str, minimal: bool) -> EngineResult:
            return EngineResult(
                status=status,
                assignment=best,
                cost=best_cost,
                minimal=minimal,
                failing=(
                    space.failing_as_written(verifier)
                    if status == TIMEOUT
                    else None
                ),
                iterations=iterations,
                counterexamples=len(cex_cache),
                wall_time=time.monotonic() - start,
                stats={
                    "sat_calls": sat_calls,
                    "blocked_cubes": len(blocked),
                    "table_leaves": table_leaves,
                    "forker_runs": forker_runs,
                    "forker_reused": forker_reused,
                    "candidate_runs": space.run_count,
                    "fuel_consumed": space.fuel_consumed,
                    "sat_conflicts": sat_base["conflicts"]
                    + solver.stats["conflicts"],
                    "sat_decisions": sat_base["decisions"]
                    + solver.stats["decisions"],
                    "sat_propagations": sat_base["propagations"]
                    + solver.stats["propagations"],
                    "sat_learned": sat_base["learned"]
                    + solver.stats["learned"],
                    "sat_restarts": sat_base["restarts"]
                    + solver.stats["restarts"],
                    "engine": self.name,
                    "incremental": self.incremental,
                    "explorer": self.explorer,
                },
            )

        def block(cube: Dict[int, int]) -> None:
            key = frozenset(cube.items())
            if key in blocked:
                return
            blocked[key] = None
            encoding.block_cube(cube)

        def block_failures(assignment: Dict[int, int], args: tuple) -> None:
            """Rule out everything this failure generalizes to.

            Explorer on: every failing leaf of the candidate's free-hole
            region on ``args`` — the whole region is refuted in this one
            SAT round. Explorer off: just the failing run's own cube.
            """
            nonlocal table_leaves, forker_runs, forker_reused
            if not self.explorer:
                # The failing run is the space's last execution at both
                # call sites (the inductive loop breaks on it; the full
                # sweep returns at the first mismatch), so its touch
                # record is current — no re-run needed.
                block(space.cube())
                return
            table = space.explore_free_region(
                args, assignment, deadline=deadline
            )
            table_leaves += len(table)
            forker_runs += table.runs
            forker_reused += len(table) - table.runs
            _, failing = verifier.table_verdict(table)
            for leaf in failing:
                block(leaf.cube)

        # Cost levels to try, in search order. Ascending exhausts level k
        # before k+1 (first hit is minimal); descending is Algorithm 1's
        # literal order: unbounded first, then "cost < best" until UNSAT.
        cost_cap = min(self.max_cost, len(encoding.cost_inputs))
        if self.strategy == "ascend":
            levels = iter(range(0, cost_cap + 1))
        else:
            levels = iter([cost_cap])
        level = next(levels, None)

        while iterations < self.max_iterations:
            iterations += 1
            if time.monotonic() > deadline:
                return result(
                    FIXED if best is not None else TIMEOUT, minimal=False
                )

            if self.strategy == "ascend":
                if level is None:
                    return result(NO_FIX, minimal=False)
                assumptions = encoding.bound_assumptions(level)
            else:
                if best_cost == 0:
                    return result(FIXED, minimal=True)
                assumptions = (
                    encoding.bound_assumptions(best_cost - 1)
                    if best_cost is not None
                    else encoding.bound_assumptions(cost_cap)
                )
            sat_calls += 1
            encoding.reset_phases()
            try:
                verdict = solver.solve(
                    assumptions=assumptions, deadline=deadline
                )
            except TimeoutError:
                # The solver aborted mid-search; its partial state is
                # meaningless for this cost level but the run's best
                # verified solution (if any) still stands.
                return result(
                    FIXED if best is not None else TIMEOUT, minimal=False
                )
            if verdict != SAT:
                if self.strategy == "ascend":
                    level = next(levels, None)
                    if level is None:
                        return result(NO_FIX, minimal=False)
                    continue
                if best is not None:
                    return result(FIXED, minimal=True)
                return result(NO_FIX, minimal=False)
            assignment = encoding.assignment_from_model()

            try:
                # Inductive check against the cached counterexample inputs.
                failed = False
                for args in cex_cache:
                    outcome = space.outcome(assignment, args)
                    if not outcomes_match(verifier.expected(args), outcome):
                        block_failures(assignment, args)
                        failed = True
                        break
                if failed:
                    if not self.incremental:
                        solver, encoding = self._rebuild(
                            registry, blocked, solver, sat_base
                        )
                    continue

                # Full bounded verification.
                cex = verifier.find_counterexample(
                    lambda args: space.outcome(assignment, args),
                    deadline=deadline,
                )
            except TimeoutError:
                return result(
                    FIXED if best is not None else TIMEOUT, minimal=False
                )
            if cex is not None:
                cex_cache.append(cex)
                try:
                    block_failures(assignment, cex)
                except TimeoutError:
                    return result(
                        FIXED if best is not None else TIMEOUT, minimal=False
                    )
                if not self.incremental:
                    solver, encoding = self._rebuild(
                        registry, blocked, solver, sat_base
                    )
                continue

            # Verified.
            cost = assignment_cost(registry, assignment)
            best = assignment
            best_cost = cost
            if self.strategy == "ascend":
                # Levels below were exhausted: this solution is minimal.
                return result(FIXED, minimal=True)
            # Algorithm 1 lines 11-13: record and tighten the bound.
            if not self.incremental:
                solver, encoding = self._rebuild(
                    registry, blocked, solver, sat_base
                )
        return result(FIXED if best is not None else TIMEOUT, minimal=False)

    def _rebuild(
        self,
        registry: HoleRegistry,
        blocked: Dict[frozenset, None],
        old_solver: Solver,
        sat_base: Dict[str, int],
    ) -> Tuple[Solver, HoleEncoding]:
        """Non-incremental mode: fresh solver, re-adding blocking clauses.

        The discarded solver's statistics are folded into ``sat_base``
        first, so reported totals cover the whole run, not just the last
        rebuild.
        """
        for key in sat_base:
            sat_base[key] += old_solver.stats[key]
        solver = Solver()
        encoding = HoleEncoding(solver, registry)
        # ``block_cube`` sorts by cid, so the re-added clauses are the
        # ones the discarded solver got.
        encoding.block_cubes(dict(key) for key in blocked)
        return solver, encoding
