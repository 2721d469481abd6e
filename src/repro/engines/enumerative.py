"""Brute-force enumeration baseline.

The related work the paper positions against (mutation-based repair [10],
brute-force search [3]) explores candidate programs one at a time. This
engine reproduces that strategy over the same M̃PY spaces: enumerate
canonical hole assignments in nondecreasing cost order, check each against
counterexample inputs, and fully verify survivors. The first verified
candidate is cost-minimal by construction.

With ``explorer=True`` (the default), the inner check is a **table
intersection** instead of a nested run loop: each counterexample input is
explored once into a (cube → outcome) table up to the engine's cost
bound, and rejecting a candidate is a trie walk per table — no program
execution at all. Only full verification of survivors still runs code,
and only on inputs without a table. ``explorer=False`` restores the
literal per-candidate sweep.

The candidate cap makes the paper's point measurable: spaces that CEGISMIN
dispatches in seconds push enumeration past any reasonable budget
(Section 7.2: "the large state space of mutants makes this approach
infeasible").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engines.base import (
    EXHAUSTED,
    FIXED,
    NO_FIX,
    TIMEOUT,
    CandidateSpace,
    Engine,
    EngineResult,
    solve_deadline,
)
from repro.engines.verify import BoundedVerifier, outcomes_match
from repro.explore import ExplorationLimit
from repro.explore.table import ExplorationTable
from repro.mpy import nodes as N
from repro.tilde.nodes import HoleRegistry

if TYPE_CHECKING:
    from repro.core.spec import ProblemSpec
    from repro.resilience.deadline import Deadline


def _topological_holes(registry: HoleRegistry) -> List:
    """Holes ordered parents-before-children."""
    infos = {info.cid: info for info in registry.holes()}
    ordered: List = []
    visiting: set = set()

    def visit(cid: int) -> None:
        if cid in visiting:
            return
        visiting.add(cid)
        info = infos[cid]
        if info.parent is not None:
            visit(info.parent[0])
        if info not in ordered:
            ordered.append(info)

    for cid in sorted(infos):
        visit(cid)
    # Deduplicate while preserving order (visit may append parents twice).
    seen: set = set()
    unique: List = []
    for info in ordered:
        if info.cid not in seen:
            seen.add(info.cid)
            unique.append(info)
    return unique


def assignments_up_to_cost(
    registry: HoleRegistry, max_cost: int
) -> Iterator[Tuple[Dict[int, int], int]]:
    """All canonical assignments with cost ≤ ``max_cost``, cheapest first.

    Children of unselected branches are pinned to their defaults, so each
    distinct candidate program appears exactly once.
    """
    holes = _topological_holes(registry)
    infos = {info.cid: info for info in holes}

    def active(info, partial: Dict[int, int]) -> bool:
        parent = info.parent
        while parent is not None:
            parent_cid, branch = parent
            if partial.get(parent_cid, 0) != branch:
                return False
            parent = infos[parent_cid].parent
        return True

    def dfs(index: int, partial: Dict[int, int], cost: int):
        if index == len(holes):
            yield dict(partial), cost
            return
        info = holes[index]
        if not active(info, partial):
            yield from dfs(index + 1, partial, cost)
            return
        for branch in range(info.arity):
            extra = 0 if (branch == 0 or info.free) else 1
            if cost + extra > max_cost:
                continue
            if branch != 0:
                partial[info.cid] = branch
            yield from dfs(index + 1, partial, cost + extra)
            partial.pop(info.cid, None)

    # Cost-ordered: run the DFS per target cost level.
    for target in range(max_cost + 1):
        for assignment, cost in dfs(0, {}, 0):
            if cost == target:
                yield assignment, cost


class EnumerativeEngine(Engine):
    """Cost-ordered brute-force search (the mutation-repair strawman)."""

    name = "enumerative"

    def __init__(
        self,
        max_cost: int = 4,
        max_candidates: int = 500_000,
        seed_inputs: int = 4,
        explorer: bool = True,
        table_leaf_cap: int = 20_000,
    ):
        self.max_cost = max_cost
        self.max_candidates = max_candidates
        self.seed_inputs = seed_inputs
        #: Table-intersection rejection; False is the per-candidate
        #: sweep ablation.
        self.explorer = explorer
        #: An input whose exploration would exceed this many leaves falls
        #: back to direct candidate runs — tables must stay cheaper than
        #: the sweeps they replace.
        self.table_leaf_cap = table_leaf_cap

    def solve(
        self,
        tilde: N.Module,
        registry: HoleRegistry,
        spec: ProblemSpec,
        verifier: BoundedVerifier,
        timeout_s: float = 60.0,
        deadline: Optional["Deadline"] = None,
    ) -> EngineResult:
        start = time.monotonic()
        deadline = solve_deadline(start, timeout_s, deadline)
        space = CandidateSpace.for_solve(tilde, registry, spec, verifier)
        cex_cache: List[tuple] = list(verifier.seed_inputs(self.seed_inputs))
        #: Parallel to ``cex_cache``: the input's exploration table (None
        #: when untabled — ``explorer=False`` / too large) and its reference
        #: outcome, hoisted so the per-candidate loop never re-freezes
        #: args through ``verifier.expected``.
        tables: List[Optional[ExplorationTable]] = []
        expected_cache: List = [verifier.expected(args) for args in cex_cache]
        candidates = 0
        full_verifications = 0
        table_leaves = 0
        table_hits = 0
        forker_runs = 0
        forker_reused = 0

        def result(status, assignment=None, cost=None) -> EngineResult:
            return EngineResult(
                status=status,
                assignment=assignment,
                cost=cost,
                minimal=status == FIXED,
                failing=(
                    space.failing_as_written(verifier)
                    if status == TIMEOUT
                    else None
                ),
                iterations=candidates,
                counterexamples=len(cex_cache),
                wall_time=time.monotonic() - start,
                stats={
                    "engine": self.name,
                    "candidates": candidates,
                    "full_verifications": full_verifications,
                    "tables": sum(1 for t in tables if t is not None),
                    "table_leaves": table_leaves,
                    "table_hits": table_hits,
                    "forker_runs": forker_runs,
                    "forker_reused": forker_reused,
                    "candidate_runs": space.run_count,
                    "fuel_consumed": space.fuel_consumed,
                    "explorer": self.explorer,
                },
            )

        def table_for(args: tuple) -> Optional[ExplorationTable]:
            """Explore ``args`` up to the cost bound; None when off/huge."""
            nonlocal table_leaves, forker_runs, forker_reused
            if not self.explorer:
                return None
            try:
                table = space.explore(
                    args,
                    budget=self.max_cost,
                    deadline=deadline,
                    max_leaves=self.table_leaf_cap,
                )
            except ExplorationLimit:
                return None
            table_leaves += len(table)
            forker_runs += table.runs
            forker_reused += len(table) - table.runs
            return table

        def rejected_by(index: int, assignment: Dict[int, int]) -> bool:
            """Does counterexample input #index rule the candidate out?

            A trie walk when the input is tabled; a real run otherwise.
            """
            nonlocal table_hits
            expected = expected_cache[index]
            table = tables[index]
            if table is not None:
                outcome = table.lookup(assignment)
                if outcome is not None:
                    table_hits += 1
                    return not outcomes_match(expected, outcome)
            return not outcomes_match(
                expected, space.outcome(assignment, cex_cache[index])
            )

        try:
            for args in cex_cache:
                tables.append(table_for(args))

            for assignment, cost in assignments_up_to_cost(
                registry, self.max_cost
            ):
                candidates += 1
                if candidates > self.max_candidates:
                    return result(EXHAUSTED)
                if candidates % 64 == 0 and time.monotonic() > deadline:
                    return result(TIMEOUT)
                if any(
                    rejected_by(index, assignment)
                    for index in range(len(cex_cache))
                ):
                    continue
                full_verifications += 1
                cex = verifier.find_counterexample(
                    lambda args: space.outcome(assignment, args),
                    deadline=deadline,
                )
                if cex is None:
                    return result(FIXED, assignment=assignment, cost=cost)
                cex_cache.append(cex)
                expected_cache.append(verifier.expected(cex))
                tables.append(table_for(cex))
        except TimeoutError:
            return result(TIMEOUT)
        return result(NO_FIX)
