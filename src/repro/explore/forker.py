"""DFS path forker: enumerate every reachable execution path of one input.

Running an M̃PY program on one input under a partial assignment reads a
*sequence* of choice points: execution is deterministic, so the first
untouched choice it consults — and every one after — is a function of the
branches taken before it. The forker exploits this with **replay-based
branching** (the concrete substrate's stand-in for SKETCH exploring all
candidates symbolically):

1. run once with every undecided choice resolving to its default branch;
2. read the run's touched-hole record *in first-read order* (the
   compiled backend and the recording interpreter both guarantee dict
   insertion order = first-read order) and append each fresh choice
   point to the decision stack at branch 0;
3. backtrack: advance the deepest decision with an unexplored sibling,
   drop the decisions below it, and replay — the decision prefix above
   it is shared verbatim, so only reachable branch combinations are ever
   executed (holes not read on a path never multiply into it).

The result is an :class:`~repro.explore.table.ExplorationTable` whose
leaves' cubes cover the whole candidate space for that input (restricted
to ``pinned`` / ``budget`` when given) while each distinct execution path
runs exactly once — O(distinct paths), not O(candidates).

A forker also remembers, per input, every path it has run: a trie keyed
on first-read order. One solve explores the same counterexample input
under many costly-hole pins, and the regions overlap, so before each
replay the forker walks the trie with the pending assignment (holes it
leaves out resolve to branch 0, as in
:meth:`~repro.explore.table.ExplorationTable.leaf_for`). A walk that
reaches a leaf gives the path's cube and outcome without running it; a
walk that falls off runs the path and hangs the new suffix where it
fell off. The walk resumes at the decision the backtrack moved, never at
the root: the path above it is the previous leaf's. Tables are the same
leaf for leaf either way; ``ExplorationTable.runs`` counts only the runs
executed.

Forking can be restricted three ways, composably:

- ``pinned`` — holes held at fixed branches (explore one region);
- ``fork`` — a predicate choosing which holes fan out (e.g. only free
  rule-RHS holes, the neighborhood ``CEGISMIN`` blocks per failure);
- ``budget`` — a correction-cost bound: non-default branches of costly
  holes consume budget and unaffordable siblings are pruned, matching
  the cost levels CEGISMIN searches under.
"""

from __future__ import annotations

import time
from array import array
from itertools import islice, repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.explore.outcomes import ERROR, Outcome, outcome_of
from repro.explore.table import ExplorationTable, Leaf

#: The one outcome every error leaf of a trie shares.
_ERROR: Outcome = (ERROR,)


class ExplorationLimit(RuntimeError):
    """Raised when a table would exceed the caller's ``max_leaves``."""

    def __init__(self, input_args: tuple, leaves: int):
        super().__init__(
            f"exploration of input {input_args!r} exceeded {leaves} leaves"
        )
        #: The explored input (``args`` would clobber BaseException.args).
        self.input_args = input_args
        self.leaves = leaves


def domains_from_registry(
    registry,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(arity, cost-per-correction) maps for a
    :class:`~repro.tilde.nodes.HoleRegistry` — free rule-RHS holes cost 0."""
    arity: Dict[int, int] = {}
    cost: Dict[int, int] = {}
    for info in registry.holes():
        arity[info.cid] = info.arity
        cost[info.cid] = 0 if info.free else 1
    return arity, cost


class PathForker:
    """Explores the candidate space of a program one input at a time.

    ``runner`` is any path runner exposing the two-method protocol

    - ``run_recorded(args, assignment) -> RunResult`` — execute under the
      assignment with a touched-hole record that covers the *whole* run
      (including top-level re-execution for stateful modules), raising
      :class:`~repro.mpy.errors.MPYRuntimeError` on dynamic errors;
    - ``cube() -> dict`` — the record of the last run, insertion-ordered
      by first read.

    Both execution backends provide one: the compiled program itself
    (:meth:`~repro.compile.compiler.CompiledProgram.run_recorded`) and the
    tree-walker fallback (:class:`~repro.symbolic.recorder.InterpPathRunner`).

    The forker keeps every path it runs (see the module docstring), so
    one forker serves one program: the engines build one per solve. The
    trie holds no per-leaf payload and no Python object per node: nodes
    are ints, ``_reads[node]`` is the hole read there, and
    ``_children[node * _stride + branch]`` (a flat int64 array, ``_stride``
    slots per node) is the child: a node, ``~i`` for a leaf whose outcome
    is ``_outcomes[i]`` (as is a root that reads no hole), or 0 where no
    path has gone yet (node 0 is the first root, and no root is a child).
    Outcomes are interned: every error leaf shares one ``("error",)``,
    and equal OK outcomes share one tuple, keyed by ``repr`` of the value
    (which keeps ``True``/``1`` and list/tuple apart, as ``typed_equal``
    does) and the stdout, when there is any.
    """

    def __init__(
        self,
        runner,
        arity: Dict[int, int],
        cost: Optional[Dict[int, int]] = None,
        compare_stdout: bool = False,
    ):
        self.runner = runner
        self.arity = arity
        self.cost = cost if cost is not None else {}
        self.compare_stdout = compare_stdout
        #: Above every branch (a branch is below its hole's arity, pinned
        #: ones included), so no two (node, branch) edges share a slot.
        self._stride = max(arity.values(), default=1)
        #: Input (by ``repr``) → the root of its trie.
        self._roots: Dict[str, int] = {}
        self._reads: List[int] = []
        self._children = array("q")
        #: The child slots of one new node, all empty.
        self._no_children = bytes(self._children.itemsize * self._stride)
        self._outcomes: List[Outcome] = [_ERROR]
        self._interned: Dict[object, int] = {}

    def explore(
        self,
        args: tuple,
        pinned: Optional[Dict[int, int]] = None,
        budget: Optional[int] = None,
        fork: Optional[Callable[[int], bool]] = None,
        deadline: Optional[float] = None,
        max_leaves: Optional[int] = None,
    ) -> ExplorationTable:
        """The complete table of (cube → outcome) leaves for ``args``.

        Raises TimeoutError past ``deadline`` (time.monotonic) and
        :class:`ExplorationLimit` past ``max_leaves``.
        """
        pinned = dict(pinned or {})
        if pinned and not (
            0 <= min(pinned.values()) and max(pinned.values()) < self._stride
        ):
            raise ValueError(f"pinned branch out of range: {pinned!r}")
        runner = self.runner
        arity = self.arity
        roots = self._roots
        reads = self._reads
        children = self._children
        no_children = self._no_children
        stride = self._stride
        outcomes = self._outcomes
        interned = self._interned
        zeros = repeat(0)
        key = repr(args)
        leaves: List[Leaf] = []
        #: Decision stack: [cid, branch, depth] in first-read order, depth
        #: being where the path reads the hole; replaying it reproduces
        #: the shared path prefix of the next leaf.
        stack: List[List[int]] = []
        #: ``pinned`` plus the stack's decisions, kept in step with it.
        assignment = dict(pinned)
        #: The current path, one entry per hole read: its trie node and
        #: the hole. The branch taken is ``assignment.get(cid, 0)``.
        nodes: List[int] = []
        cids: List[int] = []
        #: Where the walk goes on (None: no path has gone there), the child
        #: slot it took there (None at the root), and the first depth that
        #: can read a fresh choice point.
        node = roots.get(key)
        edge = None
        fresh = 0
        runs = 0
        while True:
            if (
                deadline is not None
                and len(leaves) % 64 == 63
                and time.monotonic() > deadline
            ):
                raise TimeoutError("exploration deadline exceeded")
            while node is not None and node >= 0:
                read = reads[node]
                nodes.append(node)
                cids.append(read)
                edge = node * stride + assignment.get(read, 0)
                node = children[edge] or None
            if node is None:
                runs += 1
                outcome = outcome_of(
                    lambda: runner.run_recorded(args, assignment),
                    self.compare_stdout,
                )
                touched = runner.cube()
                # Hang the rest of the run's path on the edge where the
                # walk fell off (the root, for a new input); it read the
                # walked holes first, in the same order.
                if len(touched) > len(nodes):
                    for cid, branch in islice(
                        touched.items(), len(nodes), None
                    ):
                        node = len(reads)
                        reads.append(cid)
                        children.frombytes(no_children)
                        if edge is None:
                            roots[key] = node
                        else:
                            children[edge] = node
                        nodes.append(node)
                        cids.append(cid)
                        edge = node * stride + branch
                if outcome[0] == ERROR:
                    index = 0
                else:
                    value = repr(outcome[1])
                    index = interned.setdefault(
                        (value, outcome[2]) if outcome[2] else value,
                        len(outcomes),
                    )
                    if index == len(outcomes):
                        outcomes.append(outcome)
                node = ~index
                if edge is None:
                    roots[key] = node
                else:
                    children[edge] = node
            else:
                touched = dict(zip(cids, map(assignment.get, cids, zeros)))
            for depth in range(fresh, len(cids)):
                cid = cids[depth]
                # A fresh choice point: not pinned, not yet decided, and
                # in the fork set. It resolved to branch 0 on this path.
                if cid in assignment or cid not in arity:
                    continue
                if fork is not None and not fork(cid):
                    continue
                stack.append([cid, 0, depth])
                assignment[cid] = 0
            leaves.append(Leaf(touched, outcomes[~node]))
            if max_leaves is not None and len(leaves) > max_leaves:
                raise ExplorationLimit(args, max_leaves)
            if not self._advance(stack, budget, assignment):
                break
            # The path down to the moved decision is the last leaf's; the
            # walk goes on from that decision's new branch.
            _, branch, depth = stack[-1]
            fresh = depth + 1
            del nodes[fresh:], cids[fresh:]
            edge = nodes[depth] * stride + branch
            node = children[edge] or None
        return ExplorationTable(
            args=args, leaves=leaves, runs=runs, budget=budget, pinned=pinned
        )

    def _advance(
        self,
        stack: List[List[int]],
        budget: Optional[int],
        assignment: Dict[int, int],
    ) -> bool:
        """Move to the next unexplored path: advance the deepest decision
        with an affordable sibling, dropping the decisions below it (from
        ``assignment`` too)."""
        cost = self.cost
        spent = 0
        if budget is not None:
            spent = sum(cost.get(cid, 1) for cid, branch, _ in stack if branch)
        while stack:
            cid, branch, _ = stack[-1]
            step = cost.get(cid, 1) if budget is not None else 0
            base = spent - (step if branch else 0)
            if branch + 1 < self.arity[cid] and (
                budget is None or base + step <= budget
            ):
                stack[-1][1] = assignment[cid] = branch + 1
                return True
            stack.pop()
            del assignment[cid]
            spent = base
        return False
