"""A compact CDCL SAT solver.

Literal convention: variables are positive integers 1..n; a literal is
``+v`` or ``-v``. The solver is incremental: clauses may be added between
:meth:`Solver.solve` calls, and each call takes a list of assumption
literals that hold for that call only (MiniSat semantics).

Internally every literal is a *code*: ``+v`` is ``2v`` and ``-v`` is
``2v+1``, so negation is ``code ^ 1`` and the variable is ``code >> 1``.
Clauses, the trail, the per-literal value list and the watch lists all
hold codes, and the watch lists are indexed by them; conversion happens
only at the public surface (:meth:`Solver.add_clause`, the assumptions of
:meth:`Solver.solve`, :meth:`Solver.model_value`), which stays on ``±v``.

Implemented techniques:

- two-watched-literal propagation in one inlined loop,
- first-UIP conflict analysis with learned-clause minimization (self-
  subsumption against the reason graph),
- VSIDS-style exponential variable activities with rescaling, served by a
  lazy max-heap order (stale entries skipped on pop; unassigned variables
  re-inserted on backtrack — MiniSat's order-heap scheme) instead of an
  O(num_vars) scan per decision,
- Luby-sequence restarts,
- phase saving with caller-settable preferred polarities (the synthesis
  encoding biases correction holes toward their zero-cost defaults).

The search order is part of the solver's behaviour, not an
implementation detail: the order of each watch list, the literal order
inside each clause (including the swap that puts the false watch at
position 1) and the heap's tie-break toward the smallest variable decide
every decision, propagation, learned clause, restart and model, and with
them every engine statistic and fix above this layer. A change to any of
them is a search change; it is measured on its own, with the pinned
constants of ``tests/sat/test_search_identity.py`` updated on purpose.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.resilience.deadline import DeadlineTicker

SAT = "sat"
UNSAT = "unsat"

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


def luby(i: int) -> int:
    """The reluctant-doubling sequence 1 1 2 1 1 2 4 ... (1-indexed)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class Solver:
    """Incremental CDCL solver over integer literals."""

    def __init__(self, restart_base: int = 64, decay: float = 0.95):
        self.num_vars = 0
        #: Per literal code: True, False, or None while unassigned.
        self.values: List[Optional[bool]] = [None, None]
        #: Per literal code: the clauses to visit when that literal
        #: becomes true (those watching its negation).
        self.watches: List[List[List[int]]] = [[], []]
        # Per variable, 1-indexed.
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        #: Conflict analysis marks; all False between calls.
        self._seen: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        #: Lazy VSIDS order heap: ``(-activity, var)`` entries. An entry is
        #: stale when its recorded activity no longer matches the
        #: variable's (a bump pushed a fresher one); pops skip stale and
        #: assigned entries, and backtracking re-inserts unassigned vars.
        self._order: List[Tuple[float, int]] = []
        self.prop_head = 0
        self.restart_base = restart_base
        self.decay = decay
        self.var_inc = 1.0
        self.stats = {
            "calls": 0,
            "decisions": 0,
            "propagations": 0,
            "conflicts": 0,
            "restarts": 0,
            "learned": 0,
        }
        self._unsat = False

    # -- variable / clause management ---------------------------------------

    def new_var(self, preferred: bool = False) -> int:
        self.num_vars += 1
        self.values += (None, None)
        self.watches += ([], [])
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(preferred)
        self._seen.append(False)
        heapq.heappush(self._order, (-0.0, self.num_vars))
        return self.num_vars

    def set_preferred(self, var: int, value: bool) -> None:
        """Bias the decision phase of ``var`` toward ``value``."""
        self.phase[var] = value

    def _codes(self, lits: Iterable[int]) -> List[int]:
        """The codes of public literals; creates variables up to the highest."""
        codes = [lit << 1 if lit > 0 else (-lit << 1) | 1 for lit in lits]
        if codes:
            highest = max(codes) >> 1
            while self.num_vars < highest:
                self.new_var()
        return codes

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula is now trivially UNSAT.

        Must be called at decision level 0 (between solve calls).
        """
        self._cancel_until(0)
        codes = self._codes(lits)
        values = self.values
        seen = set()
        clause: List[int] = []
        for code in codes:
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            value = values[code]
            if value:
                return True  # already satisfied at root
            if value is False:
                continue  # falsified at root: drop literal
            seen.add(code)
            clause.append(code)
        if not clause:
            self._unsat = True
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        self._watch(clause)
        return True

    def _watch(self, clause: List[int]) -> None:
        self.watches[clause[0] ^ 1].append(clause)
        self.watches[clause[1] ^ 1].append(clause)

    # -- assignment ------------------------------------------------------------

    def _enqueue(self, code: int, reason: Optional[List[int]]) -> None:
        """Make the unassigned literal ``code`` true at the current level."""
        self.values[code] = True
        self.values[code ^ 1] = False
        var = code >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(code)

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self.trail
        values = self.values
        watches = self.watches
        level = self.level
        reason = self.reason
        current_level = len(self.trail_lim)
        head = start = self.prop_head
        conflict = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            watchers = watches[lit]
            if not watchers:
                continue
            false_lit = lit ^ 1
            kept: List[List[int]] = []
            keep = kept.append
            unvisited = iter(watchers)
            for clause in unvisited:
                # Normalize: the false watch goes to clause[1].
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if values[first]:
                    keep(clause)
                    continue
                # Find a new literal to watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if values[other] is not False:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other ^ 1].append(clause)
                        break
                else:
                    keep(clause)
                    if values[first] is False:
                        conflict = clause
                        break
                    values[first] = True
                    values[first ^ 1] = False
                    var = first >> 1
                    level[var] = current_level
                    reason[var] = clause
                    trail.append(first)
            if conflict is not None:
                # Keep the watchers this pass did not reach, in order.
                kept.extend(unvisited)
                watches[lit] = kept
                break
            watches[lit] = kept
        self.prop_head = head
        self.stats["propagations"] += head - start
        return conflict

    # -- conflict analysis -------------------------------------------------------

    def _rescale(self) -> None:
        for v in range(1, self.num_vars + 1):
            self.activity[v] *= _RESCALE_FACTOR
        self.var_inc *= _RESCALE_FACTOR
        # Every heap entry just went stale at once: rebuild.
        values = self.values
        self._order = [
            (-self.activity[v], v)
            for v in range(1, self.num_vars + 1)
            if values[v << 1] is None
        ]
        heapq.heapify(self._order)

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        level = self.level
        reason_of = self.reason
        activity = self.activity
        trail = self.trail
        seen = self._seen
        current_level = len(self.trail_lim)
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1  # no literal has a negative code
        reason: Optional[List[int]] = conflict
        index = len(trail) - 1
        while True:
            assert reason is not None
            for q in reason:
                if q == lit:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    # VSIDS bump.
                    activity[var] += self.var_inc
                    if activity[var] > _RESCALE_LIMIT:
                        self._rescale()
                    else:
                        heapq.heappush(self._order, (-activity[var], var))
                    if level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            var = lit >> 1
            seen[var] = False
            index -= 1
            counter -= 1
            if counter == 0:
                learned[0] = lit ^ 1
                break
            reason = reason_of[var]
        # ``seen`` now marks exactly the variables of learned[1:].
        learned = self._minimize(learned)
        if len(learned) == 1:
            return learned, 0
        # Backjump level: second-highest level in the clause. Move the
        # first literal of that level into watch position 1.
        best = 1
        back = level[learned[1] >> 1]
        for k in range(2, len(learned)):
            if level[learned[k] >> 1] > back:
                best = k
                back = level[learned[k] >> 1]
        learned[1], learned[best] = learned[best], learned[1]
        return learned, back

    def _minimize(self, learned: List[int]) -> List[int]:
        """Drop literals implied by the rest; clears ``_seen`` after."""
        seen = self._seen
        level = self.level
        reason_of = self.reason
        seen[learned[0] >> 1] = True
        kept = [learned[0]]
        for q in learned[1:]:
            reason = reason_of[q >> 1]
            if reason is None:
                kept.append(q)
                continue
            # Dominated (dropped) when every other literal of its reason
            # is in the clause or fixed at the root.
            implied = q ^ 1
            for r in reason:
                if r != implied and not seen[r >> 1] and level[r >> 1] != 0:
                    kept.append(q)
                    break
        for q in learned:
            seen[q >> 1] = False
        return kept

    # -- backtracking ----------------------------------------------------------------

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        values = self.values
        phase = self.phase
        reason = self.reason
        activity = self.activity
        order = self._order
        trail = self.trail
        limit = self.trail_lim[target_level]
        for index in range(len(trail) - 1, limit - 1, -1):
            code = trail[index]
            var = code >> 1
            phase[var] = not code & 1  # phase saving
            values[code] = values[code ^ 1] = None
            reason[var] = None
            heapq.heappush(order, (-activity[var], var))
        del trail[limit:]
        del self.trail_lim[target_level:]
        self.prop_head = min(self.prop_head, len(trail))

    # -- main loop ---------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        deadline: Optional[float] = None,
    ) -> str:
        """Solve under assumptions; returns SAT or UNSAT.

        On SAT, :meth:`model_value` reads the satisfying assignment (valid
        until the next :meth:`add_clause` or :meth:`solve` call).

        ``deadline`` is a ``time.monotonic()`` instant; when it passes,
        the call raises :class:`TimeoutError` (checked once per 256 main-
        loop rounds, amortized like the interpreter's fuel counter — a
        pathological formula aborts within the service's grace instead of
        wedging the worker until the watchdog SIGKILLs it). The solver
        stays usable: the next call backtracks to the root as always.
        """
        stats = self.stats
        stats["calls"] += 1
        if self._unsat:
            return UNSAT
        self._cancel_until(0)
        assumed = self._codes(assumptions)
        values = self.values
        trail = self.trail
        trail_lim = self.trail_lim
        ticker = DeadlineTicker(deadline)
        conflict_budget = self.restart_base * luby(stats["restarts"] + 1)
        while True:
            if ticker.tick():
                raise TimeoutError("SAT solve deadline exceeded")
            conflict = self._propagate()
            if conflict is not None:
                stats["conflicts"] += 1
                if not trail_lim:
                    self._unsat = True
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learned) > 1:
                    self._watch(learned)
                    stats["learned"] += 1
                    self._enqueue(learned[0], learned)
                else:
                    self._enqueue(learned[0], None)
                self.var_inc /= self.decay
                conflict_budget -= 1
                if conflict_budget <= 0:
                    stats["restarts"] += 1
                    self._cancel_until(0)
                    conflict_budget = self.restart_base * luby(
                        stats["restarts"] + 1
                    )
                continue
            # No conflict: satisfy assumptions first (MiniSat-style: one
            # decision level per assumption), then branch heuristically.
            if len(trail_lim) < len(assumed):
                code = assumed[len(trail_lim)]
                value = values[code]
                if value:
                    trail_lim.append(len(trail))  # dummy level
                    continue
                if value is False:
                    self._cancel_until(0)
                    return UNSAT  # conflicting assumptions
                trail_lim.append(len(trail))
                self._enqueue(code, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                return SAT  # complete assignment
            stats["decisions"] += 1
            trail_lim.append(len(trail))
            self._enqueue(var << 1 if self.phase[var] else var << 1 | 1, None)

    def _pick_branch_var(self) -> Optional[int]:
        order = self._order
        values = self.values
        activity = self.activity
        while order:
            neg_activity, var = heapq.heappop(order)
            if values[var << 1] is not None:
                continue  # re-inserted on unassignment
            if -neg_activity != activity[var]:
                continue  # stale: a bump pushed a fresher entry
            return var
        return None

    # -- model access ------------------------------------------------------------

    def model_value(self, lit: int) -> bool:
        # An unconstrained variable reports its saved phase.
        if lit > 0:
            value = self.values[lit << 1]
            return self.phase[lit] if value is None else value
        value = self.values[(-lit << 1) | 1]
        return (not self.phase[-lit]) if value is None else value

    def model(self) -> Dict[int, bool]:
        return {
            var: self.model_value(var) for var in range(1, self.num_vars + 1)
        }
