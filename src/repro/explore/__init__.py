"""Path-forking candidate-space exploration.

Instead of sweeping candidates one at a time, the explorer runs a
compiled M̃PY program on one *input*, forks at every untouched choice
point it reads, and yields the complete table of (touched-hole cube →
outcome) leaves — the concrete substrate's answer to SKETCH ruling out
whole regions of the hole space per counterexample. Engines consume the
tables through :class:`~repro.engines.base.CandidateSpace`.

- :mod:`repro.explore.forker` — the replay-based DFS fork loop;
- :mod:`repro.explore.table` — leaves, tables, trie lookup;
- :mod:`repro.explore.outcomes` — the shared observable-outcome format.
"""

from repro.explore.forker import (
    ExplorationLimit,
    PathForker,
    domains_from_registry,
)
from repro.explore.outcomes import (
    ERROR,
    OK,
    Outcome,
    outcome_of,
    outcomes_match,
    typed_equal,
)
from repro.explore.table import ExplorationTable, Leaf

__all__ = [
    "ERROR",
    "OK",
    "ExplorationLimit",
    "ExplorationTable",
    "Leaf",
    "Outcome",
    "PathForker",
    "domains_from_registry",
    "outcome_of",
    "outcomes_match",
    "typed_equal",
]
