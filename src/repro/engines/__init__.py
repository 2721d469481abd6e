"""Synthesis engines: search for minimal corrections over M̃PY spaces.

- :mod:`repro.engines.cegismin` — the paper's approach: CEGIS with a SAT
  backend extended for cost minimization (Algorithm 1, CEGISMIN);
- :mod:`repro.engines.enumerative` — the brute-force baseline the paper
  argues against (mutation-style enumeration, Section 7.2);
- :mod:`repro.engines.verify` — exhaustive bounded equivalence checking
  against the reference implementation (the SKETCH harness stand-in).

Both engines search a :class:`~repro.engines.base.CandidateSpace` — the
tilde module plus registry on an execution substrate — and consume
per-input exploration tables from :mod:`repro.explore` instead of
sweeping candidates one at a time; ``explorer=False`` on either engine
is the per-candidate-sweep ablation.
"""

from repro.engines.base import CandidateSpace, EngineResult, Engine
from repro.engines.cegismin import CegisMinEngine
from repro.engines.enumerative import EnumerativeEngine
from repro.engines.verify import BoundedVerifier, Outcome, outcomes_match

ENGINES = ("cegismin", "enumerative")

#: The engine a grading configuration names when it names none.
DEFAULT_ENGINE = "cegismin"

#: The default per-submission solver budget, in seconds, of every grading
#: entry point: batch runs, the server, the fleet router and the harness.
DEFAULT_TIMEOUT_S = 45.0


def engine_by_name(name: str) -> Engine:
    """A fresh engine instance for a configuration name.

    Engines carry per-solve state (SAT instance, statistics), so every
    grading gets its own instance; the batch runner's worker processes
    and the feedback server's request threads both build engines through
    this single registry.
    """
    if name == "cegismin":
        return CegisMinEngine()
    if name == "enumerative":
        return EnumerativeEngine()
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")


__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_TIMEOUT_S",
    "ENGINES",
    "engine_by_name",
    "Engine",
    "EngineResult",
    "CandidateSpace",
    "CegisMinEngine",
    "EnumerativeEngine",
    "BoundedVerifier",
    "Outcome",
    "outcomes_match",
]
