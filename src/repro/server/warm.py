"""Warm per-problem artifacts: everything a request must never rebuild.

A cold :func:`~repro.core.api.generate_feedback` call pays for parsing the
reference, parsing + digesting the error model, and enumerating the
reference's outcome on every input of the bounded space — none of which
depends on the submission. A
:class:`WarmProblem` does all of that once at server startup, so a request
costs only what is genuinely per-submission (rewrite + solve).

Priming goes one step further: it pushes the problem's own reference
implementation through the *full* pipeline (rewriter, error-model
transform, engine, exploration tables on the default initial inputs).
That exercises every lazily-initialized cache on the grading path while
the process is still single-threaded — after priming, request threads
only ever read that state — and doubles as a startup self-test: a problem
whose reference does not come back ``already_correct`` is misconfigured
and refuses to serve.

Both run under the serving :class:`~repro.service.cache.GradingConfig`
and backend, so the self-test covers, and warms, what requests grade
under, and both run once per serving process, in the parent: a
process-executor pool forks from the warm, primed problems, so no
worker warms or primes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.api import ALREADY_CORRECT, generate_feedback
from repro.eml.rules import ErrorModel
from repro.engines import engine_by_name
from repro.engines.verify import BoundedVerifier
from repro.problems import Problem, all_problems, get_problem
from repro.service.cache import GradingConfig
from repro.service.canonical import model_digest

#: The solver budget of a priming grade: the reference of every registry
#: problem comes back ``already_correct`` well inside it.
PRIME_TIMEOUT_S = 30.0


class WarmupError(RuntimeError):
    """A problem failed its startup self-test and cannot be served."""


@dataclass
class WarmProblem:
    """One registry problem, preloaded for request-time grading."""

    problem: Problem
    model: ErrorModel
    model_digest: str
    #: Reference-outcome table; request threads share it read-only.
    verifier: BoundedVerifier
    warm_time_s: float = 0.0
    #: Wall time of the priming grade (0.0 when priming was skipped).
    prime_time_s: float = 0.0
    primed: bool = False

    @property
    def name(self) -> str:
        return self.problem.name

    @property
    def spec(self):
        return self.problem.spec

    def info(self) -> dict:
        """The ``GET /problems`` row for this problem."""
        return {
            "name": self.name,
            "language": self.problem.language,
            "rules": len(self.model),
            "model_digest": self.model_digest,
            "inputs": len(self.verifier.inputs),
            "backend": self.verifier.backend,
            "warm_time_s": round(self.warm_time_s, 4),
            "prime_time_s": round(self.prime_time_s, 4),
            "primed": self.primed,
        }


def warm_problem(
    problem: Problem,
    config: Optional[GradingConfig] = None,
    model: Optional[ErrorModel] = None,
    verifier: Optional[BoundedVerifier] = None,
    prime: bool = True,
) -> WarmProblem:
    """Build the warm artifact for one problem under ``config`` (the
    process defaults when ``None``).

    ``model`` defaults to the problem's own error model; a batch grading
    under another one (a rule-prefix ablation, a borrowed model) warms
    that pair instead. A prebuilt ``verifier`` for the problem's spec is
    reused rather than rebuilt.
    """
    if config is None:
        config = GradingConfig()
    started = time.perf_counter()
    spec = problem.spec
    if model is None:
        model = problem.model  # parses + checks the .eml file (lru-cached)
    digest = model_digest(model)
    if verifier is None:
        verifier = BoundedVerifier(spec)
    warm = WarmProblem(
        problem=problem,
        model=model,
        model_digest=digest,
        verifier=verifier,
        warm_time_s=time.perf_counter() - started,
    )
    if prime:
        prime_started = time.perf_counter()
        report = generate_feedback(
            spec.reference_source,
            spec,
            model,
            engine=engine_by_name(config.engine),
            timeout_s=PRIME_TIMEOUT_S,
            verifier=verifier,
        )
        if report.status != ALREADY_CORRECT:
            raise WarmupError(
                f"priming {problem.name!r} classified its own reference "
                f"as {report.status!r}; refusing to serve it"
            )
        warm.prime_time_s = time.perf_counter() - prime_started
        warm.primed = True
        warm.warm_time_s = time.perf_counter() - started
    return warm


@dataclass
class Warmup:
    """The result of warming a problem set."""

    problems: Dict[str, WarmProblem] = field(default_factory=dict)
    total_time_s: float = 0.0

    def __getitem__(self, name: str) -> WarmProblem:
        return self.problems[name]

    def __contains__(self, name: str) -> bool:
        return name in self.problems

    def __len__(self) -> int:
        return len(self.problems)


def warm_registry(
    names: Optional[Sequence[str]] = None,
    config: Optional[GradingConfig] = None,
    prime: bool = True,
    progress: Optional[Callable[[WarmProblem], None]] = None,
) -> Warmup:
    """Warm every named registry problem (default: all of them) under
    ``config`` (the process defaults when ``None``).

    ``progress`` fires after each problem (the CLI prints the warmup
    table from it). Raises :class:`WarmupError` on a failed self-test —
    a server must not come up half-broken.
    """
    selected: List[Problem] = (
        [get_problem(name) for name in names]
        if names
        else list(all_problems())
    )
    if config is None:
        config = GradingConfig()
    started = time.perf_counter()
    warmup = Warmup()
    for problem in selected:
        warm = warm_problem(problem, config, prime=prime)
        warmup.problems[problem.name] = warm
        if progress is not None:
            progress(warm)
    warmup.total_time_s = time.perf_counter() - started
    return warmup
