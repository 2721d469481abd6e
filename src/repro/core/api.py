"""The public entry point: :func:`generate_feedback`.

Mirrors the paper's tool end to end (Fig. 3): frontend → Program Rewriter
→ solver (CEGISMIN by default) → Feedback Generator. The report records
which stage classified the submission, matching the paper's evaluation
categories (syntax errors, unsupported features, correct, fixed, no-fix,
timeout — Section 5.3).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional

from repro.compile import BACKEND, make_executor
from repro.core.feedback import (
    FeedbackGenerator,
    FeedbackItem,
    FeedbackLevel,
    render_report,
)
from repro.core.rewriter import SignatureError, rewrite_submission
from repro.core.spec import ProblemSpec
from repro.eml.rules import ErrorModel
from repro.engines.base import Engine, EngineResult
from repro.engines.cegismin import CegisMinEngine
from repro.engines.verify import BoundedVerifier, outcome_of
from repro.mpy import parse_program, to_source
from repro.mpy.errors import FrontendError, MPYRuntimeError, UnsupportedFeature
from repro.obs import OBS, StageTimer
from repro.resilience.deadline import Deadline
from repro.tilde.nodes import instantiate

# Report statuses (the paper's test-set categories).
SYNTAX_ERROR = "syntax_error"
UNSUPPORTED = "unsupported"
BAD_SIGNATURE = "bad_signature"
ALREADY_CORRECT = "already_correct"
FIXED = "fixed"
NO_FIX = "no_fix"
TIMEOUT = "timeout"


@dataclass
class FeedbackReport:
    """Everything the tool can say about one submission."""

    status: str
    problem: str
    items: List[FeedbackItem] = field(default_factory=list)
    cost: Optional[int] = None
    minimal: bool = False
    fixed_source: Optional[str] = None
    wall_time: float = 0.0
    engine_result: Optional[EngineResult] = None
    detail: str = ""
    #: Telemetry (observability on only): ``{"stages": {...}, "engine":
    #: {...}}`` — grading-side stage timings plus engine-depth counters.
    metrics: Optional[dict] = None
    #: Degraded feedback on timeout/short-circuit paths only:
    #: ``{"reason": ..., "failing_tests": [...]}``. Deterministic (the
    #: submission as written on canonical inputs), so it may live on
    #: cached records; absent on every clean-path status.
    degraded: Optional[dict] = None
    #: Pre-grading triage verdict on ``status="static"`` records only:
    #: ``{"verdict": ..., "diagnostics": [{"line", "code", "message"}]}``.
    #: Deterministic and cacheable; absent on every graded status.
    triage: Optional[dict] = None

    @property
    def fixed(self) -> bool:
        return self.status == FIXED

    def render(self, level: FeedbackLevel = FeedbackLevel.FULL) -> str:
        if self.status == ALREADY_CORRECT:
            return "The program is correct."
        if self.status == FIXED:
            return render_report(self.items, level)
        if self.status == NO_FIX:
            return (
                "The tool could not correct this program with the current "
                "error model."
            )
        if self.status == "static" and self.triage is not None:
            lines = [
                (
                    "The tool determined statically that no correction "
                    f"can fix this program: {self.detail}"
                ).strip()
            ]
            for diag in self.triage.get("diagnostics", []):
                where = (
                    f"line {diag['line']}: "
                    if diag.get("line") is not None
                    else ""
                )
                lines.append(f"  {where}{diag.get('message', '')}")
            return "\n".join(lines)
        base = (
            f"Could not analyze the submission: {self.status} "
            f"{self.detail}"
        ).strip()
        failing = (self.degraded or {}).get("failing_tests")
        if failing:
            lines = [base, "Partial feedback — your program fails on:"]
            lines.extend(
                f"  input {test['input']}: expected {test['expected']}, "
                f"got {test['got']}"
                for test in failing
            )
            return "\n".join(lines)
        return base


#: One BoundedVerifier per live ProblemSpec. The mapping is weak on
#: *both* ends: a verifier strongly references its spec, so a
#: WeakKeyDictionary holding verifiers directly would keep every key
#: alive through its own value and never evict (the classic weak-dict
#: cycle). Instead the dict stores weak refs to verifiers and a small
#: strong LRU ring (each verifier once, most recently used last) keeps
#: the hot ones (and, through them, their specs) alive; anything that
#: falls out of the ring is collectable and gets rebuilt on next use.
_VERIFIERS: "weakref.WeakKeyDictionary[ProblemSpec, weakref.ref]" = (
    weakref.WeakKeyDictionary()
)
_HOT_VERIFIERS: "OrderedDict[BoundedVerifier, None]" = OrderedDict()
_HOT_CAPACITY = 32
_HOT_LOCK = threading.Lock()


def _verifier_cache(spec: ProblemSpec) -> BoundedVerifier:
    ref = _VERIFIERS.get(spec)
    verifier = ref() if ref is not None else None
    # A verifier built before a switch of BACKEND is replaced, not used.
    if verifier is None or verifier.backend != BACKEND.default():
        verifier = BoundedVerifier(spec)
        _VERIFIERS[spec] = weakref.ref(verifier)
    with _HOT_LOCK:
        _HOT_VERIFIERS[verifier] = None
        _HOT_VERIFIERS.move_to_end(verifier)
        if len(_HOT_VERIFIERS) > _HOT_CAPACITY:
            _HOT_VERIFIERS.popitem(last=False)
    return verifier


def grade_submission(source: str, spec: ProblemSpec) -> str:
    """Classify a submission without attempting correction.

    Returns one of: ``syntax_error``, ``unsupported``, ``bad_signature``,
    ``already_correct`` or ``incorrect`` — the buckets of Table 1's
    test-set preparation.
    """
    try:
        module = parse_program(source)
    except UnsupportedFeature:
        return UNSUPPORTED
    except FrontendError:
        return SYNTAX_ERROR
    from repro.core.rewriter import normalize_submission

    try:
        normalized, _ = normalize_submission(module, spec)
    except SignatureError:
        return BAD_SIGNATURE
    verifier = _verifier_cache(spec)
    try:
        # The tree-walker executes top-level statements eagerly here; a
        # submission whose top level raises can never be equivalent, and
        # the compiled backend reaches the same classification through
        # per-call error outcomes below.
        executor = make_executor(normalized, fuel=spec.fuel)
    except MPYRuntimeError:
        return "incorrect"

    def run(args):
        return outcome_of(
            lambda: executor.call(spec.student_function, args),
            spec.compare_stdout,
        )

    if verifier.is_equivalent(run):
        return ALREADY_CORRECT
    return "incorrect"


def generate_feedback(
    source: str,
    spec: ProblemSpec,
    model: ErrorModel,
    engine: Optional[Engine] = None,
    timeout_s: float = 60.0,
    verifier: Optional[BoundedVerifier] = None,
    deadline: Optional[Deadline] = None,
) -> FeedbackReport:
    """Run the full pipeline on one student submission.

    Candidates run on the process's :data:`~repro.compile.BACKEND`, and
    the reference on the one ``verifier`` was built on (by default the
    process-wide verifier of ``spec`` for the current backend).

    ``deadline`` carries the request's end-to-end budget into the solve
    (queue wait already spent from it); ``None`` starts a fresh
    ``timeout_s`` clock here, the standalone-call behavior. A timeout
    report carries what the run still learned — failing tests of the
    submission as written — under ``report.degraded``.
    """
    start = time.monotonic()
    engine = engine or CegisMinEngine()
    timer = StageTimer() if OBS.default() else None
    stage_started = start

    def book(stage: str) -> None:
        # Close the open interval under ``stage``; no-op with obs off.
        nonlocal stage_started
        now = time.monotonic()
        if timer is not None:
            timer.add(stage, now - stage_started)
        stage_started = now

    def report(status: str, **kwargs) -> FeedbackReport:
        rep = FeedbackReport(
            status=status,
            problem=spec.name,
            wall_time=time.monotonic() - start,
            **kwargs,
        )
        if timer is not None:
            rep.metrics = {"stages": timer.rounded()}
            if rep.engine_result is not None:
                rep.metrics["engine"] = _engine_metrics(rep.engine_result)
        return rep

    parse_error: Optional[Exception] = None
    module = None
    try:
        module = parse_program(source)
    except (UnsupportedFeature, FrontendError) as exc:
        parse_error = exc
    book("parse")
    if parse_error is not None:
        status = (
            UNSUPPORTED
            if isinstance(parse_error, UnsupportedFeature)
            else SYNTAX_ERROR
        )
        return report(status, detail=str(parse_error))

    if verifier is None:
        verifier = _verifier_cache(spec)

    try:
        tilde, registry = rewrite_submission(module, spec, model)
    except SignatureError as exc:
        book("rewrite")
        return report(BAD_SIGNATURE, detail=str(exc))
    book("rewrite")

    if deadline is not None and deadline.expired():
        # The budget died in the queue/warmup; don't start a solve that
        # is already over.
        return report(TIMEOUT, detail="deadline exhausted before solve")

    result = engine.solve(
        tilde,
        registry,
        spec,
        verifier,
        timeout_s=timeout_s,
        deadline=deadline,
    )
    book("solve")

    if result.status == "fixed":
        assignment = result.assignment or {}
        if result.cost == 0:
            return report(ALREADY_CORRECT, engine_result=result)
        generator = FeedbackGenerator(registry, model)
        items = generator.items(assignment)
        fixed_module = instantiate(tilde, assignment)
        fixed_source = to_source(fixed_module)
        book("render")
        return report(
            FIXED,
            items=items,
            cost=result.cost,
            minimal=result.minimal,
            fixed_source=fixed_source,
            engine_result=result,
        )
    if result.status == "no_fix":
        return report(NO_FIX, engine_result=result)
    if result.status in ("timeout", "exhausted"):
        rep = report(TIMEOUT, engine_result=result)
        if result.failing:
            rep.degraded = {
                "reason": "solver_timeout",
                "failing_tests": result.failing,
            }
        return rep
    return report(NO_FIX, engine_result=result, detail=result.status)


def _engine_metrics(result: EngineResult) -> dict:
    """The JSON-safe engine-depth summary carried in ``report.metrics``."""
    out = {
        "iterations": result.iterations,
        "counterexamples": result.counterexamples,
    }
    for key, value in result.stats.items():
        if isinstance(value, (int, float, str, bool)):
            out[key] = value
    return out
