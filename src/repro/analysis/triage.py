"""Pre-grading triage: short-circuit statically-unfixable submissions.

A fast (<5ms) static pass over the student AST at admission time. Every
verdict is *sound with respect to the correction space*: triage only
short-circuits a submission when **no candidate program the error model
can produce** could pass bounded verification — so the zero-false-positive
contract holds by construction, not by tuning.

Verdicts:

``syntax_error`` / ``unsupported`` / ``bad_signature``
    The frontend/rewriter classifications, computed with the *same*
    functions the grading pipeline uses (``parse_program``,
    ``normalize_submission``), so the verdict agrees with what the
    engine would have said. These verdicts are *reported* (and counted
    in ``repro_triage_total``) but never short-circuited on the serving
    path: the frontend classifies them in well under a millisecond
    anyway, and letting the ordinary pipeline answer keeps their records
    byte-identical to an untriaged grading's.
``unbound_name``
    An undefined name in an always-evaluated position of the function's
    unconditional prefix, *outside every choice node* of the actual
    transformed (M̃PY) tree: every candidate raises on every input, and
    the reference has at least one clean input, so no fix exists.
``divergent_loop``
    A ``while`` loop at the top of the function whose condition is
    choice-free over scalar values, entered on some verifier input, and
    whose body — across **all** correction branches — can neither rebind
    a condition variable, ``break``, ``return``, nor call anything:
    every candidate either spins to fuel exhaustion or raises there,
    and the reference is clean on that input.

Everything else passes through untouched: triage adds nothing to records
it does not produce, so on every non-triaged path a record is
`comparable_record`-identical to an untriaged grading's
(``generate_feedback``, which never triages).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.core.rewriter import SignatureError, normalize_submission
from repro.eml.rules import ErrorModel
from repro.eml.transform import apply_error_model
from repro.mpy import nodes as N
from repro.mpy import parse_program
from repro.mpy.errors import FrontendError, UnsupportedFeature
from repro.obs import OBS, global_registry, observe_stage
from repro.service.records import static_record
from repro.tilde.nodes import CHOICE_NODE_TYPES

#: How many verifier inputs the divergence probe samples. The inputs are
#: canonically ordered (smallest first), so the sample is deterministic.
SIM_INPUTS = 16

#: Fuel for the entry-probe interpreter: the probe runs a loop-free
#: prefix, so anything past a few thousand steps means a pathological
#: prefix we'd rather pass through than triage.
SIM_FUEL = 10_000

#: The verdicts that short-circuit the serving path. Frontend
#: classifications (syntax/unsupported/bad-signature) are deliberately
#: absent: the ordinary pipeline reaches them in sub-millisecond time,
#: so claiming them would change visible statuses for zero savings.
SHORT_CIRCUIT_VERDICTS = frozenset({"unbound_name", "divergent_loop"})


@dataclass
class TriageResult:
    """A short-circuit decision: why, and where in the source."""

    verdict: str
    detail: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def diagnostics_json(self) -> List[dict]:
        return [d.to_json() for d in self.diagnostics]


@functools.lru_cache(maxsize=1)
def _builtin_names() -> FrozenSet[str]:
    from repro.mpy.interp import Interpreter

    empty = Interpreter(N.Module(body=()))
    return frozenset(empty.globals.vars.keys())


# ---------------------------------------------------------------------------
# Name binding
# ---------------------------------------------------------------------------


def _target_names(target: N.Expr, out: Set[str]) -> None:
    """Names *bound* by an assignment target (root names of index/slice
    targets are included too — harmlessly conservative for binding)."""
    for node in target.walk():
        if isinstance(node, N.Var):
            out.add(node.name)


def _bound_names(fn: N.FuncDef, module: N.Module) -> Set[str]:
    """Every name a candidate could possibly have bound, flow-insensitive.

    Walks the transformed tree, so names assigned only inside correction
    branches still count as bound — over-approximating bindings is what
    keeps the unbound-name verdict sound.
    """
    bound: Set[str] = set(fn.params)
    bound |= _builtin_names()
    for stmt in module.body:
        if isinstance(stmt, N.FuncDef):
            bound.add(stmt.name)
        elif isinstance(stmt, (N.Assign, N.AugAssign)):
            _target_names(stmt.target, bound)
        elif isinstance(stmt, N.For):
            _target_names(stmt.target, bound)
    for node in fn.walk():
        if isinstance(node, (N.Assign, N.AugAssign)):
            _target_names(node.target, bound)
        elif isinstance(node, N.For):
            _target_names(node.target, bound)
        elif isinstance(node, N.ListComp):
            _target_names(node.target, bound)
        elif isinstance(node, N.Lambda):
            bound.update(node.params)
        elif isinstance(node, N.FuncDef):
            bound.add(node.name)
            bound.update(node.params)
    return bound


# ---------------------------------------------------------------------------
# Eager-position scan
# ---------------------------------------------------------------------------


def _eager_vars(expr: Optional[N.Expr], out: List[N.Var]) -> None:
    """Variables evaluated on *every* execution of ``expr``, for *every*
    candidate: skips choice nodes entirely and descends only positions
    the interpreter evaluates unconditionally."""
    if expr is None or isinstance(expr, CHOICE_NODE_TYPES):
        return
    if isinstance(expr, N.Var):
        out.append(expr)
    elif isinstance(expr, (N.BinOp, N.Compare)):
        _eager_vars(expr.left, out)
        _eager_vars(expr.right, out)
    elif isinstance(expr, N.BoolOp):
        _eager_vars(expr.left, out)  # right short-circuits
    elif isinstance(expr, N.UnaryOp):
        _eager_vars(expr.operand, out)
    elif isinstance(expr, N.Index):
        _eager_vars(expr.obj, out)
        _eager_vars(expr.index, out)
    elif isinstance(expr, N.Slice):
        _eager_vars(expr.obj, out)
        _eager_vars(expr.lower, out)
        _eager_vars(expr.upper, out)
        _eager_vars(expr.step, out)
    elif isinstance(expr, N.Attribute):
        _eager_vars(expr.obj, out)
    elif isinstance(expr, N.Call):
        _eager_vars(expr.func, out)
        for arg in expr.args:
            _eager_vars(arg, out)
    elif isinstance(expr, (N.ListLit, N.TupleLit)):
        for elt in expr.elts:
            _eager_vars(elt, out)
    elif isinstance(expr, N.DictLit):
        for key in expr.keys:
            _eager_vars(key, out)
        for value in expr.values:
            _eager_vars(value, out)
    elif isinstance(expr, N.IfExp):
        _eager_vars(expr.test, out)  # branches are conditional
    elif isinstance(expr, N.ListComp):
        _eager_vars(expr.iter, out)  # elt/conds skipped when iter is empty
    # Lambda bodies are deferred; literals bind nothing.


def _prefix(body: Tuple[N.Stmt, ...]) -> Tuple[List[N.Stmt], Optional[N.Stmt]]:
    """The unconditionally-executed straight-line prefix of a function
    body, and the statement that stopped the scan (first control-flow or
    choice statement), if any."""
    prefix: List[N.Stmt] = []
    for stmt in body:
        if isinstance(
            stmt, (N.Return, N.Assign, N.AugAssign, N.ExprStmt, N.Pass)
        ):
            prefix.append(stmt)
            continue
        return prefix, stmt
    return prefix, None


def _contains_choice(node: N.Node) -> bool:
    return any(isinstance(sub, CHOICE_NODE_TYPES) for sub in node.walk())


def _check_unbound(
    fn: N.FuncDef, module: N.Module
) -> Optional[TriageResult]:
    bound = _bound_names(fn, module)
    prefix, stop = _prefix(fn.body)
    eager: List[N.Var] = []
    for stmt in prefix:
        if isinstance(stmt, (N.Assign, N.AugAssign)):
            _eager_vars(stmt.value, eager)
            # An Index/Slice target evaluates its base and bounds too.
            if not isinstance(stmt.target, N.Var):
                _eager_vars(stmt.target, eager)
            elif isinstance(stmt, N.AugAssign):
                eager.append(stmt.target)
        elif isinstance(stmt, N.Return):
            _eager_vars(stmt.value, eager)
        elif isinstance(stmt, N.ExprStmt):
            _eager_vars(stmt.value, eager)
    # The header expression of the statement that stopped the scan is
    # still always evaluated.
    if isinstance(stop, (N.If, N.While)):
        _eager_vars(stop.test, eager)
    elif isinstance(stop, N.For):
        _eager_vars(stop.iter, eager)
    for var in eager:
        if var.name not in bound:
            message = (
                f"name {var.name!r} is never assigned but is evaluated on "
                "every run; every correction candidate raises here"
            )
            return TriageResult(
                verdict="unbound_name",
                detail=f"unbound name {var.name!r}",
                diagnostics=[
                    Diagnostic(
                        severity=ERROR,
                        code="unbound-name",
                        message=message,
                        line=var.line,
                    )
                ],
            )
    return None


# ---------------------------------------------------------------------------
# Guaranteed-divergence probe
# ---------------------------------------------------------------------------

_SCALARS = (bool, int, str, float)


def _loop_escapes(loop: N.While, test_vars: Set[str]) -> bool:
    """True when some correction branch of the loop body could terminate
    the loop: a rebinding of a condition variable, a call (which could
    mutate through an alias or diverge differently), break, or return."""
    for node in loop.body:
        for sub in node.walk():
            if isinstance(sub, (N.Break, N.Return, N.Call, N.FuncDef)):
                return True
            if isinstance(sub, (N.Assign, N.AugAssign, N.For)):
                targets: Set[str] = set()
                _target_names(sub.target, targets)
                if targets & test_vars:
                    return True
    return False


def _check_divergence(
    fn: N.FuncDef, spec, verifier
) -> Optional[TriageResult]:
    prefix, stop = _prefix(fn.body)
    if not isinstance(stop, N.While):
        return None
    loop = stop
    # The prefix and the condition must be identical across candidates.
    if any(_contains_choice(stmt) for stmt in prefix):
        return None
    if _contains_choice(loop.test):
        return None
    # A condition that calls anything is out: the call could diverge or
    # mutate; a comprehension in the condition is fine (pure here).
    test_vars: Set[str] = set()
    for sub in loop.test.walk():
        if isinstance(sub, N.Call):
            func = sub.func
            if not (
                isinstance(func, N.Var) and func.name in _builtin_names()
            ):
                return None
        elif isinstance(sub, N.Var):
            test_vars.add(sub.name)
    test_vars -= _builtin_names()
    if _loop_escapes(loop, test_vars):
        return None
    # The prefix may only read parameters, its own bindings and builtins
    # (module globals would make the probe module unfaithful).
    readable: Set[str] = set(fn.params) | set(_builtin_names())
    for stmt in prefix:
        names: List[N.Var] = []
        _eager_vars(getattr(stmt, "value", None), names)
        if any(v.name not in readable for v in names):
            return None
        if isinstance(stmt, (N.Assign, N.AugAssign)):
            _target_names(stmt.target, readable)
    cond_reads: List[N.Var] = []
    _eager_vars(loop.test, cond_reads)
    if any(v.name not in readable for v in cond_reads):
        return None

    # Probe: run the (choice-free) prefix and evaluate the condition once
    # on a sample of verifier inputs — all of which the reference handles
    # cleanly, by construction of the bounded space. Should the *real*
    # run raise somewhere in this prefix instead (read-before-assign
    # under the local-binding rule), the verdict still stands: the
    # prefix is identical across candidates, so every candidate errors.
    from repro.mpy.interp import Env, Interpreter, assigned_names
    from repro.mpy.values import clone_value

    try:
        interp = Interpreter(N.Module(body=()), fuel=SIM_FUEL)
    except Exception:
        return None
    declared = assigned_names(tuple(prefix))
    for args in verifier.inputs[:SIM_INPUTS]:
        env = Env(parent=interp.globals, declared=declared)
        for name, value in zip(fn.params, args):
            env.assign(name, clone_value(value))
        try:
            interp.fuel = SIM_FUEL
            interp.stdout = []
            for stmt in prefix:
                interp.exec_stmt(stmt, env)
            entered = interp.truthy(interp.eval(loop.test, env))
        except Exception:
            continue  # cannot conclude on this input
        if not entered:
            continue
        # Scalar condition values only: in-place mutation of an aliased
        # list could still change the condition without any rebinding.
        if not all(
            isinstance(env.vars[name], _SCALARS)
            for name in test_vars
            if name in env.vars
        ):
            return None
        message = (
            "loop condition is true on reachable inputs (e.g. "
            f"{_format_args(args)}) and no correction branch of the body "
            "can change it, break, or return; every candidate diverges"
        )
        return TriageResult(
            verdict="divergent_loop",
            detail="guaranteed-divergent while loop",
            diagnostics=[
                Diagnostic(
                    severity=ERROR,
                    code="divergent-loop",
                    message=message,
                    line=loop.line,
                )
            ],
        )
    return None


def _format_args(args: tuple) -> str:
    return "(" + ", ".join(repr(a) for a in args) + ")"


# ---------------------------------------------------------------------------
# The triage pass
# ---------------------------------------------------------------------------


def triage_submission(
    source: str,
    spec,
    model: ErrorModel,
    verifier=None,
) -> Optional[TriageResult]:
    """Classify a submission statically; ``None`` means pass through.

    ``verifier`` (a primed :class:`~repro.engines.verify.BoundedVerifier`)
    enables the semantic verdicts (``unbound_name`` needs at least one
    clean reference input to exist; ``divergent_loop`` samples inputs);
    without it only the frontend/signature verdicts run.
    """
    try:
        module = parse_program(source)
    except UnsupportedFeature as exc:
        return TriageResult(
            verdict="unsupported",
            detail=str(exc),
            diagnostics=[
                Diagnostic(
                    severity=ERROR,
                    code="unsupported",
                    message=str(exc),
                    line=getattr(exc, "line", None),
                )
            ],
        )
    except FrontendError as exc:
        return TriageResult(
            verdict="syntax_error",
            detail=str(exc),
            diagnostics=[
                Diagnostic(
                    severity=ERROR,
                    code="syntax-error",
                    message=str(exc),
                    line=getattr(exc, "line", None),
                )
            ],
        )
    try:
        normalized, param_types = normalize_submission(module, spec)
    except SignatureError as exc:
        return TriageResult(
            verdict="bad_signature",
            detail=str(exc),
            diagnostics=[
                Diagnostic(
                    severity=ERROR,
                    code="bad-signature",
                    message=str(exc),
                )
            ],
        )
    if verifier is None:
        return None
    try:
        inputs = verifier.inputs
    except Exception:
        return None
    if not inputs:
        return None
    # The *actual* transformed tree: verdict soundness quantifies over
    # every candidate, so the scan must see the real choice structure.
    try:
        tilde, _registry = apply_error_model(normalized, model, param_types)
        fn = tilde.functions()[spec.student_function]
    except Exception:
        return None
    result = _check_unbound(fn, tilde)
    if result is not None:
        return result
    return _check_divergence(fn, spec, verifier)


def triage_record(
    spec,
    model,
    verifier,
    source: str,
) -> Optional[dict]:
    """Triage + observability + record building, the shared entry point.

    Returns a ``status="static"`` record when triage short-circuits, else
    None. Only the *solve-avoiding* verdicts short-circuit
    (:data:`SHORT_CIRCUIT_VERDICTS`): a frontend classification
    (``syntax_error`` / ``unsupported`` / ``bad_signature``) is counted
    in the verdict metric but handed back to the ordinary pipeline,
    which reaches the same answer in sub-millisecond time and keeps the
    record byte-identical to an untriaged grading's. With observability
    on, every call lands one observation in the ``triage`` stage
    histogram and one count in ``repro_triage_total{verdict=...}``
    (``verdict="pass"`` for pass-throughs).
    """
    start = time.perf_counter()
    try:
        result = triage_submission(source, spec, model, verifier)
    except Exception:
        result = None
    elapsed = time.perf_counter() - start
    if OBS.default():
        observe_stage("triage", elapsed)
        global_registry().counter(
            "repro_triage_total",
            help="Pre-grading triage outcomes, by verdict",
            labelnames=("verdict",),
        ).labels(verdict=result.verdict if result else "pass").inc()
    if result is None or result.verdict not in SHORT_CIRCUIT_VERDICTS:
        return None
    return static_record(
        spec.name,
        verdict=result.verdict,
        diagnostics=result.diagnostics_json(),
        detail=result.detail,
        wall_time=elapsed,
    )
