"""Submission canonicalization: one hash per behaviorally-identical source.

Classroom corpora are full of textual near-duplicates: resubmissions with
comments added, whitespace reflowed, or locals renamed. Grading any one of
them grades them all, so the batch layer keys its cache on a *canonical
form*: parse with the MPY frontend (comments and formatting disappear),
normalize the entry-point function name against the problem interface,
and pretty-print the result with each function's parameters and locals
α-renamed, as it prints, to a stable ``_cv<N>`` namespace in
first-occurrence order. The SHA-256 of that text is the submission's
content address.

Submissions the frontend rejects (syntax errors, unsupported features)
still canonicalize — to a hash of their stripped raw text — so identical
broken submissions also coincide, just without rename-invariance.

Canonicalization is a pure function of the exact source text and the
spec, so a bounded memo (:data:`MEMO_CAPACITY` entries, least recently
used out) answers a byte-identical resubmission without parsing it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.rewriter import SignatureError, normalize_submission
from repro.core.spec import ProblemSpec
from repro.eml.rules import ErrorModel, InsertTopRule, RewriteRule
from repro.mpy import nodes as N
from repro.mpy import parse_program, to_source
from repro.mpy.errors import FrontendError, MPYError
from repro.mpy.printer import _PRECEDENCE, Printer

#: Prefix of the canonical variable namespace. MPY reserves no identifiers,
#: so a student program could in principle use these names already; the
#: renamer detects that and falls back to the un-renamed print (a correct,
#: merely less deduplicating, canonical form).
_CANON_PREFIX = "_cv"

#: Canonical forms the memo holds, least recently used first out. An
#: entry retains about 0.6 KB beside the source text it is keyed on
#: (measured over the 409 distinct seed-0 registry submissions), so a
#: full memo costs a serving process under 1 MB plus those sources.
MEMO_CAPACITY = 1024


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical identity of one submission."""

    digest: str
    #: The canonical source text the digest covers (raw text for
    #: submissions that do not parse).
    text: str
    #: Whether the frontend accepted the submission (False → text-level
    #: canonicalization only).
    parsed: bool


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _text_form(source: str) -> CanonicalForm:
    """Fallback: strip comments/blank lines and trailing whitespace."""
    lines = []
    for line in source.splitlines():
        stripped = line.rstrip()
        if not stripped or stripped.lstrip().startswith("#"):
            continue
        lines.append(stripped)
    text = "\n".join(lines) + "\n"
    return CanonicalForm(digest=_sha(text), text=text, parsed=False)


def _assigned_names(body, order: List[str]) -> None:
    """Append the names ``body`` assigns that ``order`` lacks, in
    first-occurrence order. Only statements assign, so the walk never
    enters an expression; nested blocks and functions are included."""
    for stmt in body:
        if isinstance(stmt, (N.Assign, N.AugAssign, N.For)):
            target = stmt.target
            elts = target.elts if isinstance(target, N.TupleLit) else (target,)
            for elt in elts:
                if isinstance(elt, N.Var) and elt.name not in order:
                    order.append(elt.name)
        if isinstance(stmt, N.If):
            _assigned_names(stmt.body, order)
            _assigned_names(stmt.orelse, order)
        elif isinstance(stmt, (N.While, N.For, N.FuncDef)):
            _assigned_names(stmt.body, order)


def _function_rename_map(fn: N.FuncDef) -> Dict[str, str]:
    """Parameters and assigned locals, in first-occurrence order, mapped
    to the ``_cv`` namespace. The function's own name keeps its slot but
    is never renamed: recursive references to it are interface."""
    order = list(fn.params)
    _assigned_names(fn.body, order)
    mapping = {name: f"{_CANON_PREFIX}{i}" for i, name in enumerate(order)}
    mapping.pop(fn.name, None)
    return mapping


class _RenamingPrinter(Printer):
    """Prints a module with every top-level function's parameters and
    locals α-renamed to the ``_cv`` namespace.

    Each top-level ``def`` is printed under its own rename map; other
    top-level statements are printed as written. A top-level function's
    name is kept (it is interface, not style); a nested ``def`` is
    printed through the map like every use of its name, so a local it
    shares a name with is renamed at both. A module that already uses the
    canonical namespace sets :attr:`clash`, and its caller prints it
    un-renamed instead, since renaming could merge distinct programs.
    """

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}
        self.clash = False

    def program(self, module: N.Module) -> str:
        lines: list = []
        for stmt in module.body:
            is_def = isinstance(stmt, N.FuncDef)
            self.names = _function_rename_map(stmt) if is_def else {}
            self.stmt(stmt, 0, lines)
        return "\n".join(lines) + "\n"

    def stmt_FuncDef(self, stmt: N.FuncDef, depth: int, lines: list) -> None:
        params = ", ".join(self.names.get(p, p) for p in stmt.params)
        name = self.names.get(stmt.name, stmt.name)
        self._emit(depth, f"def {name}({params}):", lines)
        self._block(stmt.body, depth + 1, lines)

    def expr_Var(self, expr: N.Var):
        if expr.name.startswith(_CANON_PREFIX):
            self.clash = True
        return self.names.get(expr.name, expr.name), _PRECEDENCE["atom"]

    def expr_Lambda(self, expr: N.Lambda):
        params = ", ".join(self.names.get(p, p) for p in expr.params)
        return f"lambda {params}: {self.expr(expr.body)}", 0


def canonicalize(
    source: str, spec: Optional[ProblemSpec] = None
) -> CanonicalForm:
    """Compute the canonical form of one submission.

    With a ``spec``, the entry function is first normalized to the
    problem's expected name (so ``def prodbysum`` and ``def prodBySum``
    coincide when the fallback locator would accept both); without one,
    the module is canonicalized as-is. A text this process has already
    canonicalized under the same spec is answered from the memo.
    """
    return _canonical_form(source, spec)


@functools.lru_cache(maxsize=MEMO_CAPACITY)
def _canonical_form(
    source: str, spec: Optional[ProblemSpec]
) -> CanonicalForm:
    try:
        module = parse_program(source)
    except (FrontendError, MPYError):
        return _text_form(source)
    if spec is not None:
        try:
            module, _ = normalize_submission(module, spec)
        except SignatureError:
            pass  # canonicalize the module as written
    try:
        printer = _RenamingPrinter()
        text = printer.program(module)
        if printer.clash:
            text = to_source(module)
    except MPYError:
        return _text_form(source)
    return CanonicalForm(digest=_sha(text), text=text, parsed=True)


def memo_info() -> Dict[str, int]:
    """Process-wide counts of the canonical-form memo (``/stats``)."""
    info = _canonical_form.cache_info()
    return {
        "memo_hits": info.hits,
        "memo_misses": info.misses,
        "memo_entries": info.currsize,
        "memo_capacity": MEMO_CAPACITY,
    }


def model_digest(model: ErrorModel) -> str:
    """A stable digest of an error model's behavior-relevant content.

    Cached results are only valid for the exact rule set that produced
    them, so the digest covers rule order, names, kinds and sources —
    editing any rule invalidates every cache entry keyed under the model.
    """
    parts = [model.name]
    for rule in model:
        if isinstance(rule, RewriteRule):
            parts.append(f"R:{rule.name}:{rule.source}:{rule.message or ''}")
        elif isinstance(rule, InsertTopRule):
            parts.append(
                f"I:{rule.name}:{rule.body_source}:{rule.message or ''}"
            )
        else:  # pragma: no cover - future rule kinds
            parts.append(f"?:{rule!r}")
    return _sha("\n".join(parts))[:16]
