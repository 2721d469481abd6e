"""The T_E transformation: MPY program × error model → M̃PY program.

Implements Section 3.3 / Fig. 9 of the paper:

- the default traversal ``w0 = w[t → T_E(t)]`` transforms children,
- each rule whose LHS matches the *original* element contributes one
  alternative (its instantiated RHS, with primed subterms transformed
  recursively),
- ambiguous matches become separate alternatives (set union),
- the result is a boxed choice ``{ w0 , w1, ..., wn }``.

Rule RHS sets (``FreeSet``/``CmpSet``/``ArithSet``/``ScopeVars``) become
*free* choice nodes — their selection is part of the single correction the
rule application already pays for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.eml.errors import EMLError
from repro.eml.matcher import match
from repro.eml.rules import (
    ARITH_OP_KEY,
    CMP_OP_KEY,
    AnyArgs,
    ArithSet,
    CmpSet,
    ErrorModel,
    FreeSet,
    InsertTopRule,
    Prime,
    RewriteRule,
    ScopeVars,
    metavar_kind,
)
from repro.eml.typeinfer import TypeEnv, infer_expr, infer_function_env
from repro.eml.wellformed import check_model
from repro.mpy import nodes as N
from repro.mpy import frontend
from repro.mpy.values import TypeSig
from repro.tilde.nodes import (
    ChoiceBinOp,
    ChoiceCompare,
    ChoiceExpr,
    ChoiceStmt,
    HoleRegistry,
)

#: The paper's õpc: the six comparison operators of COMPR.
CMP_OPS_SET = ("==", "!=", "<", ">", "<=", ">=")
#: Arithmetic operator set for arithset().
ARITH_OPS_SET = ("+", "-", "*", "//", "%", "**", "/")


@dataclass
class _Scope:
    """Per-function context: inferred types + parameter list."""

    env: TypeEnv
    params: Tuple[str, ...]


class _Inapplicable(Exception):
    """Raised while instantiating an RHS that cannot apply here (e.g. ``?a``
    found no same-type variable in scope)."""


class Transformer:
    """Applies an error model to programs, producing M̃PY trees."""

    def __init__(
        self,
        model: ErrorModel,
        param_types: Optional[Dict[str, TypeSig]] = None,
        check: bool = True,
    ):
        if check:
            check_model(model)
        self.model = model
        self.param_types = param_types or {}
        self._next_cid = 0

    # -- public ------------------------------------------------------------

    def transform_module(self, module: N.Module) -> N.Module:
        body = tuple(
            self._transform_stmt(stmt, self._module_scope(module))
            for stmt in module.body
        )
        return N.Module(body=body, line=module.line)

    # -- plumbing ------------------------------------------------------------

    def _fresh(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def _module_scope(self, module: N.Module) -> _Scope:
        env = TypeEnv()
        return _Scope(env=env, params=())

    # -- statements ----------------------------------------------------------

    def _transform_funcdef(self, fn: N.FuncDef) -> N.FuncDef:
        scope = _Scope(
            env=infer_function_env(fn, self.param_types), params=fn.params
        )
        body: List[N.Stmt] = [
            self._transform_stmt(stmt, scope) for stmt in fn.body
        ]
        prefix: List[N.Stmt] = []
        for rule in self.model.insert_top_rules():
            block = self._instantiate_insert_top(rule, fn)
            if block is None:
                continue
            prefix.append(
                ChoiceStmt(
                    choices=((), block),
                    cid=self._fresh(),
                    rule=rule.name,
                    branch_rules=("", rule.name),
                    line=fn.body[0].line if fn.body else fn.line,
                )
            )
        return N.FuncDef(
            name=fn.name,
            params=fn.params,
            body=tuple(prefix + body),
            line=fn.line,
        )

    def _instantiate_insert_top(
        self, rule: InsertTopRule, fn: N.FuncDef
    ) -> Optional[Tuple[N.Stmt, ...]]:
        def substitute(match_obj: re.Match) -> str:
            index = int(match_obj.group(0)[1:])
            if not 1 <= index <= len(fn.params):
                raise _Inapplicable()
            return fn.params[index - 1]

        try:
            source = re.sub(r"\$[0-9]+", substitute, rule.body_source)
        except _Inapplicable:
            return None
        module = frontend.parse_program(source)
        line = fn.body[0].line if fn.body else fn.line

        def tag(node: N.Node) -> N.Node:
            return N.map_children(node, tag).with_line(line)

        return tuple(tag(stmt) for stmt in module.body)

    def _transform_stmt(self, stmt: N.Stmt, scope: _Scope) -> N.Stmt:
        if isinstance(stmt, N.FuncDef):
            return self._transform_funcdef(stmt)
        default = self._default_stmt(stmt, scope)
        alternatives: List[Tuple[str, Tuple[N.Stmt, ...]]] = []
        for rule in self.model.rewrite_rules():
            if not rule.is_statement_rule:
                continue
            bindings = match(rule.lhs, stmt)
            if bindings is None:
                continue
            if rule.rhs is None:
                alternatives.append((rule.name, ()))
                continue
            try:
                new_stmt = self._instantiate(rule.rhs, bindings, scope, rule)
            except _Inapplicable:
                continue
            new_stmt = new_stmt.with_line(stmt.line)
            alternatives.append((rule.name, (new_stmt,)))
        if not alternatives:
            return default
        return ChoiceStmt(
            choices=((default,),) + tuple(block for _, block in alternatives),
            cid=self._fresh(),
            rule=alternatives[0][0],
            branch_rules=("",) + tuple(name for name, _ in alternatives),
            line=stmt.line,
        )

    def _default_stmt(self, stmt: N.Stmt, scope: _Scope) -> N.Stmt:
        tx = lambda e: self._transform_expr(e, scope)  # noqa: E731
        if isinstance(stmt, N.Assign):
            return N.Assign(
                target=self._transform_target(stmt.target, scope),
                value=tx(stmt.value),
                line=stmt.line,
            )
        if isinstance(stmt, N.AugAssign):
            return N.AugAssign(
                target=self._transform_target(stmt.target, scope),
                op=stmt.op,
                value=tx(stmt.value),
                line=stmt.line,
            )
        if isinstance(stmt, N.ExprStmt):
            return N.ExprStmt(value=tx(stmt.value), line=stmt.line)
        if isinstance(stmt, N.If):
            return N.If(
                test=tx(stmt.test),
                body=self._transform_block(stmt.body, scope),
                orelse=self._transform_block(stmt.orelse, scope),
                line=stmt.line,
            )
        if isinstance(stmt, N.While):
            return N.While(
                test=tx(stmt.test),
                body=self._transform_block(stmt.body, scope),
                line=stmt.line,
            )
        if isinstance(stmt, N.For):
            return N.For(
                target=stmt.target,
                iter=tx(stmt.iter),
                body=self._transform_block(stmt.body, scope),
                line=stmt.line,
            )
        if isinstance(stmt, N.Return):
            return N.Return(
                value=tx(stmt.value) if stmt.value is not None else None,
                line=stmt.line,
            )
        return stmt

    def _transform_block(
        self, block: Tuple[N.Stmt, ...], scope: _Scope
    ) -> Tuple[N.Stmt, ...]:
        return tuple(self._transform_stmt(s, scope) for s in block)

    def _transform_target(self, target: N.Expr, scope: _Scope) -> N.Expr:
        """Assignment targets: transform index expressions, keep the base."""
        if isinstance(target, N.Index):
            return N.Index(
                obj=target.obj,
                index=self._transform_expr(target.index, scope),
                line=target.line,
            )
        if isinstance(target, N.Slice):
            tx = lambda e: self._transform_expr(e, scope) if e else None  # noqa: E731
            return N.Slice(
                obj=target.obj,
                lower=tx(target.lower),
                upper=tx(target.upper),
                step=tx(target.step),
                line=target.line,
            )
        return target

    # -- expressions -----------------------------------------------------------

    def _transform_expr(self, expr: N.Expr, scope: _Scope) -> N.Expr:
        default = N.map_children(
            expr, lambda child: self._transform_expr(child, scope)
        )
        alternatives: List[Tuple[str, N.Expr]] = []
        for rule in self.model.rewrite_rules():
            if rule.is_statement_rule:
                continue
            bindings = match(rule.lhs, expr)
            if bindings is None:
                continue
            try:
                new_expr = self._instantiate(rule.rhs, bindings, scope, rule)
            except _Inapplicable:
                continue
            new_expr = new_expr.with_line(expr.line)
            if new_expr == default and not _contains_choice(new_expr):
                continue  # the "correction" would not change anything
            alternatives.append((rule.name, new_expr))
        if not alternatives:
            return default
        return ChoiceExpr(
            choices=(default,) + tuple(e for _, e in alternatives),
            cid=self._fresh(),
            rule=alternatives[0][0],
            branch_rules=("",) + tuple(name for name, _ in alternatives),
            line=expr.line,
        )

    # -- RHS instantiation -------------------------------------------------------

    def _instantiate(
        self,
        template: N.Node,
        bindings: Dict[str, object],
        scope: _Scope,
        rule: RewriteRule,
    ) -> N.Node:
        if isinstance(template, N.Var):
            kind = metavar_kind(template.name)
            if kind is not None:
                if template.name not in bindings:
                    raise EMLError(
                        f"rule {rule.name}: unbound metavariable "
                        f"{template.name!r} in RHS"
                    )
                return bindings[template.name]  # type: ignore[return-value]
            return template
        if isinstance(template, Prime):
            bound = bindings.get(template.binding)
            if bound is None:
                raise EMLError(
                    f"rule {rule.name}: prime on unbound metavariable "
                    f"{template.binding!r}"
                )
            return self._transform_expr(bound, scope)  # type: ignore[arg-type]
        if isinstance(template, ScopeVars):
            names = self._scope_var_names(template.binding, bindings, scope)
            if not names:
                raise _Inapplicable()
            if len(names) == 1:
                return N.Var(name=names[0])
            return ChoiceExpr(
                choices=tuple(N.Var(name=n) for n in names),
                cid=self._fresh(),
                rule=rule.name,
                free=True,
            )
        if isinstance(template, FreeSet):
            elements: List[N.Expr] = []
            for element in template.elements:
                if isinstance(element, ScopeVars):
                    names = self._scope_var_names(
                        element.binding, bindings, scope
                    )
                    elements.extend(N.Var(name=n) for n in names)
                    continue
                try:
                    elements.append(
                        self._instantiate(element, bindings, scope, rule)
                    )
                except _Inapplicable:
                    continue
            deduped: List[N.Expr] = []
            for element in elements:
                if element not in deduped:
                    deduped.append(element)
            if not deduped:
                raise _Inapplicable()
            if len(deduped) == 1:
                return deduped[0]
            return ChoiceExpr(
                choices=tuple(deduped),
                cid=self._fresh(),
                rule=rule.name,
                free=True,
            )
        if isinstance(template, CmpSet):
            default_op = bindings.get(CMP_OP_KEY)
            if default_op is None:
                raise EMLError(
                    f"rule {rule.name}: cmpset() requires anycmp() on the LHS"
                )
            ops = (default_op,) + tuple(
                op for op in CMP_OPS_SET if op != default_op
            )
            return ChoiceCompare(
                ops=ops,  # type: ignore[arg-type]
                left=self._instantiate(template.left, bindings, scope, rule),
                right=self._instantiate(template.right, bindings, scope, rule),
                cid=self._fresh(),
                rule=rule.name,
                free=True,
            )
        if isinstance(template, ArithSet):
            default_op = bindings.get(ARITH_OP_KEY)
            if default_op is None:
                raise EMLError(
                    f"rule {rule.name}: arithset() requires anyarith() on the LHS"
                )
            ops = (default_op,) + tuple(
                op for op in ARITH_OPS_SET if op != default_op
            )
            return ChoiceBinOp(
                ops=ops,  # type: ignore[arg-type]
                left=self._instantiate(template.left, bindings, scope, rule),
                right=self._instantiate(template.right, bindings, scope, rule),
                cid=self._fresh(),
                rule=rule.name,
                free=True,
            )
        if isinstance(template, N.Compare) and template.op == "?cmp":
            op = bindings.get(CMP_OP_KEY)
            if op is None:
                raise EMLError(
                    f"rule {rule.name}: anycmp() in RHS without anycmp() in LHS"
                )
            return N.Compare(
                op=op,  # type: ignore[arg-type]
                left=self._instantiate(template.left, bindings, scope, rule),
                right=self._instantiate(template.right, bindings, scope, rule),
            )
        if isinstance(template, N.BinOp) and template.op == "?arith":
            op = bindings.get(ARITH_OP_KEY)
            if op is None:
                raise EMLError(
                    f"rule {rule.name}: anyarith() in RHS without anyarith() "
                    "in LHS"
                )
            return N.BinOp(
                op=op,  # type: ignore[arg-type]
                left=self._instantiate(template.left, bindings, scope, rule),
                right=self._instantiate(template.right, bindings, scope, rule),
            )
        if isinstance(template, AnyArgs):
            raise EMLError(f"rule {rule.name}: '...' is only valid in the LHS")
        return _fold(
            N.map_children(
                template,
                lambda child: self._instantiate(child, bindings, scope, rule),
            )
        )

    def _scope_var_names(
        self, binding: str, bindings: Dict[str, object], scope: _Scope
    ) -> Tuple[str, ...]:
        """Expand ``?X``: all in-scope variables type-compatible with X.

        The matched expression's own variable is *included* when it
        type-matches: Fig. 2(f)'s "change operator >= to !=" requires the
        COMPR operand sets to be able to keep the original operands (the
        paper's Fig. 10 rendering merely omits the zero-cost duplicates).
        """
        bound = bindings.get(binding)
        if bound is None:
            raise EMLError(f"?{binding} refers to an unbound metavariable")
        ctype = infer_expr(bound, scope.env)  # type: ignore[arg-type]
        return scope.env.same_type_vars(ctype)


def _fold(node: N.Node) -> N.Node:
    """Fold constant integer arithmetic introduced by rule templates, so a
    rule like ``range(a1, a2) -> range(a1 + 1, a2)`` applied at ``a1 = 0``
    offers the candidate ``range(1, ...)`` rather than ``range(0 + 1, ...)``
    (matching the paper's Fig. 4 rendering)."""
    if (
        isinstance(node, N.BinOp)
        and node.op in ("+", "-")
        and isinstance(node.left, N.IntLit)
        and isinstance(node.right, N.IntLit)
    ):
        value = (
            node.left.value + node.right.value
            if node.op == "+"
            else node.left.value - node.right.value
        )
        return N.IntLit(value=value, line=node.line)
    return node


def _contains_choice(node: N.Node) -> bool:
    return any(
        isinstance(sub, (ChoiceExpr, ChoiceCompare, ChoiceStmt))
        for sub in node.walk()
    )


def apply_error_model(
    module: N.Module,
    model: ErrorModel,
    param_types: Optional[Dict[str, TypeSig]] = None,
) -> Tuple[N.Module, HoleRegistry]:
    """Transform ``module`` with ``model``; return the M̃PY tree + registry."""
    transformer = Transformer(model, param_types=param_types)
    tilde = transformer.transform_module(module)
    return tilde, HoleRegistry().rebuild_from(tilde)
