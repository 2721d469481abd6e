"""Choice nodes extending MPY into M̃PY, plus the hole registry.

Three node kinds cover the paper's set-expressions and set-statements:

- :class:`ChoiceExpr` — ``{ a0 , a1, ..., an}``: expression alternatives,
  index 0 is the boxed zero-cost default;
- :class:`ChoiceCompare` — ``a õpc b``: a comparison whose *operator* is
  drawn from a set (paper's COMPR rule) while both operands stay shared, so
  operand sub-choices are single holes rather than duplicated per operator;
- :class:`ChoiceStmt` — ``{ s0 , s1, ...}``: statement-block alternatives
  (used e.g. to optionally insert a base case or drop a print).

Every choice node carries a unique hole id ``cid`` (excluded from structural
equality, like line numbers) and the name of the EML rule that produced it,
so solver choices map back to feedback messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.mpy import nodes as N
from repro.mpy.errors import MPYError


@dataclass(frozen=True)
class ChoiceExpr(N.Expr):
    """An expression choice set.

    When ``free`` is False (a *boxed* set in the paper's notation),
    ``choices[0]`` is the zero-cost default and every other branch costs 1.
    When ``free`` is True (an *unboxed* rule-RHS set), every branch costs 0:
    the enclosing rule application already paid its single correction cost.
    """

    choices: Tuple[N.Expr, ...] = ()
    cid: int = field(default=-1, compare=False)
    rule: str = field(default="", compare=False)
    #: Rule name per branch ("" for the default); empty tuple if untracked.
    branch_rules: Tuple[str, ...] = field(default=(), compare=False)
    free: bool = field(default=False, compare=False)
    line: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.choices) < 2:
            raise MPYError("ChoiceExpr needs a default and ≥1 alternative")

    @property
    def arity(self) -> int:
        return len(self.choices)


@dataclass(frozen=True)
class ChoiceCompare(N.Expr):
    """A comparison with an operator choice set; ``ops[0]`` is the default."""

    ops: Tuple[str, ...] = ()
    left: N.Expr = None  # type: ignore[assignment]
    right: N.Expr = None  # type: ignore[assignment]
    cid: int = field(default=-1, compare=False)
    rule: str = field(default="", compare=False)
    branch_rules: Tuple[str, ...] = field(default=(), compare=False)
    free: bool = field(default=False, compare=False)
    line: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.ops) < 2:
            raise MPYError("ChoiceCompare needs a default and ≥1 alternative")
        for op in self.ops:
            if op not in N.COMPARE_OPS:
                raise MPYError(f"unknown comparison operator {op!r}")

    @property
    def arity(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class ChoiceBinOp(N.Expr):
    """A binary expression with an arithmetic-operator choice set.

    Like :class:`ChoiceCompare`, the operands are *shared* across all
    operator branches (they are part of every branch), so sub-choices
    inside them take this node's own parent rather than a branch-specific
    one.
    """

    ops: Tuple[str, ...] = ()
    left: N.Expr = None  # type: ignore[assignment]
    right: N.Expr = None  # type: ignore[assignment]
    cid: int = field(default=-1, compare=False)
    rule: str = field(default="", compare=False)
    branch_rules: Tuple[str, ...] = field(default=(), compare=False)
    free: bool = field(default=False, compare=False)
    line: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.ops) < 2:
            raise MPYError("ChoiceBinOp needs a default and ≥1 alternative")
        for op in self.ops:
            if op not in N.ARITH_OPS:
                raise MPYError(f"unknown arithmetic operator {op!r}")

    @property
    def arity(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class ChoiceStmt(N.Stmt):
    """A statement choice set; each branch is a statement block."""

    choices: Tuple[Tuple[N.Stmt, ...], ...] = ()
    cid: int = field(default=-1, compare=False)
    rule: str = field(default="", compare=False)
    branch_rules: Tuple[str, ...] = field(default=(), compare=False)
    free: bool = field(default=False, compare=False)
    line: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.choices) < 2:
            raise MPYError("ChoiceStmt needs a default and ≥1 alternative")

    @property
    def arity(self) -> int:
        return len(self.choices)


CHOICE_NODE_TYPES = (ChoiceExpr, ChoiceCompare, ChoiceBinOp, ChoiceStmt)


@dataclass(frozen=True)
class HoleInfo:
    """Metadata the feedback generator needs about one hole."""

    cid: int
    arity: int
    rule: str
    line: Optional[int]
    node: N.Node
    #: (parent cid, branch index containing this hole), or None at top level.
    parent: Optional[Tuple[int, int]] = None
    #: True for unboxed rule-RHS sets whose selection costs nothing.
    free: bool = False
    #: Rule name per branch ("" for the default); empty tuple if untracked.
    branch_rules: Tuple[str, ...] = ()


class HoleRegistry:
    """Assigns hole ids and records nesting for static cost computation.

    The cost of a hole assignment counts a non-default selection only when
    the hole is *active* — when every ancestor choice selects the branch the
    hole syntactically lives in (paper Fig. 7: alternatives of an unselected
    branch contribute nothing).
    """

    def __init__(self):
        self._holes: Dict[int, HoleInfo] = {}
        self._next = 0

    def fresh(
        self,
        arity: int,
        rule: str,
        line: Optional[int],
        node: Optional[N.Node] = None,
        parent: Optional[Tuple[int, int]] = None,
    ) -> int:
        cid = self._next
        self._next += 1
        self._holes[cid] = HoleInfo(
            cid=cid, arity=arity, rule=rule, line=line, node=node, parent=parent
        )
        return cid

    def __len__(self) -> int:
        return len(self._holes)

    def __contains__(self, cid: int) -> bool:
        return cid in self._holes

    def info(self, cid: int) -> HoleInfo:
        return self._holes[cid]

    def holes(self) -> Iterator[HoleInfo]:
        return iter(self._holes.values())

    def rebuild_from(self, root: N.Node) -> "HoleRegistry":
        """Re-derive hole metadata (including nesting) from a tilde tree."""
        registry = HoleRegistry()

        def record(node, parent) -> None:
            registry._holes[node.cid] = HoleInfo(
                cid=node.cid,
                arity=node.arity,
                rule=node.rule,
                line=node.line,
                node=node,
                parent=parent,
                free=node.free,
                branch_rules=node.branch_rules,
            )
            registry._next = max(registry._next, node.cid + 1)

        def visit(node: N.Node, parent: Optional[Tuple[int, int]]) -> None:
            if isinstance(node, ChoiceExpr):
                record(node, parent)
                for index, choice in enumerate(node.choices):
                    visit(choice, (node.cid, index))
                return
            if isinstance(node, (ChoiceCompare, ChoiceBinOp)):
                record(node, parent)
                # Operand sub-choices live in every branch of the operator
                # set, so they share the operator node's own parent.
                visit(node.left, parent)
                visit(node.right, parent)
                return
            if isinstance(node, ChoiceStmt):
                record(node, parent)
                for index, block in enumerate(node.choices):
                    for stmt in block:
                        visit(stmt, (node.cid, index))
                return
            for child in node.children():
                visit(child, parent)

        visit(root, None)
        return registry


def collect_choices(root: N.Node) -> Tuple[N.Node, ...]:
    """All choice nodes in ``root``, pre-order (including nested ones)."""
    return tuple(n for n in root.walk() if isinstance(n, CHOICE_NODE_TYPES))


def instantiate(node: N.Node, assignment: Dict[int, int]) -> N.Node:
    """Substitute every choice node by its selected branch.

    ``assignment`` maps hole id → branch index; missing holes default to 0
    (the unmodified student program element). Selection is recursive: the
    chosen branch is itself instantiated, so nested corrections compose.
    Statement blocks are spliced into their surrounding block.
    """
    if isinstance(node, ChoiceExpr):
        branch = node.choices[assignment.get(node.cid, 0)]
        return instantiate(branch, assignment)
    if isinstance(node, ChoiceCompare):
        op = node.ops[assignment.get(node.cid, 0)]
        return N.Compare(
            op=op,
            left=instantiate(node.left, assignment),
            right=instantiate(node.right, assignment),
            line=node.line,
        )
    if isinstance(node, ChoiceBinOp):
        op = node.ops[assignment.get(node.cid, 0)]
        return N.BinOp(
            op=op,
            left=instantiate(node.left, assignment),
            right=instantiate(node.right, assignment),
            line=node.line,
        )
    if isinstance(node, ChoiceStmt):
        raise MPYError(
            "ChoiceStmt must be instantiated within a statement block"
        )
    return _instantiate_children(node, assignment)


def _instantiate_children(node: N.Node, assignment: Dict[int, int]) -> N.Node:
    from dataclasses import fields, replace

    updates = {}
    for f in fields(node):
        if f.name == "line":
            continue
        value = getattr(node, f.name)
        if isinstance(value, N.Node):
            new = instantiate(value, assignment)
            if new is not value:
                updates[f.name] = new
        elif isinstance(value, tuple) and any(
            isinstance(v, N.Node) for v in value
        ):
            if all(isinstance(v, N.Stmt) for v in value) and value:
                updates[f.name] = instantiate_block(value, assignment)
            else:
                updates[f.name] = tuple(
                    instantiate(v, assignment) if isinstance(v, N.Node) else v
                    for v in value
                )
            if updates[f.name] == value:
                del updates[f.name]
    if not updates:
        return node
    return replace(node, **updates)


def instantiate_block(
    block: Tuple[N.Stmt, ...], assignment: Dict[int, int]
) -> Tuple[N.Stmt, ...]:
    """Instantiate a statement block, splicing ChoiceStmt branch blocks."""
    result: list = []
    for stmt in block:
        if isinstance(stmt, ChoiceStmt):
            branch = stmt.choices[assignment.get(stmt.cid, 0)]
            result.extend(instantiate_block(branch, assignment))
        else:
            result.append(instantiate(stmt, assignment))
    return tuple(result)
