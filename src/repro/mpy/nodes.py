"""The MPY abstract syntax tree (paper Fig. 6a, plus supported extras).

Every node is an immutable dataclass whose sequence-valued fields are tuples,
so nodes compare structurally and hash — both properties are load-bearing:
the EML pattern matcher unifies against structural equality, and the rewriter
deduplicates candidate corrections by node identity.

Line numbers are carried on a ``line`` field excluded from equality, so a
rewritten expression still reports the student's original source line in
feedback messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Optional, Tuple


@dataclass(frozen=True)
class Node:
    """Base class of all MPY AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield every direct child node (left-to-right source order)."""
        for f in fields(self):
            if f.name == "line":
                continue
            value = getattr(self, f.name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """Number of nodes in this subtree (used by EML well-formedness)."""
        return sum(1 for _ in self.walk())

    def with_line(self, line: Optional[int]) -> "Node":
        """Return a copy of this node tagged with a source line number."""
        return replace(self, line=line)


class Expr(Node):
    """Marker base class for expressions."""


class Stmt(Node):
    """Marker base class for statements."""


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class StrLit(Expr):
    value: str
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class NoneLit(Expr):
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class ListLit(Expr):
    elts: Tuple[Expr, ...] = ()
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class TupleLit(Expr):
    elts: Tuple[Expr, ...] = ()
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class DictLit(Expr):
    keys: Tuple[Expr, ...] = ()
    values: Tuple[Expr, ...] = ()
    line: Optional[int] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Names and composite expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var(Expr):
    name: str
    line: Optional[int] = field(default=None, compare=False)


#: Arithmetic operators of MPY (paper Fig. 6a: + - * / ** ; we add // and %
#: because introductory submissions use them pervasively).
ARITH_OPS = ("+", "-", "*", "/", "//", "%", "**")

#: Comparison operators (paper opc, plus membership which hangman needs).
COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=", "in", "not in")


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str
    operand: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Compare(Expr):
    """A binary comparison; chained comparisons are desugared by the frontend."""

    op: str
    left: Expr
    right: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str
    left: Expr
    right: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Index(Expr):
    """Subscript access ``obj[index]``."""

    obj: Expr
    index: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Slice(Expr):
    """Slicing ``obj[lower:upper:step]`` with any bound possibly absent."""

    obj: Expr
    lower: Optional[Expr] = None
    upper: Optional[Expr] = None
    step: Optional[Expr] = None
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Attribute(Expr):
    """Attribute access, only used as the callee of method calls."""

    obj: Expr
    attr: str
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Call(Expr):
    func: Expr
    args: Tuple[Expr, ...] = ()
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class IfExp(Expr):
    """Conditional expression ``body if test else orelse`` (paper Fig. 6a)."""

    test: Expr
    body: Expr
    orelse: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class ListComp(Expr):
    """A single-generator list comprehension with optional ``if`` filters."""

    elt: Expr
    target: Expr
    iter: Expr
    conds: Tuple[Expr, ...] = ()
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Lambda(Expr):
    params: Tuple[str, ...]
    body: Expr
    line: Optional[int] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = value`` where target is a Var, Index, Slice or TupleLit."""

    target: Expr
    value: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class AugAssign(Stmt):
    target: Expr
    op: str
    value: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class ExprStmt(Stmt):
    value: Expr
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class If(Stmt):
    test: Expr
    body: Tuple[Stmt, ...]
    orelse: Tuple[Stmt, ...] = ()
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class While(Stmt):
    test: Expr
    body: Tuple[Stmt, ...]
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class For(Stmt):
    target: Expr
    iter: Expr
    body: Tuple[Stmt, ...]
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Pass(Stmt):
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Break(Stmt):
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Continue(Stmt):
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class FuncDef(Stmt):
    """``def name(params): body`` — nested defs become closures."""

    name: str
    params: Tuple[str, ...]
    body: Tuple[Stmt, ...]
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Module(Node):
    """A whole program: a sequence of top-level statements."""

    body: Tuple[Stmt, ...]
    line: Optional[int] = field(default=None, compare=False)

    def functions(self) -> dict:
        """Map of top-level function name to its FuncDef."""
        return {s.name: s for s in self.body if isinstance(s, FuncDef)}


def map_children(node: Node, fn) -> Node:
    """Rebuild ``node`` with ``fn`` applied to every direct child node.

    ``fn`` receives each child :class:`Node` and must return a node. Non-node
    fields (operators, names, line numbers) are preserved. This is the
    workhorse of both the EML transformer and the program rewriter.
    """
    updates = {}
    for f in fields(node):
        if f.name == "line":
            continue
        value = getattr(node, f.name)
        if isinstance(value, Node):
            new = fn(value)
            if new is not value:
                updates[f.name] = new
        elif isinstance(value, tuple) and any(isinstance(v, Node) for v in value):
            new_items = tuple(fn(v) if isinstance(v, Node) else v for v in value)
            if new_items != value:
                updates[f.name] = new_items
    if not updates:
        return node
    return replace(node, **updates)
