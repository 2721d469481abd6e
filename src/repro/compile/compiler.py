"""One-pass closure compilation of M̃PY trees.

Lowers a :class:`~repro.mpy.nodes.Module` into nested Python closures:
every AST node is visited exactly once and becomes a specialized
``(frame) -> value`` (expressions) or ``(frame) -> None`` (statements)
callable. Repeated candidate runs then pay zero dispatch — no
``getattr``-by-type-name, no per-node method frames, no name-string dict
walks (locals are ``(depth, slot)``-resolved at compile time).

Choice nodes compile to branch tables indexed by a shared mutable
``assignment`` array: switching the candidate under test is an array
write (:meth:`CompiledProgram.set_assignment`) — **no recompilation per
candidate**. Every branch read is recorded in a touched-hole dict, so the
cube/blocking-clause generalization of the CEGIS engines works unchanged.

The touched-hole dict doubles as the path forker's choice-read
interception point: dict insertion order is **first-read order**, so the
explorer (:mod:`repro.explore.forker`) can replay a run's decision
prefix and fan out at the first untouched choice without any hot-path
hook — :meth:`CompiledProgram.run_recorded` is the entry that keeps the
record complete across top-level re-execution, and
:attr:`CompiledProgram.arities` tells the forker how wide each fan-out
is. This ordering is a load-bearing contract, pinned by the explorer's
differential suite.

Semantics are bit-identical to :mod:`repro.mpy.interp` (same fuel burns
at the same points, same error messages, same ``MAX_COLLECTION`` checks).
Operator semantics are the interpreter's own methods, borrowed by
:class:`~repro.compile.runtime.Machine`; the hottest forms are inlined as
fast paths in front of them:

- ``+ - * // % /`` on two ints (``*`` within ``_INT_MAGNITUDE_CAP``,
  ``// % /`` by a nonzero int), and ``+`` on two tuples;
- ``< > <= >=`` on two ints, and ``==`` / ``!=`` on any operands;
- ``list[int]`` and ``tuple[int]`` indexing;
- ``ChoiceCompare`` / ``ChoiceBinOp``, which dispatch to one such
  specialized closure per operator, and augmented assignment (``+=``
  also extends a list in place);
- ``ChoiceExpr`` branches that are literals, served from a value table;
- the truth test of ``if`` and ``while`` (``True``/``False`` skip
  ``truthy``);
- calls to builtins whose name was never shadowed.

Every fast path keeps one rule: it burns fuel at the point the borrowed
method would, raises the same message, and otherwise falls back to that
method without having burned. The differential suites under
``tests/compile/`` hold the two backends equal over every registered
problem, the synthetic student corpus, randomized hole assignments, and
operands that leave each fast path.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from repro.mpy import nodes as N
from repro.mpy.errors import MPYError, MPYRuntimeError, OutOfFuel
from repro.mpy.interp import (
    DEFAULT_FUEL,
    MAX_COLLECTION,
    _INT_MAGNITUDE_CAP,
    BuiltinFunction,
    RunResult,
    _make_builtins,
    _type_name,
    assigned_names,
)
from repro.mpy.values import clone_value
from repro.tilde.nodes import ChoiceBinOp, ChoiceCompare, ChoiceExpr, ChoiceStmt
from repro.compile.runtime import (
    BREAK,
    CONTINUE,
    UNDEF,
    CompiledClosure,
    FnTemplate,
    Frame,
    Machine,
    ReturnBox,
)

_MISSING = object()

#: Literal node types a ``ChoiceExpr`` serves from its value table.
_LITERALS = (N.IntLit, N.BoolLit, N.StrLit)

_ORDERED_OPS = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# Static scope analysis
# ---------------------------------------------------------------------------


def _collect_target_names(target: N.Expr, names: set) -> None:
    if isinstance(target, N.Var):
        names.add(target.name)
    elif isinstance(target, N.TupleLit):
        for elt in target.elts:
            _collect_target_names(elt, names)
    elif isinstance(target, ChoiceExpr):
        for choice in target.choices:
            _collect_target_names(choice, names)


def _collect_assigned(stmts: Tuple[N.Stmt, ...]) -> set:
    """Names a block *can* bind at runtime.

    Superset of the interpreter's ``assigned_names``: also descends into
    ``ChoiceStmt`` branches and ``ChoiceExpr`` assignment targets, because
    a selected branch assigns into the enclosing function frame exactly
    like a plain statement would. (Such names still resolve dynamically —
    local once assigned, outer/global before — which the read chains in
    :meth:`_Compiler.compile_var_read` reproduce.)
    """
    names: set = set()

    def visit(stmt: N.Stmt) -> None:
        if isinstance(stmt, (N.Assign, N.AugAssign)):
            _collect_target_names(stmt.target, names)
        elif isinstance(stmt, N.For):
            _collect_target_names(stmt.target, names)
            for s in stmt.body:
                visit(s)
        elif isinstance(stmt, N.FuncDef):
            names.add(stmt.name)
        elif isinstance(stmt, N.If):
            for s in stmt.body + stmt.orelse:
                visit(s)
        elif isinstance(stmt, N.While):
            for s in stmt.body:
                visit(s)
        elif isinstance(stmt, ChoiceStmt):
            for block in stmt.choices:
                for s in block:
                    visit(s)

    for stmt in stmts:
        visit(stmt)
    return names


class _Scope:
    """Compile-time scope: name → slot, plus the unbound-read trap set.

    ``trap`` is the interpreter's ``declared`` set (``assigned_names`` of
    the body): a read that finds its name here but the slot unassigned
    raises the unbound-local error instead of falling through to an outer
    scope. Slots ``< nparams`` hold parameters and are always bound.
    """

    __slots__ = ("parent", "index", "trap", "nparams")

    def __init__(
        self,
        parent: Optional["_Scope"],
        ordered_names: Tuple[str, ...],
        trap: frozenset,
        nparams: int,
    ):
        self.parent = parent
        self.index = {name: i for i, name in enumerate(ordered_names)}
        self.trap = trap
        self.nparams = nparams


def _function_scope(
    parent: Optional[_Scope], params: Tuple[str, ...], body: Tuple[N.Stmt, ...]
) -> _Scope:
    extra = sorted(_collect_assigned(body) - set(params))
    return _Scope(
        parent,
        tuple(params) + tuple(extra),
        trap=assigned_names(body),
        nparams=len(params),
    )


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class _Compiler:
    """Lowers nodes to closures over one shared :class:`Machine`."""

    def __init__(self, machine: Machine):
        self.machine = machine
        # Shared candidate-selection state, captured by choice closures.
        self.asg: List[int] = []
        self.cid_slot: Dict[int, int] = {}
        self.cid_arity: Dict[int, int] = {}
        self.touched: Dict[int, int] = {}
        #: Shared return cell — see :class:`ReturnBox` for why one suffices.
        self.ret = ReturnBox()
        # Bound helpers captured once; closures call them without any
        # attribute lookup on the machine. Hot thunks additionally inline
        # the fuel burn (``m.fuel -= 1`` + bound check) — same accounting
        # as ``Interpreter._burn``, minus the method-call frame.
        self.burn = machine._burn
        self.truthy = machine.truthy
        self.iterate = machine.iterate
        self.binary_op = machine.binary_op
        self.compare_op = machine.compare_op
        self.get_index = machine.get_index
        self.set_index = machine.set_index
        self.bind_method = machine.bind_method
        self.call_value = machine.call_value
        self.check_size = machine._check_size
        #: The program's builtin bindings. Call sites naming one of these
        #: compile an identity-guarded fast path: if the callee resolved
        #: at runtime *is* this exact binding (i.e. the name was never
        #: shadowed), the underlying function is invoked directly.
        self.builtins = {
            name: BuiltinFunction(name=name, fn=fn)
            for name, fn in _make_builtins(machine).items()
        }

    def _hole(self, cid: int, arity: int) -> int:
        index = self.cid_slot.get(cid)
        if index is None:
            index = len(self.asg)
            self.cid_slot[cid] = index
            self.asg.append(0)
        self.cid_arity[cid] = arity
        return index

    # -- blocks and statements ----------------------------------------------
    #
    # Statement thunks return ``None`` to fall through, or a control
    # signal (BREAK / CONTINUE / the machine's ReturnBox) that block and
    # loop thunks propagate — the interpreter's exception-based non-local
    # control flow, without the exception machinery.

    def compile_block(self, stmts: Tuple[N.Stmt, ...], scope: Optional[_Scope]):
        thunks = [self.compile_stmt(stmt, scope) for stmt in stmts]
        if not thunks:
            return lambda frame: None
        if len(thunks) == 1:
            return thunks[0]
        if len(thunks) == 2:
            first, second = thunks

            def run_block(frame):
                signal = first(frame)
                if signal is not None:
                    return signal
                return second(frame)

            return run_block
        if len(thunks) == 3:
            first, second, third = thunks

            def run_block(frame):
                signal = first(frame)
                if signal is not None:
                    return signal
                signal = second(frame)
                if signal is not None:
                    return signal
                return third(frame)

            return run_block
        thunk_tuple = tuple(thunks)

        def run_block(frame):
            for thunk in thunk_tuple:
                signal = thunk(frame)
                if signal is not None:
                    return signal
            return None

        return run_block

    def compile_stmt(self, stmt: N.Stmt, scope: Optional[_Scope]):
        method = getattr(self, "stmt_" + type(stmt).__name__, None)
        if method is None:
            message = f"cannot execute {type(stmt).__name__}"
            burn = self.burn

            def run(frame):
                burn()
                raise MPYRuntimeError(message)

            return run
        return method(stmt, scope)

    def _local_slot(self, target: N.Expr, scope) -> Optional[int]:
        """Slot index when ``target`` is a plain local variable, else None."""
        if isinstance(target, N.Var) and scope is not None:
            return scope.index.get(target.name)
        return None

    def stmt_Assign(self, stmt: N.Assign, scope):
        m = self.machine
        value_c = self.compile_expr(stmt.value, scope)
        slot = self._local_slot(stmt.target, scope)
        if slot is not None:

            def run(frame):
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                frame.slots[slot] = value_c(frame)

            return run
        set_c = self.compile_target(stmt.target, scope)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            set_c(frame, value_c(frame))

        return run

    def stmt_AugAssign(self, stmt: N.AugAssign, scope):
        m = self.machine
        read_c = self.compile_expr(stmt.target, scope)
        value_c = self.compile_expr(stmt.value, scope)
        slot = self._local_slot(stmt.target, scope)
        if slot is not None:
            set_c = None
        else:
            set_c = self.compile_target(stmt.target, scope)
        op = stmt.op
        if op == "+":
            binary_op = self.binary_op
            check_size = self.check_size

            def run(frame):
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                current = read_c(frame)
                value = value_c(frame)
                if type(current) is int and type(value) is int:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    result = current + value
                elif isinstance(current, list):
                    # Match Python's in-place list +=: extend, not rebind.
                    if not isinstance(value, (list, tuple)):
                        raise MPYRuntimeError(
                            f"can only concatenate list "
                            f"(not {_type_name(value)}) to list"
                        )
                    check_size(len(current) + len(value))
                    current.extend(value)
                    return
                else:
                    result = binary_op("+", current, value)
                if set_c is None:
                    frame.slots[slot] = result
                else:
                    set_c(frame, result)

            return run
        # Every other op reads the target, then the value, then applies
        # the operator: exactly the specialized BinOp closure.
        compute = self._binop(op, read_c, value_c)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            result = compute(frame)
            if set_c is None:
                frame.slots[slot] = result
            else:
                set_c(frame, result)

        return run

    def stmt_ExprStmt(self, stmt: N.ExprStmt, scope):
        m = self.machine
        value_c = self.compile_expr(stmt.value, scope)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            value_c(frame)

        return run

    def stmt_If(self, stmt: N.If, scope):
        m = self.machine
        truthy = self.truthy
        test_c = self.compile_expr(stmt.test, scope)
        body_b = self.compile_block(stmt.body, scope)
        orelse_b = self.compile_block(stmt.orelse, scope)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            test = test_c(frame)
            if test is True or (test is not False and truthy(test)):
                return body_b(frame)
            return orelse_b(frame)

        return run

    def stmt_While(self, stmt: N.While, scope):
        m = self.machine
        truthy = self.truthy
        test_c = self.compile_expr(stmt.test, scope)
        body_b = self.compile_block(stmt.body, scope)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            while True:
                test = test_c(frame)
                if test is not True and (test is False or not truthy(test)):
                    break
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                signal = body_b(frame)
                if signal is not None:
                    if signal is BREAK:
                        break
                    if signal is CONTINUE:
                        continue
                    return signal
            return None

        return run

    def stmt_For(self, stmt: N.For, scope):
        m = self.machine
        iterate = self.iterate
        iter_c = self.compile_expr(stmt.iter, scope)
        body_b = self.compile_block(stmt.body, scope)
        slot = self._local_slot(stmt.target, scope)
        if slot is not None:

            def run(frame):
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                iterable = iter_c(frame)
                items = (
                    list(iterable)
                    if type(iterable) is list
                    else iterate(iterable)
                )
                slots = frame.slots
                for item in items:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    slots[slot] = item
                    signal = body_b(frame)
                    if signal is not None:
                        if signal is BREAK:
                            break
                        if signal is CONTINUE:
                            continue
                        return signal
                return None

            return run
        target_c = self.compile_target(stmt.target, scope)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            for item in iterate(iter_c(frame)):
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                target_c(frame, item)
                signal = body_b(frame)
                if signal is not None:
                    if signal is BREAK:
                        break
                    if signal is CONTINUE:
                        continue
                    return signal
            return None

        return run

    def stmt_Return(self, stmt: N.Return, scope):
        m = self.machine
        box = self.ret
        if stmt.value is None:

            def run(frame):
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                box.value = None
                return box

            return run
        value_c = self.compile_expr(stmt.value, scope)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            box.value = value_c(frame)
            return box

        return run

    def stmt_Pass(self, stmt: N.Pass, scope):
        m = self.machine

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)

        return run

    def stmt_Break(self, stmt: N.Break, scope):
        m = self.machine

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            return BREAK

        return run

    def stmt_Continue(self, stmt: N.Continue, scope):
        m = self.machine

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            return CONTINUE

        return run

    def stmt_FuncDef(self, stmt: N.FuncDef, scope):
        m = self.machine
        template = self.compile_function(
            stmt.name, stmt.params, stmt.body, scope
        )
        set_c = self.compile_target(N.Var(name=stmt.name), scope)

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            set_c(frame, CompiledClosure(template, frame))

        return run

    def stmt_ChoiceStmt(self, stmt: ChoiceStmt, scope):
        m = self.machine
        index = self._hole(stmt.cid, stmt.arity)
        cid = stmt.cid
        asg = self.asg
        touched = self.touched
        blocks = tuple(
            self.compile_block(block, scope) for block in stmt.choices
        )

        def run(frame):
            m.fuel -= 1
            if m.fuel < 0:
                raise OutOfFuel(m.max_fuel)
            branch = asg[index]
            touched[cid] = branch
            return blocks[branch](frame)

        return run

    # -- functions -----------------------------------------------------------

    def compile_function(
        self,
        name: str,
        params: Tuple[str, ...],
        body: Tuple[N.Stmt, ...],
        scope: Optional[_Scope],
    ) -> FnTemplate:
        fn_scope = _function_scope(scope, params, body)
        body_b = self.compile_block(body, fn_scope)
        return FnTemplate(
            name=name,
            nparams=len(params),
            n_slots=len(fn_scope.index),
            body=body_b,
        )

    # -- assignment targets --------------------------------------------------

    def compile_target(self, target: N.Expr, scope: Optional[_Scope]):
        """Compile ``target`` to a ``(frame, value) -> None`` setter."""
        if isinstance(target, N.Var):
            name = target.name
            if scope is None:
                g = self.machine.globals

                def set_global(frame, value):
                    g[name] = value

                return set_global
            slot = scope.index.get(name)
            if slot is None:  # pragma: no cover - collector invariant
                raise MPYError(
                    f"internal: unresolved assignment target {name!r}"
                )

            def set_local(frame, value):
                frame.slots[slot] = value

            return set_local
        if isinstance(target, N.Index):
            obj_c = self.compile_expr(target.obj, scope)
            index_c = self.compile_expr(target.index, scope)
            set_index = self.set_index

            def set_item(frame, value):
                obj = obj_c(frame)
                index = index_c(frame)
                set_index(obj, index, value)

            return set_item
        if isinstance(target, N.Slice):
            obj_c = self.compile_expr(target.obj, scope)
            make_slice = self.compile_slice_bounds(target, scope)
            check_size = self.check_size

            def set_slice(frame, value):
                obj = obj_c(frame)
                if not isinstance(obj, list):
                    raise MPYRuntimeError(
                        f"{_type_name(obj)} does not support slice assignment"
                    )
                sl = make_slice(frame)
                if not isinstance(value, (list, tuple, str)):
                    raise MPYRuntimeError(
                        "can only assign an iterable to a slice"
                    )
                obj[sl] = list(value)
                check_size(len(obj))

            return set_slice
        if isinstance(target, N.TupleLit):
            subs = tuple(self.compile_target(e, scope) for e in target.elts)
            count = len(subs)
            iterate = self.iterate

            def set_tuple(frame, value):
                items = iterate(value)
                if len(items) != count:
                    raise MPYRuntimeError(
                        f"cannot unpack {len(items)} values into "
                        f"{count} targets"
                    )
                for sub, item in zip(subs, items):
                    sub(frame, item)

            return set_tuple
        if isinstance(target, ChoiceExpr):
            # Assignment-target corrections (LHS rewrites): resolve the
            # chosen branch per run, recording the hole read.
            index = self._hole(target.cid, target.arity)
            cid = target.cid
            asg = self.asg
            touched = self.touched
            setters = tuple(
                self.compile_target(choice, scope)
                for choice in target.choices
            )

            def set_choice(frame, value):
                branch = asg[index]
                touched[cid] = branch
                setters[branch](frame, value)

            return set_choice
        message = f"cannot assign to {type(target).__name__}"

        def set_invalid(frame, value):
            raise MPYRuntimeError(message)

        return set_invalid

    # -- expressions ---------------------------------------------------------

    def compile_expr(self, expr: N.Expr, scope: Optional[_Scope]):
        method = getattr(self, "expr_" + type(expr).__name__, None)
        if method is None:
            message = f"cannot evaluate {type(expr).__name__}"

            def run(frame):
                raise MPYRuntimeError(message)

            return run
        return method(expr, scope)

    def expr_IntLit(self, expr: N.IntLit, scope):
        value = expr.value
        return lambda frame: value

    def expr_BoolLit(self, expr: N.BoolLit, scope):
        value = expr.value
        return lambda frame: value

    def expr_StrLit(self, expr: N.StrLit, scope):
        value = expr.value
        return lambda frame: value

    def expr_NoneLit(self, expr: N.NoneLit, scope):
        return lambda frame: None

    def expr_Var(self, expr: N.Var, scope):
        return self.compile_var_read(expr.name, scope)

    def compile_var_read(self, name: str, scope: Optional[_Scope]):
        """Compile a name read into its statically-resolved access chain.

        Walking the compile-time scopes from innermost out produces a
        chain of ``(depth, slot, trap)`` probes; resolution stops early at
        a parameter (always bound) or a trap entry (the interpreter's
        declared-name rule never looks past it). Anything left falls
        through to the globals dict.
        """
        g = self.machine.globals
        undefined = f"name '{name}' is not defined"
        chain: List[Tuple[int, int, bool]] = []
        has_global = True
        depth = 0
        walk = scope
        while walk is not None:
            slot = walk.index.get(name)
            if slot is not None:
                if slot < walk.nparams:
                    # Parameter: always assigned, terminal.
                    if not chain:
                        return self._direct_read(depth, slot)
                    chain.append((depth, slot, False))
                    has_global = False
                    break
                trap = name in walk.trap
                chain.append((depth, slot, trap))
                if trap:
                    has_global = False
                    break
            walk = walk.parent
            depth += 1

        if not chain:

            def read_global(frame):
                value = g.get(name, _MISSING)
                if value is _MISSING:
                    raise MPYRuntimeError(undefined)
                return value

            return read_global

        unbound = f"local variable '{name}' referenced before assignment"
        if len(chain) == 1 and chain[0][0] == 0 and chain[0][2]:
            slot = chain[0][1]

            def read_local(frame):
                value = frame.slots[slot]
                if value is UNDEF:
                    raise MPYRuntimeError(unbound)
                return value

            return read_local

        entries = tuple(chain)

        def read_chain(frame):
            for entry_depth, slot, trap in entries:
                f = frame
                for _ in range(entry_depth):
                    f = f.parent
                value = f.slots[slot]
                if value is not UNDEF:
                    return value
                if trap:
                    raise MPYRuntimeError(unbound)
            if has_global:
                value = g.get(name, _MISSING)
                if value is not _MISSING:
                    return value
                raise MPYRuntimeError(undefined)
            raise MPYRuntimeError(unbound)  # pragma: no cover - terminal slot

        return read_chain

    @staticmethod
    def _direct_read(depth: int, slot: int):
        if depth == 0:
            return lambda frame: frame.slots[slot]
        if depth == 1:
            return lambda frame: frame.parent.slots[slot]

        def read(frame):
            f = frame
            for _ in range(depth):
                f = f.parent
            return f.slots[slot]

        return read

    def expr_ListLit(self, expr: N.ListLit, scope):
        elts = tuple(self.compile_expr(e, scope) for e in expr.elts)
        if not elts:
            return lambda frame: []
        if len(elts) == 1:
            elt0_c = elts[0]
            return lambda frame: [elt0_c(frame)]
        if len(elts) == 2:
            elt0_c, elt1_c = elts
            return lambda frame: [elt0_c(frame), elt1_c(frame)]
        return lambda frame: [c(frame) for c in elts]

    def expr_TupleLit(self, expr: N.TupleLit, scope):
        elts = tuple(self.compile_expr(e, scope) for e in expr.elts)
        if not elts:
            return lambda frame: ()
        if len(elts) == 1:
            elt0_c = elts[0]
            return lambda frame: (elt0_c(frame),)
        if len(elts) == 2:
            elt0_c, elt1_c = elts
            return lambda frame: (elt0_c(frame), elt1_c(frame))
        return lambda frame: tuple(c(frame) for c in elts)

    def expr_DictLit(self, expr: N.DictLit, scope):
        pairs = tuple(
            (self.compile_expr(k, scope), self.compile_expr(v, scope))
            for k, v in zip(expr.keys, expr.values)
        )

        def run(frame):
            result = {}
            for key_c, value_c in pairs:
                key = key_c(frame)
                if isinstance(key, (list, dict)):
                    raise MPYRuntimeError(
                        f"unhashable type: '{_type_name(key)}'"
                    )
                result[key] = value_c(frame)
            return result

        return run

    def expr_BinOp(self, expr: N.BinOp, scope):
        left_c = self.compile_expr(expr.left, scope)
        right_c = self.compile_expr(expr.right, scope)
        return self._binop(expr.op, left_c, right_c)

    def _binop(self, op: str, left_c, right_c):
        """Specialize a binary operator at compile time.

        Each op gets an inlined int×int fast path that reproduces the
        interpreter's exact accounting (one fuel burn, the same overflow
        and zero-division outcomes); anything else falls back to the
        borrowed ``binary_op`` *without* having burned, so fuel is charged
        exactly once either way. ``type(x) is int`` deliberately excludes
        bools — they take the generic path like any other numeric mix.
        ``+`` also inlines tuple concatenation (burn, then the size bound).
        """
        m = self.machine
        binary_op = self.binary_op
        if op == "+":
            check_size = self.check_size

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                if type(left) is int and type(right) is int:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return left + right
                if type(left) is tuple and type(right) is tuple:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    check_size(len(left) + len(right))
                    return left + right
                return binary_op("+", left, right)

            return run
        if op == "-":

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                if type(left) is int and type(right) is int:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return left - right
                return binary_op("-", left, right)

            return run
        if op == "*":

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                if (
                    type(left) is int
                    and type(right) is int
                    and -_INT_MAGNITUDE_CAP <= left <= _INT_MAGNITUDE_CAP
                    and -_INT_MAGNITUDE_CAP <= right <= _INT_MAGNITUDE_CAP
                ):
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return left * right
                return binary_op("*", left, right)

            return run
        if op == "//":

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                if type(left) is int and type(right) is int and right != 0:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return left // right
                return binary_op("//", left, right)

            return run
        if op == "%":

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                if type(left) is int and type(right) is int and right != 0:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return left % right
                return binary_op("%", left, right)

            return run
        if op == "/":

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                if type(left) is int and type(right) is int and right != 0:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return left / right
                return binary_op("/", left, right)

            return run
        return lambda frame: binary_op(op, left_c(frame), right_c(frame))

    def expr_UnaryOp(self, expr: N.UnaryOp, scope):
        operand_c = self.compile_expr(expr.operand, scope)
        op = expr.op
        if op == "not":
            truthy = self.truthy
            return lambda frame: not truthy(operand_c(frame))
        if op == "-":

            def run(frame):
                operand = operand_c(frame)
                if isinstance(operand, bool):
                    return -int(operand)
                if isinstance(operand, (int, float)):
                    return -operand
                raise MPYRuntimeError(
                    f"bad operand type for unary -: {_type_name(operand)}"
                )

            return run
        if op == "+":

            def run(frame):
                operand = operand_c(frame)
                if isinstance(operand, (int, float)):
                    return operand
                raise MPYRuntimeError(
                    f"bad operand type for unary +: {_type_name(operand)}"
                )

            return run
        message = f"unknown unary operator {op}"

        def run(frame):
            operand_c(frame)
            raise MPYRuntimeError(message)

        return run

    def expr_Compare(self, expr: N.Compare, scope):
        left_c = self.compile_expr(expr.left, scope)
        right_c = self.compile_expr(expr.right, scope)
        return self._compare(expr.op, left_c, right_c)

    def _compare(self, op: str, left_c, right_c):
        """Specialize a comparison; same once-only fuel rule as ``_binop``."""
        m = self.machine
        compare_op = self.compare_op
        if op == "==":
            # Equality has no type guard in the interpreter: inline fully.
            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                return left == right

            return run
        if op == "!=":

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                return left != right

            return run
        if op in ("<", ">", "<=", ">="):
            native = _ORDERED_OPS[op]

            def run(frame):
                left = left_c(frame)
                right = right_c(frame)
                if type(left) is int and type(right) is int:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return native(left, right)
                return compare_op(op, left, right)

            return run
        return lambda frame: compare_op(op, left_c(frame), right_c(frame))

    def expr_BoolOp(self, expr: N.BoolOp, scope):
        truthy = self.truthy
        left_c = self.compile_expr(expr.left, scope)
        right_c = self.compile_expr(expr.right, scope)
        if expr.op == "and":

            def run(frame):
                left = left_c(frame)
                if not truthy(left):
                    return left
                return right_c(frame)

            return run

        def run(frame):
            left = left_c(frame)
            if not truthy(left):
                return right_c(frame)
            return left

        return run

    def expr_Index(self, expr: N.Index, scope):
        m = self.machine
        get_index = self.get_index
        obj_c = self.compile_expr(expr.obj, scope)
        index_c = self.compile_expr(expr.index, scope)

        def run(frame):
            obj = obj_c(frame)
            index = index_c(frame)
            if type(obj) is list and type(index) is int:
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                if -len(obj) <= index < len(obj):
                    return obj[index]
                raise MPYRuntimeError("list index out of range")
            if type(obj) is tuple and type(index) is int:
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                if -len(obj) <= index < len(obj):
                    return obj[index]
                raise MPYRuntimeError("tuple index out of range")
            return get_index(obj, index)

        return run

    def expr_Slice(self, expr: N.Slice, scope):
        obj_c = self.compile_expr(expr.obj, scope)
        const = self._constant_slice(expr)
        if const is not None:

            def run(frame):
                obj = obj_c(frame)
                if not isinstance(obj, (list, tuple, str)):
                    raise MPYRuntimeError(
                        f"{_type_name(obj)} is not subscriptable"
                    )
                return obj[const]

            return run
        make_slice = self.compile_slice_bounds(expr, scope)

        def run(frame):
            obj = obj_c(frame)
            if not isinstance(obj, (list, tuple, str)):
                raise MPYRuntimeError(
                    f"{_type_name(obj)} is not subscriptable"
                )
            return obj[make_slice(frame)]

        return run

    @staticmethod
    def _constant_slice(expr: N.Slice) -> Optional[slice]:
        """A precomputed slice when all bounds are literal ints (or absent).

        A literal zero step stays on the dynamic path so the "slice step
        cannot be zero" error keeps its evaluation-time ordering.
        """
        bounds = []
        for sub in (expr.lower, expr.upper, expr.step):
            if sub is None:
                bounds.append(None)
            elif isinstance(sub, N.IntLit):
                bounds.append(sub.value)
            else:
                return None
        if bounds[2] == 0:
            return None
        return slice(*bounds)

    def compile_slice_bounds(self, expr: N.Slice, scope):
        """Compile ``lower:upper:step`` into a ``(frame) -> slice`` maker.

        Bound-evaluation order matches the interpreter's ``_make_slice``:
        step first (for the zero check), then lower, then upper.
        """
        lower_c = (
            self.compile_expr(expr.lower, scope)
            if expr.lower is not None
            else None
        )
        upper_c = (
            self.compile_expr(expr.upper, scope)
            if expr.upper is not None
            else None
        )
        step_c = (
            self.compile_expr(expr.step, scope)
            if expr.step is not None
            else None
        )

        def bound(compiled, frame):
            if compiled is None:
                return None
            value = compiled(frame)
            if isinstance(value, bool):
                return int(value)
            if not isinstance(value, int):
                raise MPYRuntimeError(
                    f"slice indices must be integers, not {_type_name(value)}"
                )
            return value

        def make(frame):
            step = bound(step_c, frame)
            if step == 0:
                raise MPYRuntimeError("slice step cannot be zero")
            return slice(bound(lower_c, frame), bound(upper_c, frame), step)

        return make

    def expr_Attribute(self, expr: N.Attribute, scope):
        bind_method = self.bind_method
        obj_c = self.compile_expr(expr.obj, scope)
        attr = expr.attr
        return lambda frame: bind_method(obj_c(frame), attr)

    def expr_Call(self, expr: N.Call, scope):
        m = self.machine
        call_value = self.call_value
        func_c = self.compile_expr(expr.func, scope)
        args_c = tuple(self.compile_expr(a, scope) for a in expr.args)

        # Identity-guarded builtin fast path: only when the callee is a
        # plain name that statically resolves to the globals dict (no
        # local shadowing possible along the scope chain).
        expected = None
        if isinstance(expr.func, N.Var) and self._resolves_global(
            expr.func.name, scope
        ):
            expected = self.builtins.get(expr.func.name)
        if expected is not None and len(args_c) == 1:
            impl = expected.fn
            arg0_c = args_c[0]

            def run(frame):
                fn = func_c(frame)
                arg0 = arg0_c(frame)
                if fn is expected:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return impl(arg0)
                return call_value(fn, [arg0])

            return run
        if expected is not None and len(args_c) == 2:
            impl = expected.fn
            arg0_c, arg1_c = args_c

            def run(frame):
                fn = func_c(frame)
                arg0 = arg0_c(frame)
                arg1 = arg1_c(frame)
                if fn is expected:
                    m.fuel -= 1
                    if m.fuel < 0:
                        raise OutOfFuel(m.max_fuel)
                    return impl(arg0, arg1)
                return call_value(fn, [arg0, arg1])

            return run

        if not args_c:
            return lambda frame: call_value(func_c(frame), [])
        if len(args_c) == 1:
            arg0_c = args_c[0]
            return lambda frame: call_value(func_c(frame), [arg0_c(frame)])
        if len(args_c) == 2:
            arg0_c, arg1_c = args_c
            return lambda frame: call_value(
                func_c(frame), [arg0_c(frame), arg1_c(frame)]
            )
        return lambda frame: call_value(
            func_c(frame), [a(frame) for a in args_c]
        )

    @staticmethod
    def _resolves_global(name: str, scope: Optional[_Scope]) -> bool:
        """True when no enclosing compile-time scope can bind ``name``."""
        walk = scope
        while walk is not None:
            if name in walk.index:
                return False
            walk = walk.parent
        return True

    def expr_IfExp(self, expr: N.IfExp, scope):
        truthy = self.truthy
        test_c = self.compile_expr(expr.test, scope)
        body_c = self.compile_expr(expr.body, scope)
        orelse_c = self.compile_expr(expr.orelse, scope)

        def run(frame):
            if truthy(test_c(frame)):
                return body_c(frame)
            return orelse_c(frame)

        return run

    def expr_ListComp(self, expr: N.ListComp, scope):
        m = self.machine
        truthy = self.truthy
        iterate = self.iterate
        check_size = self.check_size
        iter_c = self.compile_expr(expr.iter, scope)
        comp_names: set = set()
        _collect_target_names(expr.target, comp_names)
        comp_scope = _Scope(
            scope, tuple(sorted(comp_names)), trap=frozenset(), nparams=0
        )
        n_slots = len(comp_scope.index)
        target_c = self.compile_target(expr.target, comp_scope)
        cond_cs = tuple(self.compile_expr(c, comp_scope) for c in expr.conds)
        elt_c = self.compile_expr(expr.elt, comp_scope)

        def run(frame):
            iterable = iter_c(frame)
            comp = Frame([UNDEF] * n_slots, frame)
            result = []
            for item in iterate(iterable):
                m.fuel -= 1
                if m.fuel < 0:
                    raise OutOfFuel(m.max_fuel)
                target_c(comp, item)
                for cond_c in cond_cs:
                    if not truthy(cond_c(comp)):
                        break
                else:
                    result.append(elt_c(comp))
                    check_size(len(result))
            return result

        return run

    def expr_Lambda(self, expr: N.Lambda, scope):
        template = self.compile_function(
            "<lambda>", expr.params, (N.Return(value=expr.body),), scope
        )
        return lambda frame: CompiledClosure(template, frame)

    # -- choice nodes --------------------------------------------------------

    def expr_ChoiceExpr(self, expr: ChoiceExpr, scope):
        index = self._hole(expr.cid, expr.arity)
        cid = expr.cid
        asg = self.asg
        touched = self.touched
        # Every branch is compiled (literals too), so nested holes get
        # their slots in the same order whichever table serves a branch.
        branches = tuple(
            self.compile_expr(choice, scope) for choice in expr.choices
        )
        values = tuple(
            choice.value if isinstance(choice, _LITERALS) else _MISSING
            for choice in expr.choices
        )
        if _MISSING not in values:

            def run(frame):
                branch = asg[index]
                touched[cid] = branch
                return values[branch]

            return run
        if values.count(_MISSING) == len(values):

            def run(frame):
                branch = asg[index]
                touched[cid] = branch
                return branches[branch](frame)

            return run

        def run(frame):
            branch = asg[index]
            touched[cid] = branch
            value = values[branch]
            if value is _MISSING:
                return branches[branch](frame)
            return value

        return run

    def expr_ChoiceCompare(self, expr: ChoiceCompare, scope):
        return self._choice_op(expr, scope, self._compare)

    def expr_ChoiceBinOp(self, expr: ChoiceBinOp, scope):
        return self._choice_op(expr, scope, self._binop)

    def _choice_op(self, expr, scope, specialize):
        """Dispatch an operator hole to one specialized closure per op.

        The hole's slot is allocated before the operands are compiled, and
        the hole is recorded before either operand is evaluated, exactly
        as the recording interpreter reads the op first.
        """
        index = self._hole(expr.cid, expr.arity)
        cid = expr.cid
        asg = self.asg
        touched = self.touched
        left_c = self.compile_expr(expr.left, scope)
        right_c = self.compile_expr(expr.right, scope)
        branches = tuple(specialize(op, left_c, right_c) for op in expr.ops)

        def run(frame):
            branch = asg[index]
            touched[cid] = branch
            return branches[branch](frame)

        return run


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A module lowered to closures, runnable under hole assignments.

    API-compatible with both execution front-ends it replaces:

    - :meth:`call` mirrors ``Interpreter.call`` (fresh fuel and stdout,
      top-level statements executed once), and ``.fuel`` exposes the
      remaining budget for the verifier's step calibration;
    - :meth:`run` / :meth:`cube` mirror ``RecordingInterpreter`` —
      candidate switching is one pass over the assignment array, and
      modules with top-level state re-execute it per run exactly like a
      freshly constructed interpreter would.

    Top-level execution is lazy (first ``call``/``run``), so compiling a
    candidate space never raises on a program whose top level errors —
    the error surfaces per-run, as an outcome, matching the engines'
    interpreter-construction-per-run behavior.
    """

    def __init__(
        self,
        module: N.Module,
        fuel: int = DEFAULT_FUEL,
        max_collection: int = MAX_COLLECTION,
    ):
        self.module = module
        self.max_fuel = fuel
        self.stateful = any(
            not isinstance(stmt, N.FuncDef) for stmt in module.body
        )
        machine = Machine(fuel, max_collection)
        self.machine = machine
        compiler = _Compiler(machine)
        self._top = compiler.compile_block(module.body, None)
        self._asg = compiler.asg
        self._cid_slot = compiler.cid_slot
        #: Hole id → branch count, for the path forker's fan-out width.
        self.arities = compiler.cid_arity
        self.touched = compiler.touched
        self._builtins = compiler.builtins
        self._initialized = False

    @property
    def fuel(self) -> int:
        """Remaining fuel after the last run (Interpreter-compatible)."""
        return self.machine.fuel

    @property
    def assignment(self) -> Dict[int, int]:
        """The current hole assignment (non-default entries only)."""
        return {
            cid: self._asg[index]
            for cid, index in self._cid_slot.items()
            if self._asg[index] != 0
        }

    def set_assignment(self, assignment: Optional[Dict[int, int]]) -> None:
        """Select the candidate: one array write per hole, no recompile."""
        asg = self._asg
        for index in range(len(asg)):
            asg[index] = 0
        if assignment:
            cid_slot = self._cid_slot
            for cid, branch in assignment.items():
                index = cid_slot.get(cid)
                if index is not None:
                    asg[index] = branch

    def _exec_top_level(self) -> None:
        machine = self.machine
        machine.fuel = self.max_fuel
        machine.depth = 0
        machine.stdout = []
        machine.globals.clear()
        machine.globals.update(self._builtins)
        self._top(None)
        self._initialized = True

    def _ensure_initialized(self) -> None:
        if not self._initialized:
            self._exec_top_level()

    # -- Interpreter-compatible API -----------------------------------------

    def call(self, name: str, args: tuple) -> RunResult:
        """Call global function ``name`` with ``args``; fresh fuel + stdout."""
        if not self._initialized:
            self._exec_top_level()
        machine = self.machine
        machine.fuel = self.max_fuel
        machine.depth = 0
        machine.stdout = []
        fn = machine.globals.get(name, _MISSING)
        if fn is _MISSING:
            raise MPYRuntimeError(f"name '{name}' is not defined")
        try:
            value = machine.call_value(fn, [clone_value(a) for a in args])
        except RecursionError:
            raise MPYRuntimeError("expression nesting too deep") from None
        return RunResult(value=value, stdout=tuple(machine.stdout))

    # -- RecordingInterpreter-compatible API --------------------------------

    def run(
        self,
        name: str,
        args: tuple,
        assignment: Optional[Dict[int, int]] = None,
    ) -> RunResult:
        """Run one candidate; resets the touched-hole record first."""
        if assignment is not None:
            self.set_assignment(assignment)
        if self.stateful:
            # Top-level state must be rebuilt under the new assignment,
            # exactly as constructing a fresh RecordingInterpreter does.
            self._exec_top_level()
        else:
            self._ensure_initialized()
        self.touched.clear()
        return self.call(name, args)

    def cube(self) -> Dict[int, int]:
        """The holes read by the last run, with the branches they took."""
        return dict(self.touched)

    # -- path-forker API ----------------------------------------------------

    def run_recorded(
        self,
        name: str,
        args: tuple,
        assignment: Optional[Dict[int, int]] = None,
    ) -> RunResult:
        """Run one path with a touched record covering the *whole* run.

        Unlike :meth:`run`, the record is cleared before top-level
        re-execution, so choices read while rebuilding module state are
        part of the cube — the completeness the exploration tables need
        (a stateful module's outcome can depend on top-level choices).
        On an error mid-run (including during top-level execution) the
        record still holds everything read up to the raise, which is
        exactly the failing path's cube.
        """
        if assignment is not None:
            self.set_assignment(assignment)
        self.touched.clear()
        if self.stateful:
            self._exec_top_level()
        else:
            self._ensure_initialized()
        return self.call(name, args)


def compile_program(
    module: N.Module,
    fuel: int = DEFAULT_FUEL,
    max_collection: int = MAX_COLLECTION,
) -> CompiledProgram:
    """Lower ``module`` once; run it many times at closure speed."""
    return CompiledProgram(module, fuel=fuel, max_collection=max_collection)
