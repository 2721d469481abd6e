"""Targeted semantics tests for the closure compiler.

Each case pins a corner where a naive compiler would drift from the
tree-walker: scoping dynamics, error-message wording, fuel-exhaustion
points, top-level state, and choice-node behavior.
"""

from __future__ import annotations

import pytest

from tests.compile.difftools import observe, source_parity

from repro.compile import CompiledProgram, compile_program
from repro.mpy import parse_program
from repro.mpy.errors import MPYRuntimeError
from repro.mpy.interp import Interpreter
from repro.symbolic.recorder import RecordingInterpreter
from repro.tilde.nodes import ChoiceExpr, ChoiceStmt
from repro.mpy import nodes as N


class TestScoping:
    def test_unbound_local_message(self):
        source = """def f(x):
    if x > 100:
        y = 1
    return y
"""
        outcome = source_parity(source, "f", (1,))
        assert outcome == (
            "error",
            "local variable 'y' referenced before assignment",
        )

    def test_name_not_defined_message(self):
        outcome = source_parity("def f():\n    return zzz\n", "f", ())
        assert outcome == ("error", "name 'zzz' is not defined")

    def test_builtin_shadowed_by_local(self):
        source = """def f(xs):
    len = 3
    return len + 1
"""
        assert source_parity(source, "f", ([1],)) == ("ok", 4, ())

    def test_nested_closure_reads_outer_local(self):
        source = """def outer(n):
    base = n * 10
    def inner(k):
        return base + k
    return inner(5)
"""
        assert source_parity(source, "outer", (2,)) == ("ok", 25, ())

    def test_closure_captures_at_call_time(self):
        source = """def outer():
    x = 1
    def inner():
        return x
    x = 2
    return inner()
"""
        assert source_parity(source, "outer", ()) == ("ok", 2, ())

    def test_comprehension_scope_shadows(self):
        source = """def f(xs):
    i = 99
    doubled = [i * 2 for i in xs]
    return (doubled, i)
"""
        assert source_parity(source, "f", ([1, 2],)) == (
            "ok",
            ([2, 4], 99),
            (),
        )

    def test_lambda_over_comprehension_target(self):
        source = """def f(xs):
    fns = [lambda: i for i in xs]
    return fns[0]()
"""
        # Both backends: the comp variable is shared, last value wins.
        assert source_parity(source, "f", ([7, 8],)) == ("ok", 8, ())

    def test_tuple_unpack_mismatch_message(self):
        source = """def f():
    a, b = (1, 2, 3)
    return a
"""
        assert source_parity(source, "f", ()) == (
            "error",
            "cannot unpack 3 values into 2 targets",
        )


class TestErrorsAndFuel:
    def test_arity_error_message(self):
        source = "def f(a, b):\n    return a\n"
        assert source_parity(source, "f", (1,)) == (
            "error",
            "f() takes 2 arguments, got 1",
        )

    def test_recursion_limit(self):
        source = """def f(n):
    return f(n + 1)
"""
        assert source_parity(source, "f", (0,)) == (
            "error",
            "maximum recursion depth exceeded",
        )

    def test_out_of_fuel_same_point(self):
        source = """def f(x):
    while True:
        x += 1
"""
        assert source_parity(source, "f", (0,), fuel=333) == (
            "error",
            "execution exceeded 333 steps",
        )

    def test_division_by_zero(self):
        assert source_parity(
            "def f(a):\n    return 1 // a\n", "f", (0,)
        ) == ("error", "division by zero")

    def test_overflow_guard(self):
        source = "def f(a):\n    return a * a\n"
        assert source_parity(source, "f", (1 << 70,)) == (
            "error",
            "arithmetic overflow",
        )

    def test_int_not_callable(self):
        assert source_parity("def f(a):\n    return a()\n", "f", (3,)) == (
            "error",
            "int object is not callable",
        )

    def test_string_index_and_methods(self):
        source = """def f(s):
    return (s.upper(), s[1], s[::-1], s.find("b"))
"""
        assert source_parity(source, "f", ("abc",)) == (
            "ok",
            ("ABC", "b", "cba", 1),
            (),
        )

    def test_print_stdout_order(self):
        source = """def f(x):
    print("a", x)
    print([x, (x, True)], None)
    return x
"""
        assert source_parity(source, "f", (5,)) == (
            "ok",
            5,
            ("a 5", "[5, (5, True)] None"),
        )


class TestTopLevelState:
    SOURCE = """counter = [0]
def bump():
    counter.append(len(counter))
    return counter
"""

    def test_stateful_call_shares_state_like_interpreter(self):
        # Interpreter-compatible .call() does NOT reset top-level state.
        module = parse_program(self.SOURCE)
        interp = Interpreter(module)
        program = compile_program(module)
        for _ in range(3):
            expected = observe(lambda: interp.call("bump", ()))
            actual = observe(lambda: program.call("bump", ()))
            assert actual == expected
        assert interp.call("bump", ()).value == program.call("bump", ()).value

    def test_stateful_run_resets_like_fresh_interpreter(self):
        # RecordingInterpreter-compatible .run() rebuilds top-level state.
        module = parse_program(self.SOURCE)
        program = compile_program(module)
        first = program.run("bump", (), assignment={})
        second = program.run("bump", (), assignment={})
        assert first.value == second.value == [0, 1]

    def test_top_level_error_surfaces_per_run(self):
        module = parse_program("boom = 1 // 0\n")
        program = compile_program(module)
        with pytest.raises(MPYRuntimeError, match="division by zero"):
            program.run("anything", (), assignment={})
        # And again: the error is not latched.
        with pytest.raises(MPYRuntimeError, match="division by zero"):
            program.run("anything", (), assignment={})


class TestChoiceNodes:
    def _module_with_expr_choice(self):
        inner = ChoiceExpr(
            choices=(
                N.BinOp(op="+", left=N.Var(name="a"), right=N.IntLit(value=1)),
                N.BinOp(op="-", left=N.Var(name="a"), right=N.IntLit(value=1)),
            ),
            cid=0,
        )
        body = (N.Return(value=inner),)
        return N.Module(body=(N.FuncDef(name="f", params=("a",), body=body),))

    def test_choice_expr_branches_and_cube(self):
        module = self._module_with_expr_choice()
        program = compile_program(module)
        interp = RecordingInterpreter(module, {})
        for assignment in ({}, {0: 1}):
            expected = interp.run("f", (10,), assignment=assignment)
            actual = program.run("f", (10,), assignment=assignment)
            assert actual.value == expected.value
            assert program.cube() == interp.cube()

    def test_unknown_hole_in_assignment_is_ignored(self):
        module = self._module_with_expr_choice()
        program = compile_program(module)
        result = program.run("f", (10,), assignment={99: 1})
        assert result.value == 11
        assert program.cube() == {0: 0}

    def test_choice_stmt_branch_assigns_new_name(self):
        # A name bound only inside a non-default branch resolves to the
        # global/builtin scope until that branch actually assigns it —
        # the interpreter's dynamic-scoping corner the read chains mirror.
        branch0 = (N.Return(value=N.Var(name="a")),)
        branch1 = (
            N.Assign(target=N.Var(name="tmp"), value=N.IntLit(value=42)),
            N.Return(value=N.Var(name="tmp")),
        )
        choice = ChoiceStmt(choices=(branch0, branch1), cid=0)
        module = N.Module(
            body=(N.FuncDef(name="f", params=("a",), body=(choice,)),)
        )
        program = compile_program(module)
        interp = RecordingInterpreter(module, {})
        for assignment in ({}, {0: 1}):
            expected = interp.run("f", (5,), assignment=assignment)
            actual = program.run("f", (5,), assignment=assignment)
            assert actual.value == expected.value
            assert program.cube() == interp.cube() == {0: assignment.get(0, 0)}

    def test_choice_target_assignment(self):
        target = ChoiceExpr(
            choices=(N.Var(name="x"), N.Var(name="y")), cid=0
        )
        body = (
            N.Assign(target=N.Var(name="x"), value=N.IntLit(value=0)),
            N.Assign(target=N.Var(name="y"), value=N.IntLit(value=0)),
            N.Assign(target=target, value=N.IntLit(value=7)),
            N.Return(
                value=N.TupleLit(elts=(N.Var(name="x"), N.Var(name="y")))
            ),
        )
        module = N.Module(
            body=(N.FuncDef(name="f", params=(), body=body),)
        )
        program = compile_program(module)
        interp = RecordingInterpreter(module, {})
        for assignment, expected_value in (({}, (7, 0)), ({0: 1}, (0, 7))):
            expected = interp.run("f", (), assignment=assignment)
            actual = program.run("f", (), assignment=assignment)
            assert actual.value == expected.value == expected_value
            assert program.cube() == interp.cube()

    def test_zero_recompilation_candidate_switch(self):
        """Switching candidates must not recompile: same closure objects."""
        module = self._module_with_expr_choice()
        program = compile_program(module)
        top_before = program._top
        program.run("f", (1,), assignment={0: 1})
        program.run("f", (1,), assignment={})
        assert program._top is top_before

    def test_assignment_property_roundtrip(self):
        module = self._module_with_expr_choice()
        program = compile_program(module)
        program.set_assignment({0: 1})
        assert program.assignment == {0: 1}
        program.set_assignment({})
        assert program.assignment == {}


class TestCompiledProgramAPI:
    def test_missing_function_message(self):
        program = compile_program(parse_program("def f():\n    return 1\n"))
        with pytest.raises(MPYRuntimeError, match="name 'g' is not defined"):
            program.call("g", ())

    def test_args_are_cloned(self):
        program = compile_program(
            parse_program("def f(xs):\n    xs.append(9)\n    return xs\n")
        )
        args = [1, 2]
        assert program.call("f", (args,)).value == [1, 2, 9]
        assert args == [1, 2]

    def test_is_compiled_program(self):
        from repro.compile import BACKEND, make_executor

        with BACKEND.using("compiled"):
            executor = make_executor(
                parse_program("def f():\n    return 1\n"), fuel=100
            )
        assert isinstance(executor, CompiledProgram)
        assert executor.call("f", ()).value == 1
