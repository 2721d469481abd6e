"""Fast-path fallbacks: compiled execution equals the recording interpreter.

The compiler inlines hot operator forms: choice operators, tuple
concatenation and indexing, augmented assignment, and the truth tests of
``if`` and ``while``. Each fast path must burn fuel where the borrowed
interpreter method would, raise the same message, and otherwise fall back
to that method. Every case here drives operands that leave a fast path
and checks outcome, message, cube (in first-read order) and remaining
fuel against ``RecordingInterpreter``, at a full budget and at every
smaller one, so an out-of-fuel error lands on the same step in both
backends. ``and`` / ``or`` keep the borrowed truth test and are checked
on the same values.
"""

from __future__ import annotations

import pytest

from tests.compile.difftools import observe

from repro.compile import compile_program
from repro.mpy import nodes as N
from repro.mpy import parse_program
from repro.mpy.interp import MAX_COLLECTION, _INT_MAGNITUDE_CAP
from repro.symbolic.recorder import RecordingInterpreter
from repro.tilde.nodes import ChoiceBinOp, ChoiceCompare, ChoiceExpr

FUEL = 500


def _plug(node, hole):
    """``node`` with every read of the name ``HOLE`` replaced by ``hole``."""
    if isinstance(node, N.Var) and node.name == "HOLE":
        return hole
    return N.map_children(node, lambda child: _plug(child, hole))


def _interp_run(module, fn, args, assignment, fuel):
    # Constructed inside the observed call, as the engines' interpreter
    # path does: a budget too small for the top level fails as an outcome.
    interp = RecordingInterpreter.__new__(RecordingInterpreter)

    def run():
        interp.__init__(module, dict(assignment), fuel=fuel)
        return interp.call(fn, args)

    outcome = observe(run)
    return outcome, list(interp.cube().items()), interp.fuel


def _compiled_run(module, fn, args, assignment, fuel):
    program = compile_program(module, fuel=fuel)
    outcome = observe(lambda: program.run_recorded(fn, args, assignment))
    return outcome, list(program.cube().items()), program.fuel


def assert_parity(module, fn, args, assignment=None):
    """Same outcome, message, ordered cube and fuel at every budget."""
    assignment = assignment or {}
    expected = _interp_run(module, fn, args, assignment, FUEL)
    used = FUEL - expected[2]
    assert used < FUEL, "case must finish inside the full budget"
    for fuel in [FUEL] + list(range(used, -1, -1)):
        expected = _interp_run(module, fn, args, assignment, fuel)
        actual = _compiled_run(module, fn, args, assignment, fuel)
        assert actual == expected, (
            f"{fn}{args} under {assignment} at fuel {fuel}: "
            f"interp={expected} compiled={actual}"
        )
        if fuel == FUEL:
            result = expected[0]
    return result


def _choice_compare(ops, left=None):
    return ChoiceCompare(
        ops=ops, left=left or N.Var(name="a"), right=N.Var(name="b"), cid=0
    )


def _choice_binop(ops, left=None):
    return ChoiceBinOp(
        ops=ops, left=left or N.Var(name="a"), right=N.Var(name="b"), cid=0
    )


def _returning(hole):
    return _plug(parse_program("def f(a, b):\n    return HOLE\n"), hole)


class TestTupleFastPaths:
    INDEX = parse_program("def f(t, i):\n    return t[i]\n")

    @pytest.mark.parametrize("i", [3, -4, 7, -9])
    def test_index_out_of_range_at_both_ends(self, i):
        outcome = assert_parity(self.INDEX, "f", ((1, 2, 3), i))
        assert outcome == ("error", "tuple index out of range")

    @pytest.mark.parametrize("i", [0, 2, -1, -3])
    def test_index_in_range(self, i):
        assert assert_parity(self.INDEX, "f", ((1, 2, 3), i))[0] == "ok"

    @pytest.mark.parametrize("i", [True, "x", 1.0])
    def test_index_of_other_type_falls_back(self, i):
        assert_parity(self.INDEX, "f", ((1, 2, 3), i))

    def test_concatenation_past_max_collection(self):
        module = parse_program(
            "def f(n):\n    t = (0,) * n\n    return t + t\n"
        )
        half = MAX_COLLECTION // 2
        assert assert_parity(module, "f", (half,))[0] == "ok"
        outcome = assert_parity(module, "f", (half + 1,))
        assert outcome == (
            "error",
            f"collection of size {2 * (half + 1)} exceeds bound",
        )

    @pytest.mark.parametrize("other", ["[1]", "1", "'s'"])
    def test_concatenation_with_other_type_falls_back(self, other):
        module = parse_program(f"def f(t):\n    return t + {other}\n")
        assert assert_parity(module, "f", ((1,),))[0] == "error"

    def test_one_element_tuples_accumulate(self):
        module = parse_program(
            "def f(t):\n"
            "    out = ()\n"
            "    for x in t:\n"
            "        out = out + (x,)\n"
            "    return out\n"
        )
        assert assert_parity(module, "f", ((4, 5, 6),)) == (
            "ok",
            (4, 5, 6),
            (),
        )


class TestChoiceOperators:
    ORDERED = ("<", ">=", "==", "!=", "in")

    @pytest.mark.parametrize("branch", range(5))
    @pytest.mark.parametrize(
        "args", [("x", 1), (1, "x"), (True, 1), (1.5, 2), (1, 2), ("a", "b")]
    )
    def test_ordered_compare_between_types(self, branch, args):
        module = _returning(_choice_compare(self.ORDERED))
        assert_parity(module, "f", args, {0: branch})

    def test_str_int_ordering_message(self):
        module = _returning(_choice_compare(self.ORDERED))
        outcome = assert_parity(module, "f", ("x", 1), {0: 0})
        assert outcome == (
            "error",
            "'<' not supported between instances of str and int",
        )

    ARITH = ("*", "+", "-", "//", "%", "/")

    @pytest.mark.parametrize("branch", range(6))
    @pytest.mark.parametrize(
        "args",
        [
            (_INT_MAGNITUDE_CAP + 1, 2),
            (2, -_INT_MAGNITUDE_CAP - 1),
            (_INT_MAGNITUDE_CAP, 2),
            (7, 0),
            (7.0, 0),
            (True, 0),
            (7, 2),
            ((1,), (2,)),
            ("s", 3),
        ],
    )
    def test_arithmetic_operands_leaving_the_int_path(self, branch, args):
        module = _returning(_choice_binop(self.ARITH))
        assert_parity(module, "f", args, {0: branch})

    def test_multiplication_past_the_magnitude_cap(self):
        module = _returning(_choice_binop(self.ARITH))
        outcome = assert_parity(
            module, "f", (_INT_MAGNITUDE_CAP + 1, 2), {0: 0}
        )
        assert outcome == ("error", "arithmetic overflow")

    @pytest.mark.parametrize("branch", [3, 4, 5])
    def test_division_and_modulo_by_zero(self, branch):
        module = _returning(_choice_binop(self.ARITH))
        outcome = assert_parity(module, "f", (7, 0), {0: branch})
        assert outcome == ("error", "division by zero")

    @pytest.mark.parametrize("branch", [0, 1])
    def test_hole_is_read_before_the_operands(self, branch):
        # The left operand holds a second hole and can raise: the
        # operator hole must come first in the cube either way.
        inner = ChoiceExpr(
            choices=(N.Var(name="a"), N.Index(obj=N.Var(name="a"),
                                              index=N.IntLit(value=5))),
            cid=1,
        )
        for hole in (
            _choice_compare(("<", "=="), left=inner),
            _choice_binop(("+", "*"), left=inner),
        ):
            module = _returning(hole)
            for inner_branch in (0, 1):
                assert_parity(
                    module, "f", ([1], [2]), {0: branch, 1: inner_branch}
                )


class TestAugmentedAssignment:
    @pytest.mark.parametrize("op", ["-=", "*=", "//=", "%=", "/="])
    @pytest.mark.parametrize(
        "args",
        [
            (True, 1),
            (1, True),
            (1.5, 2),
            (2, 1.5),
            (7, 0),
            (_INT_MAGNITUDE_CAP + 1, 3),
            ("s", 2),
            ([1], 2),
        ],
    )
    def test_local_target(self, op, args):
        module = parse_program(
            f"def f(x, y):\n    x {op} y\n    return x\n"
        )
        assert_parity(module, "f", args)

    @pytest.mark.parametrize("op", ["-=", "*="])
    @pytest.mark.parametrize("value", [True, 2.5, 3])
    def test_subscript_target(self, op, value):
        module = parse_program(
            f"def f(xs, y):\n    xs[1] {op} y\n    return xs\n"
        )
        assert_parity(module, "f", ([4, False, 6.5], value))

    def test_choice_target_and_value(self):
        target = ChoiceExpr(choices=(N.Var(name="x"), N.Var(name="y")), cid=0)
        value = ChoiceExpr(
            choices=(N.IntLit(value=2), N.BoolLit(value=True),
                     N.Var(name="x")),
            cid=1,
        )
        body = (
            N.Assign(target=N.Var(name="y"), value=N.IntLit(value=5)),
            N.AugAssign(op="*", target=target, value=value),
            N.AugAssign(op="-", target=target, value=value),
            N.Return(value=N.TupleLit(elts=(N.Var(name="x"),
                                            N.Var(name="y")))),
        )
        module = N.Module(
            body=(N.FuncDef(name="f", params=("x",), body=body),)
        )
        for x in (True, 1.5, 4):
            for assignment in ({}, {0: 1}, {1: 1}, {0: 1, 1: 2}):
                assert_parity(module, "f", (x,), assignment)


class TestTruthTests:
    """``if``/``while``/``and``/``or`` on values that are not bools."""

    VALUES = ChoiceExpr(
        choices=(
            N.NoneLit(),
            N.ListLit(elts=()),
            N.ListLit(elts=(N.IntLit(value=0),)),
            N.Var(name="g"),
            N.IntLit(value=0),
            N.StrLit(value=""),
            N.BoolLit(value=True),
            N.BoolLit(value=False),
        ),
        cid=0,
    )
    SOURCES = {
        "if": "def f():\n    if HOLE:\n        return 1\n    return 2\n",
        "while": (
            "def f():\n"
            "    n = 0\n"
            "    while HOLE:\n"
            "        n += 1\n"
            "        if n > 2:\n"
            "            break\n"
            "    return n\n"
        ),
        "and": "def f():\n    return HOLE and 1\n",
        "or": "def f():\n    return HOLE or 1\n",
    }

    @pytest.mark.parametrize("form", list(SOURCES))
    @pytest.mark.parametrize("branch", range(8))
    def test_truth_of_value(self, form, branch):
        source = "def g():\n    return 0\n\n" + self.SOURCES[form]
        module = _plug(parse_program(source), self.VALUES)
        outcome = assert_parity(module, "f", (), {0: branch})
        if branch == 3:
            assert outcome == ("error", "cannot convert function to bool")
