"""Tests for the hole-recording interpreter.

The single-candidate cases run through a :class:`CandidateSpace` on
both execution backends: the recording interpreter and the compiled
program must read, and record, the same holes.
"""

from repro.compile import BACKEND, BACKENDS
from repro.engines import CandidateSpace
from repro.mpy import nodes as N
from repro.mpy import parse_expression, parse_program
from repro.mpy.interp import DEFAULT_FUEL
from repro.symbolic import RecordingInterpreter
from repro.tilde import ChoiceCompare, ChoiceExpr, ChoiceStmt


def run_candidate(module, function, args, assignment):
    """``(result, cube)`` of one run on a fresh candidate space, the
    same on every backend."""
    runs = []
    for backend in BACKENDS:
        with BACKEND.using(backend):
            space = CandidateSpace(module, function, DEFAULT_FUEL)
        runs.append((space.run(assignment, args), space.cube()))
    compiled, interp = runs
    assert compiled == interp
    return compiled


def _choice(cid, *sources, free=False):
    return ChoiceExpr(
        choices=tuple(parse_expression(s) for s in sources), cid=cid, free=free
    )


def _module_with_return(expr):
    return N.Module(
        body=(N.FuncDef(name="f", params=("x",), body=(N.Return(value=expr),)),)
    )


class TestRecording:
    def test_default_assignment(self):
        module = _module_with_return(_choice(0, "x", "x + 1"))
        result, cube = run_candidate(module, "f", (5,), {})
        assert result.value == 5
        assert cube == {0: 0}

    def test_alternative_branch(self):
        module = _module_with_return(_choice(0, "x", "x + 1"))
        result, cube = run_candidate(module, "f", (5,), {0: 1})
        assert result.value == 6
        assert cube == {0: 1}

    def test_unreached_hole_not_recorded(self):
        # The hole sits in a branch the input never executes.
        source_body = (
            N.If(
                test=parse_expression("x > 0"),
                body=(N.Return(value=_choice(0, "x", "x + 1")),),
                orelse=(N.Return(value=parse_expression("0 - x")),),
            ),
        )
        module = N.Module(
            body=(N.FuncDef(name="f", params=("x",), body=source_body),)
        )
        result, cube = run_candidate(module, "f", (-3,), {0: 1})
        assert result.value == 3
        assert cube == {}  # correction irrelevant for this input

    def test_choice_compare_recorded(self):
        node = ChoiceCompare(
            ops=(">=", "!="),
            left=parse_expression("x"),
            right=parse_expression("0"),
            cid=7,
        )
        module = _module_with_return(node)
        result, cube = run_candidate(module, "f", (0,), {7: 1})
        assert result.value is False  # 0 != 0
        assert cube == {7: 1}

    def test_choice_stmt_splicing(self):
        base = parse_program("if x == 0:\n    return -1\n").body[0]
        stmt = ChoiceStmt(choices=((), (base,)), cid=3)
        module = N.Module(
            body=(
                N.FuncDef(
                    name="f",
                    params=("x",),
                    body=(stmt, N.Return(value=parse_expression("x"))),
                ),
            )
        )
        result, cube = run_candidate(module, "f", (0,), {3: 1})
        assert result.value == -1
        assert cube == {3: 1}
        result, cube = run_candidate(module, "f", (0,), {})
        assert result.value == 0
        assert cube == {3: 0}

    def test_error_run_keeps_partial_cube(self):
        # The first hole is read, then the run crashes before the second.
        first = _choice(0, "x", "x + 1")
        module = N.Module(
            body=(
                N.FuncDef(
                    name="f",
                    params=("x",),
                    body=(
                        N.Assign(target=N.Var("y"), value=first),
                        N.Return(
                            value=N.Index(
                                obj=N.ListLit(()), index=_choice(1, "0", "1")
                            )
                        ),
                    ),
                ),
            )
        )
        interp = RecordingInterpreter(module, {0: 1, 1: 1})
        try:
            interp.run("f", (2,))
        except Exception:
            pass
        # Both holes were read before the index error surfaced.
        assert interp.cube() == {0: 1, 1: 1}

    def test_run_resets_cube(self):
        module = _module_with_return(_choice(0, "x", "x + 1"))
        interp = RecordingInterpreter(module, {})
        interp.run("f", (1,))
        interp.run("f", (2,), assignment={0: 1})
        assert interp.cube() == {0: 1}

    def test_loop_reads_hole_once_per_semantics(self):
        # A hole inside a loop body is read every iteration but the cube
        # records a single consistent branch.
        body = (
            N.Assign(target=N.Var("s"), value=parse_expression("0")),
            N.For(
                target=N.Var("i"),
                iter=parse_expression("range(3)"),
                body=(
                    N.AugAssign(
                        target=N.Var("s"), op="+", value=_choice(0, "i", "1")
                    ),
                ),
            ),
            N.Return(value=N.Var("s")),
        )
        module = N.Module(body=(N.FuncDef(name="f", params=("x",), body=body),))
        result, cube = run_candidate(module, "f", (0,), {})
        assert result.value == 3  # 0+1+2
        assert cube == {0: 0}
        result, cube = run_candidate(module, "f", (0,), {0: 1})
        assert result.value == 3  # 1+1+1
        assert cube == {0: 1}
