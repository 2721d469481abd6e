"""Unit tests for the path forker and exploration tables.

Hand-built M̃PY spaces with known path structure: the suite pins the
replay contract (first-read order, path-dependent fan-out), the pruning
knobs (pinned / fork predicate / budget / max_leaves / deadline), the
table's trie lookup and the forker's own path trie — on both execution
backends.
"""

import time

import pytest

from repro.compile import COMPILED, INTERP
from repro.engines import CandidateSpace
from repro.explore import ERROR, OK, ExplorationLimit, PathForker, typed_equal
from repro.mpy import nodes as N
from repro.mpy import parse_expression
from repro.tilde.nodes import ChoiceExpr, HoleRegistry

BACKENDS = [COMPILED, INTERP]


def _choice(cid, *sources, free=False):
    return ChoiceExpr(
        choices=tuple(parse_expression(s) for s in sources),
        cid=cid,
        free=free,
    )


def _space(module, backend, fn="f", fuel=10_000):
    registry = HoleRegistry().rebuild_from(module)
    return CandidateSpace(
        module, fn, fuel, registry=registry, backend=backend
    )


def _fn(*stmts, params=("x",)):
    return N.Module(
        body=(N.FuncDef(name="f", params=params, body=tuple(stmts)),)
    )


def _flat(table):
    return [(list(leaf.cube.items()), leaf.outcome) for leaf in table.leaves]


def _fresh(space, args, **options):
    """The same exploration by a forker with an empty path trie."""
    forker = space.forker()
    return PathForker(
        forker.runner,
        forker.arity,
        forker.cost,
        compare_stdout=forker.compare_stdout,
    ).explore(args, **options)


#: ``f(x)``: the test choice decides which of two *different* holes the
#: run reads next — the canonical path-dependent fan-out.
BRANCHY = _fn(
    N.If(
        test=_choice(0, "x > 0", "x < 0"),
        body=(N.Return(value=_choice(1, "x", "x + 1", "x + 2")),),
        orelse=(N.Return(value=_choice(2, "0 - x", "x * x")),),
    )
)


#: ``f(x)``: four holes of four branches each, every one read on every
#: path — 256 leaves per input.
WIDE = _fn(
    N.Return(
        value=N.BinOp(
            op="+",
            left=N.BinOp(
                op="+",
                left=_choice(0, "x", "1", "2", "3"),
                right=_choice(1, "x", "1", "2", "3"),
            ),
            right=N.BinOp(
                op="+",
                left=_choice(2, "x", "1", "2", "3"),
                right=_choice(3, "x", "1", "2", "3"),
            ),
        )
    )
)


class TestForking:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leaves_partition_the_space(self, backend):
        space = _space(BRANCHY, backend)
        table = space.explore((1,))
        # x=1: branch 0 of hole 0 takes the then-arm (3 leaves over hole
        # 1); branch 1 takes the else-arm (2 leaves over hole 2).
        assert len(table) == 5
        cubes = [tuple(leaf.cube.items()) for leaf in table.leaves]
        assert len(set(cubes)) == 5
        # Hole 1 and hole 2 never appear in the same leaf.
        for leaf in table.leaves:
            assert not (1 in leaf.cube and 2 in leaf.cube)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_outcomes_are_the_real_runs(self, backend):
        space = _space(BRANCHY, backend)
        table = space.explore((1,))
        by_cube = {tuple(leaf.cube.items()): leaf.outcome for leaf in table.leaves}
        assert by_cube[((0, 0), (1, 0))] == (OK, 1, ())
        assert by_cube[((0, 0), (1, 2))] == (OK, 3, ())
        assert by_cube[((0, 1), (2, 1))] == (OK, 1, ())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lookup_classifies_any_assignment(self, backend):
        space = _space(BRANCHY, backend)
        table = space.explore((1,))
        for assignment, value in [
            ({}, 1),
            ({1: 1}, 2),
            ({0: 1}, -1),
            ({0: 1, 2: 1}, 1),
            ({0: 1, 2: 1, 1: 2}, 1),  # hole 1 inactive on this path
        ]:
            assert table.lookup(assignment) == (OK, value, ())
            # And the leaf cube matches what actually running records.
            space.outcome(assignment, (1,))
            assert table.leaf_for(assignment).cube == space.cube()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_restricts_the_region(self, backend):
        space = _space(BRANCHY, backend)
        table = space.explore((1,), pinned={0: 1})
        # Only the else-arm is reachable: two leaves over hole 2.
        assert len(table) == 2
        assert all(leaf.cube[0] == 1 for leaf in table.leaves)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fork_predicate_free_only(self, backend):
        module = _fn(
            N.Return(
                value=N.BinOp(
                    op="+",
                    left=_choice(0, "x", "x + 1"),
                    right=_choice(1, "0", "1", "2", free=True),
                )
            )
        )
        space = _space(module, backend)
        registry = space.registry
        free = {i.cid for i in registry.holes() if i.free}
        table = space.explore((5,), fork=free.__contains__)
        # Hole 0 stays at its (unpinned) default; hole 1 fans out.
        assert len(table) == 3
        assert [leaf.cube[1] for leaf in table.leaves] == [0, 1, 2]
        assert all(leaf.cube[0] == 0 for leaf in table.leaves)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_prunes_costly_branches(self, backend):
        module = _fn(
            N.Return(
                value=N.BinOp(
                    op="+",
                    left=_choice(0, "x", "x + 1"),
                    right=_choice(1, "0", "10"),
                )
            )
        )
        space = _space(module, backend)
        zero = space.explore((5,), budget=0)
        assert len(zero) == 1 and zero.leaves[0].outcome == (OK, 5, ())
        one = space.explore((5,), budget=1)
        # Default, {0:1}, {1:1} — but not the cost-2 combination.
        assert len(one) == 3
        assert one.lookup({0: 1, 1: 1}) is None  # beyond the budget
        full = space.explore((5,))
        assert len(full) == 4
        assert full.lookup({0: 1, 1: 1}) == (OK, 16, ())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_error_paths_are_leaves_too(self, backend):
        module = _fn(
            N.Return(value=_choice(0, "x", "x[0]")),
        )
        space = _space(module, backend)
        table = space.explore((3,))
        outcomes = {leaf.cube[0]: leaf.outcome for leaf in table.leaves}
        assert outcomes[0] == (OK, 3, ())
        assert outcomes[1] == (ERROR,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_holes_read_single_leaf(self, backend):
        module = _fn(N.Return(value=parse_expression("x + 1")))
        space = _space(module, backend)
        table = space.explore((2,))
        assert len(table) == 1
        assert table.leaves[0].cube == {}
        assert table.lookup({}) == (OK, 3, ())
        assert table.lookup({17: 1}) == (OK, 3, ())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_loops_read_holes_once_per_path(self, backend):
        # A hole inside a loop body is read many times but decided once.
        module = N.Module(
            body=(
                N.FuncDef(
                    name="f",
                    params=("x",),
                    body=(
                        N.Assign(
                            target=N.Var(name="total"),
                            value=N.IntLit(value=0),
                        ),
                        N.For(
                            target=N.Var(name="i"),
                            iter=parse_expression("range(x)"),
                            body=(
                                N.AugAssign(
                                    target=N.Var(name="total"),
                                    op="+",
                                    value=_choice(0, "i", "i + 1"),
                                ),
                            ),
                        ),
                        N.Return(value=N.Var(name="total")),
                    ),
                ),
            )
        )
        space = _space(module, backend)
        table = space.explore((3,))
        assert len(table) == 2
        assert table.lookup({}) == (OK, 3, ())
        assert table.lookup({0: 1}) == (OK, 6, ())


class TestStatefulModules:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_top_level_choice_reads_are_in_the_cube(self, backend):
        module = N.Module(
            body=(
                N.Assign(
                    target=N.Var(name="base"),
                    value=_choice(0, "10", "20"),
                ),
                N.FuncDef(
                    name="f",
                    params=("x",),
                    body=(N.Return(value=parse_expression("base + x")),),
                ),
            )
        )
        space = _space(module, backend)
        table = space.explore((1,))
        assert len(table) == 2
        assert table.lookup({}) == (OK, 11, ())
        assert table.lookup({0: 1}) == (OK, 21, ())
        assert all(0 in leaf.cube for leaf in table.leaves)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_candidate_cube_current_after_top_level_raise(self, backend):
        # Per-candidate runs (not just exploration) must report the
        # *failing* run's cube when module construction itself raises —
        # the engines block whatever cube() returns after a failure.
        module = N.Module(
            body=(
                N.Assign(
                    target=N.Var(name="base"),
                    value=_choice(0, "10", "10[0]"),
                ),
                N.FuncDef(
                    name="f",
                    params=("x",),
                    body=(N.Return(value=parse_expression("base + x")),),
                ),
            )
        )
        space = _space(module, backend)
        assert space.outcome({}, (1,)) == (OK, 11, ())
        assert space.cube() == {0: 0}
        assert space.outcome({0: 1}, (1,)) == (ERROR,)
        assert space.cube() == {0: 1}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_top_level_error_paths_keep_their_cube(self, backend):
        module = N.Module(
            body=(
                N.Assign(
                    target=N.Var(name="base"),
                    value=_choice(0, "10", "10[0]"),
                ),
                N.FuncDef(
                    name="f",
                    params=("x",),
                    body=(N.Return(value=parse_expression("base + x")),),
                ),
            )
        )
        space = _space(module, backend)
        table = space.explore((1,))
        outcomes = {leaf.cube[0]: leaf.outcome for leaf in table.leaves}
        assert outcomes[0] == (OK, 11, ())
        assert outcomes[1] == (ERROR,)


class TestLimits:
    def test_max_leaves_raises(self):
        space = _space(BRANCHY, COMPILED)
        with pytest.raises(ExplorationLimit):
            space.explore((1,), max_leaves=2)

    def test_deadline_raises(self):
        space = _space(WIDE, COMPILED)
        with pytest.raises(TimeoutError):
            space.explore((1,), deadline=time.monotonic() - 1.0)

    def test_explore_requires_registry(self):
        space = CandidateSpace(BRANCHY, "f", 1000)
        with pytest.raises(ValueError):
            space.explore((1,))


class TestPathTrie:
    """A forker runs each path of an input once; later explorations of
    the input take the paths they share with earlier ones from the trie,
    with the same tables."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_same_exploration_again_runs_nothing(self, backend):
        space = _space(BRANCHY, backend)
        first = space.explore((1,))
        again = space.explore((1,))
        assert (first.runs, again.runs) == (5, 0)
        assert _flat(again) == _flat(first)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_new_pin_reruns_only_the_paths_that_read_it(self, backend):
        space = _space(BRANCHY, backend)
        holes = {0, 1}.__contains__
        before = space.explore((1,), pinned={2: 0}, fork=holes)
        after = space.explore((1,), pinned={2: 1}, fork=holes)
        # Hole 2 is read only on the else-arm: one of the four paths.
        assert (len(before), before.runs) == (4, 4)
        assert (len(after), after.runs) == (4, 1)
        assert _flat(after) == _flat(
            _fresh(space, (1,), pinned={2: 1}, fork=holes)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_input_has_its_own_trie(self, backend):
        space = _space(BRANCHY, backend)
        space.explore((1,))
        other = space.explore((-1,))
        assert other.runs == len(other) == 5
        assert _flat(other) == _flat(_fresh(space, (-1,)))

    def test_a_past_deadline_raises_when_every_leaf_is_reused(self):
        space = _space(WIDE, COMPILED)
        assert space.explore((1,)).runs == 256
        with pytest.raises(TimeoutError):
            space.explore((1,), deadline=time.monotonic() - 1.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_program_that_reads_no_holes(self, backend):
        space = _space(_fn(N.Return(value=parse_expression("x + 1"))), backend)
        first = space.explore((2,))
        again = space.explore((2,))
        assert (first.runs, again.runs) == (1, 0)
        assert _flat(again) == [([], (OK, 3, ()))]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_branch_pinned_at_the_widest_arity(self, backend):
        # Hole 0 is the widest (five branches). Each pin of it must find
        # its own child slot of the root: with one slot too few per node,
        # pin 4 would read the next node's first slot, pin 0's leaf.
        module = _fn(
            N.Return(
                value=N.BinOp(
                    op="+",
                    left=_choice(0, "x", "x + 1", "x + 2", "x + 3", "x + 4"),
                    right=_choice(1, "0", "10"),
                )
            )
        )
        space = _space(module, backend)
        hole_1 = {1}.__contains__
        for branch in range(5):
            table = space.explore((1,), pinned={0: branch}, fork=hole_1)
            assert table.runs == 2
            assert [leaf.outcome for leaf in table.leaves] == [
                (OK, 1 + branch, ()),
                (OK, 11 + branch, ()),
            ]
        with pytest.raises(ValueError):
            space.explore((1,), pinned={0: 5})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reused_outcomes_keep_their_types(self, backend):
        # Equal outcomes share one copy, keyed by repr: True and 1, and a
        # list and a tuple, must stay apart.
        module = _fn(N.Return(value=_choice(0, "True", "1", "[x]", "(x,)")))
        space = _space(module, backend)
        first = space.explore((1,))
        again = space.explore((1,))
        assert again.runs == 0
        values = [leaf.outcome[1] for leaf in again.leaves]
        assert [type(v) for v in values] == [bool, int, list, tuple]
        assert all(
            typed_equal(a.outcome, b.outcome)
            for a, b in zip(first.leaves, again.leaves)
        )


class TestRegistryFreeExploration:
    def test_forker_runs_off_compiled_arities(self):
        """The compile layer alone carries everything unrestricted
        forking needs: run_recorded + cube + arities, no registry."""
        from repro.compile import compile_program

        program = compile_program(BRANCHY, fuel=10_000)

        class Runner:
            def run_recorded(self, args, assignment):
                return program.run_recorded("f", args, assignment)

            def cube(self):
                return program.cube()

        registry = HoleRegistry().rebuild_from(BRANCHY)
        assert program.arities == {
            i.cid: i.arity for i in registry.holes()
        }
        table = PathForker(Runner(), program.arities).explore((1,))
        assert len(table) == 5
        assert table.lookup({0: 1, 2: 1}) == (OK, 1, ())


class TestCrossBackend:
    def test_tables_identical_leaf_for_leaf(self):
        for args in [(3,), (0,), (-2,)]:
            tables = [
                _space(BRANCHY, backend).explore(args)
                for backend in BACKENDS
            ]
            flat = [
                [(tuple(leaf.cube.items()), leaf.outcome) for leaf in t.leaves]
                for t in tables
            ]
            assert flat[0] == flat[1]
