"""Differential suite: a forker's path trie never changes a table.

A :class:`~repro.explore.PathForker` serves each path it has already run
for an input from its trie instead of running it again. This suite
grades real submissions (the search-identity cases, plus a second
submission of the stdout-compared ``compBal-stdin-6.00``) with a forker
that checks every table it returns against a fresh forker, whose trie
is empty, given the same call: the same leaves in the same order, the
same cube items in the same first-read order, and typed-equal outcomes.
Grading runs on the process default backend, so a run under
``REPRO_BACKEND=interp`` checks the tree-walker too. (That the trie is
reached at all is pinned by ``tests/sat/test_search_identity.py``'s
``forker_reused`` total.)
"""

import pytest

from repro.core.api import generate_feedback
from repro.engines import CegisMinEngine
from repro.explore import PathForker, typed_equal
from repro.problems import get_problem
from repro.studentgen.corpus import generate_corpus
from tests.sat.test_search_identity import CASES

#: Every identity case that explores, and a stdout-compared solve in
#: which 44% of the leaves repeat a path the solve already ran.
GRADED = [case for case in CASES if case[2].get("explorer", True)] + [
    ("compBal-stdin-6.00", 3, {}),
]


class CheckedForker(PathForker):
    """A forker that re-derives every table with an empty trie."""

    tables = 0
    leaves = 0
    reused = 0

    def explore(self, args, **options):
        table = super().explore(args, **options)
        fresh = PathForker(
            self.runner,
            self.arity,
            self.cost,
            compare_stdout=self.compare_stdout,
        ).explore(args, **options)
        assert fresh.runs == len(fresh)
        assert len(table) == len(fresh)
        for got, want in zip(table.leaves, fresh.leaves):
            assert list(got.cube.items()) == list(want.cube.items())
            assert typed_equal(got.outcome, want.outcome)
        CheckedForker.tables += 1
        CheckedForker.leaves += len(table)
        CheckedForker.reused += len(table) - table.runs
        return table


@pytest.fixture
def checked(monkeypatch):
    monkeypatch.setattr("repro.engines.base.PathForker", CheckedForker)
    monkeypatch.setattr(CheckedForker, "tables", 0)
    monkeypatch.setattr(CheckedForker, "leaves", 0)
    monkeypatch.setattr(CheckedForker, "reused", 0)
    return CheckedForker


@pytest.mark.parametrize("problem_name, index, options", GRADED)
def test_every_table_equals_a_fresh_forkers(
    checked, problem_name, index, options
):
    problem = get_problem(problem_name)
    corpus = generate_corpus(problem, incorrect_count=5, seed=0)
    result = generate_feedback(
        corpus.incorrect[index].source,
        problem.spec,
        problem.model,
        engine=CegisMinEngine(**options),
        timeout_s=120,
    ).engine_result
    assert result.status != "timeout"
    assert checked.tables > 0
    assert checked.leaves == result.stats["table_leaves"]
    assert checked.reused == result.stats["forker_reused"]

