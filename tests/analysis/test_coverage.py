"""Rule-coverage reporter: the join, the runner path, and the rendering."""

from dataclasses import dataclass

from repro.analysis import (
    coverage_from_results,
    render_coverage,
    run_coverage,
)
from repro.core.api import FeedbackReport
from repro.core.feedback import FeedbackItem
from repro.problems import get_problem


@dataclass
class FakeResult:
    sid: str
    report: FeedbackReport
    cached: bool = False


def make_report(status, rules=(), wall_time=1.0):
    return FeedbackReport(
        status=status,
        problem="p",
        items=[
            FeedbackItem(
                line=1, rule=rule, kind="expression",
                original="a", replacement="b", message="m",
            )
            for rule in rules
        ],
        wall_time=wall_time,
    )


PROBLEM = get_problem("oddTuples-6.00")


def test_join_counts_fired_and_never_fired():
    model = PROBLEM.model  # COMPR INDR RANR1 AUGSUB RETV
    results = [
        FakeResult("a", make_report("fixed", rules=("INDR",))),
        FakeResult("b", make_report("fixed", rules=("INDR", "RETV"))),
        FakeResult("c", make_report("no_fix")),
        FakeResult("d", make_report("already_correct")),
        FakeResult("e", make_report("syntax_error")),
        FakeResult("f", make_report("static")),
    ]
    cov = coverage_from_results(PROBLEM.name, model, results)
    assert cov.total == 6
    assert cov.fixed == 2
    # fixed + no_fix + static; correct and syntax are excluded.
    assert cov.attempted == 4
    assert cov.fix_rate == 0.5
    by_rule = {stat.rule: stat for stat in cov.rules}
    assert by_rule["INDR"].submissions == 2
    assert by_rule["INDR"].firings == 2
    assert by_rule["RETV"].submissions == 1
    assert set(cov.never_fired) == {"COMPR", "RANR1", "AUGSUB"}
    assert cov.unfixable == ("c", "f")


def test_join_counts_repeat_firings_once_per_submission():
    cov = coverage_from_results(
        PROBLEM.name,
        PROBLEM.model,
        [FakeResult("a", make_report("fixed", rules=("INDR", "INDR")))],
    )
    by_rule = {stat.rule: stat for stat in cov.rules}
    assert by_rule["INDR"].submissions == 1
    assert by_rule["INDR"].firings == 2


def test_join_keeps_unknown_rule_names():
    # A stale cache entry can name a rule the current model dropped; the
    # join must surface it, not crash or silently drop it.
    cov = coverage_from_results(
        PROBLEM.name,
        PROBLEM.model,
        [FakeResult("a", make_report("fixed", rules=("GHOST",)))],
    )
    assert any(stat.rule == "GHOST" for stat in cov.rules)


def test_avg_time_skips_cached_results():
    cov = coverage_from_results(
        PROBLEM.name,
        PROBLEM.model,
        [
            FakeResult("a", make_report("fixed", wall_time=2.0)),
            FakeResult("b", make_report("fixed", wall_time=99.0), cached=True),
        ],
    )
    assert cov.avg_time_s == 2.0


def test_run_coverage_on_studentgen_corpus():
    cov = run_coverage(PROBLEM, count=6, timeout_s=20)
    assert cov.total >= 6
    assert cov.attempted >= 6
    assert 0.0 <= cov.fix_rate <= 1.0
    inventory = {rule.name for rule in PROBLEM.model.rules}
    assert {stat.rule for stat in cov.rules} >= set(cov.never_fired)
    assert set(cov.never_fired) <= inventory
    payload = cov.to_json()
    assert payload["problem"] == PROBLEM.name
    assert payload["total"] == cov.total


def test_run_coverage_with_explicit_sources():
    cov = run_coverage(
        PROBLEM,
        sources=[
            ("ok.py", PROBLEM.spec.reference_source),
            ("bad.py", "def oddTuples(aTup):\n  return aTup[0]\n"),
        ],
        timeout_s=20,
    )
    assert cov.total == 2
    assert cov.by_status.get("already_correct") == 1


def test_run_coverage_triages():
    # The coverage verb grades through the batch runner, which triages:
    # an unbound name is a static verdict, not a grading.
    unbound = "def oddTuples(aTup):\n  result = len(resutl)\n  return aTup\n"
    sources = [("unbound.py", unbound)]
    cov = run_coverage(PROBLEM, sources=sources, timeout_s=20)
    assert cov.by_status == {"static": 1}


def test_render_coverage_table():
    cov = coverage_from_results(
        PROBLEM.name,
        PROBLEM.model,
        [
            FakeResult("a", make_report("fixed", rules=("INDR",))),
            FakeResult("b", make_report("no_fix")),
        ],
    )
    text = render_coverage([cov])
    assert PROBLEM.name in text
    assert "fix%" in text
    assert "never fired" in text
    assert "INDR" in text
