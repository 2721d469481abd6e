"""Rule-coverage reporting: which model rules earn their keep.

The paper's Table 1 reports, per assignment, how many incorrect attempts
the tool generated feedback for. This module reproduces that view *and*
joins it against the static rule inventory: after grading a corpus, every
:class:`~repro.core.feedback.FeedbackItem` names the rule that produced
it, so the join tells an instructor which rules actually fire on student
code, which never do (candidates for deletion — see
:func:`repro.analysis.emllint.lint_model`'s ``dead-rule`` check, the
static half of the same question), and which submissions no rule
combination could fix.

Two entry points:

- :func:`coverage_from_results` — the pure join, given already-graded
  :class:`~repro.service.runner.BatchResult` rows;
- :func:`run_coverage` — grade a corpus (submission files, or the
  deterministic studentgen corpus when none is given) through the
  ordinary :class:`~repro.service.runner.BatchRunner` and join.

Rendering mirrors Table 1: one row per problem with counts by outcome
and the fix rate over incorrect attempts, followed by the per-rule
firing table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eml.rules import ErrorModel
from repro.engines import DEFAULT_ENGINE, DEFAULT_TIMEOUT_S
from repro.problems.registry import Problem

#: Statuses that count as "incorrect attempt the tool tried to fix", the
#: fix-rate denominator. Those that never reached the solver
#: (``syntax_error``, ``unsupported``, ``bad_signature``) are left out,
#: matching the paper's test-set preparation (Table 1 counts *compiling,
#: incorrect* attempts).
_ATTEMPTED = ("fixed", "no_fix", "timeout", "static", "error", "degraded")


@dataclass
class RuleStat:
    """Firing statistics for one rule of the model."""

    rule: str
    #: Submissions whose feedback used this rule at least once.
    submissions: int = 0
    #: Total feedback items attributed to this rule.
    firings: int = 0


@dataclass
class ProblemCoverage:
    """The coverage join for one problem's graded corpus."""

    problem: str
    total: int
    by_status: Dict[str, int]
    rules: List[RuleStat]
    #: Rules in the model that produced no feedback item on any graded
    #: submission of this corpus.
    never_fired: Tuple[str, ...]
    #: Submission ids the tool attempted but could not fix (``no_fix``,
    #: ``static``, ``timeout`` — the paper's unfixed population).
    unfixable: Tuple[str, ...]
    #: Mean grading wall time over non-cached gradings (seconds).
    avg_time_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.by_status.get(status, 0) for status in _ATTEMPTED)

    @property
    def fixed(self) -> int:
        return self.by_status.get("fixed", 0)

    @property
    def fix_rate(self) -> float:
        """Fraction of attempted (incorrect, compiling) submissions
        fixed — the paper's "% of feedback generated" column."""
        attempted = self.attempted
        return (self.fixed / attempted) if attempted else 0.0

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "total": self.total,
            "by_status": dict(self.by_status),
            "attempted": self.attempted,
            "fixed": self.fixed,
            "fix_rate": round(self.fix_rate, 4),
            "avg_time_s": round(self.avg_time_s, 4),
            "rules": [
                {
                    "rule": stat.rule,
                    "submissions": stat.submissions,
                    "firings": stat.firings,
                }
                for stat in self.rules
            ],
            "never_fired": list(self.never_fired),
            "unfixable": list(self.unfixable),
        }


def coverage_from_results(
    problem_name: str,
    model: ErrorModel,
    results: Sequence,
) -> ProblemCoverage:
    """Join graded :class:`BatchResult` rows against the rule inventory.

    ``results`` rows need ``sid`` and ``report`` attributes (the runner's
    shape); anything else duck-types in.
    """
    inventory = [rule.name for rule in model.rules]
    stats: Dict[str, RuleStat] = {
        name: RuleStat(rule=name) for name in inventory
    }
    by_status: Dict[str, int] = {}
    unfixable: List[str] = []
    graded_times: List[float] = []
    for row in results:
        report = row.report
        status = report.status
        by_status[status] = by_status.get(status, 0) + 1
        if status in ("no_fix", "static", "timeout"):
            unfixable.append(row.sid)
        if not getattr(row, "cached", False):
            graded_times.append(report.wall_time)
        seen_here = set()
        for item in report.items:
            stat = stats.get(item.rule)
            if stat is None:
                # A rule name the current model does not know (stale
                # cache entry from an edited model) still deserves a row
                # rather than a silent drop.
                stat = stats[item.rule] = RuleStat(rule=item.rule)
            stat.firings += 1
            if item.rule not in seen_here:
                stat.submissions += 1
                seen_here.add(item.rule)
    never = tuple(
        name for name in inventory if stats[name].submissions == 0
    )
    ordered = sorted(
        stats.values(), key=lambda s: (-s.submissions, -s.firings, s.rule)
    )
    return ProblemCoverage(
        problem=problem_name,
        total=len(results),
        by_status=by_status,
        rules=ordered,
        never_fired=never,
        unfixable=tuple(unfixable),
        avg_time_s=(
            sum(graded_times) / len(graded_times) if graded_times else 0.0
        ),
    )


def run_coverage(
    problem: Problem,
    sources: Optional[Sequence[Tuple[str, str]]] = None,
    jobs: int = 1,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    engine: str = DEFAULT_ENGINE,
    seed: int = 0,
    count: int = 24,
    cache: Optional[Any] = None,
) -> ProblemCoverage:
    """Grade a corpus and return its coverage join.

    ``sources`` is ``[(sid, source), ...]``; when omitted the
    deterministic studentgen corpus (``seed``, ``count`` incorrect
    submissions) stands in — the same population the integration suite
    grades.
    """
    from repro.service.runner import BatchItem, BatchRunner

    if sources is None:
        from repro.studentgen.corpus import generate_corpus

        corpus = generate_corpus(
            problem, incorrect_count=count, seed=seed
        )
        submissions = (
            corpus.incorrect + corpus.correct + corpus.syntax_errors
        )
        items = [
            BatchItem(sid=f"{sub.origin}{index:03d}", source=sub.source)
            for index, sub in enumerate(submissions)
        ]
    else:
        items = [
            BatchItem(sid=sid, source=source) for sid, source in sources
        ]
    runner = BatchRunner(
        problem,
        jobs=jobs,
        timeout_s=timeout_s,
        engine=engine,
        cache=cache,
    )
    results = runner.run(items)
    return coverage_from_results(problem.name, runner.model, results)


# -- rendering ----------------------------------------------------------------


def render_coverage(reports: Sequence[ProblemCoverage]) -> str:
    """The Table-1-style text view over one or more problems."""
    lines: List[str] = []
    header = (
        f"{'problem':<24} {'total':>5} {'attempted':>9} {'fixed':>5} "
        f"{'fix%':>6} {'avg s':>7}  rules fired/total"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for report in reports:
        fired = sum(1 for stat in report.rules if stat.submissions)
        lines.append(
            f"{report.problem:<24} {report.total:>5} "
            f"{report.attempted:>9} {report.fixed:>5} "
            f"{100.0 * report.fix_rate:>5.1f}% "
            f"{report.avg_time_s:>7.2f}  {fired}/{len(report.rules)}"
        )
    for report in reports:
        lines.append("")
        lines.append(f"{report.problem}: rule firings")
        for stat in report.rules:
            lines.append(
                f"  {stat.rule:<16} {stat.submissions:>4} submissions "
                f"{stat.firings:>5} firings"
            )
        if report.never_fired:
            lines.append(
                "  never fired: " + ", ".join(report.never_fired)
            )
        if report.unfixable:
            lines.append(
                f"  unfixable ({len(report.unfixable)}): "
                + ", ".join(report.unfixable[:8])
                + (" ..." if len(report.unfixable) > 8 else "")
            )
    return "\n".join(lines)
