"""The triage contract: zero false positives, byte-identical otherwise.

Three guarantees, in increasing cost:

1. **Soundness sweep** — every submission of every registry problem's
   studentgen corpus is triaged; any short-circuit verdict must agree
   with the real engine (``generate_feedback`` finds no fix).
2. **Byte identity** — the batch runner, which triages, and
   ``generate_feedback``, which never does, grade the same corpus with
   the same verifier and budget: every record triage passed through is
   ``comparable_record``-identical, and every ``static`` one is a
   short-circuit verdict the engine answers ``no_fix`` or ``timeout``.
3. **Pool smoke** — the ``jobs=2`` process-pool path produces the same
   static verdicts as the serial path.
"""

import pytest

from repro.analysis import triage_submission
from repro.analysis.triage import SHORT_CIRCUIT_VERDICTS
from repro.core.api import generate_feedback
from repro.engines.verify import BoundedVerifier
from repro.problems import all_problems, get_problem
from repro.service.records import (
    STATIC,
    comparable_record,
    report_to_record,
)
from repro.service.runner import BatchItem, BatchRunner
from repro.studentgen.corpus import generate_corpus


def corpus_items(problem, count=8, seed=0):
    corpus = generate_corpus(problem, incorrect_count=count, seed=seed)
    submissions = corpus.incorrect + corpus.correct + corpus.syntax_errors
    return [
        BatchItem(sid=f"{sub.origin}{index:03d}", source=sub.source)
        for index, sub in enumerate(submissions)
    ]


# -- 1. soundness sweep over the whole registry -------------------------------


@pytest.mark.parametrize(
    "name", [problem.name for problem in all_problems()]
)
def test_no_false_positives_on_studentgen_corpus(name):
    """Every short-circuit verdict must be one the engine agrees with.

    Triage is <5ms per submission, so sweeping every registry problem's
    corpus is cheap; the expensive engine check only runs for the (rare)
    submissions triage actually claims.
    """
    problem = get_problem(name)
    verifier = BoundedVerifier(problem.spec)
    claimed = []
    for item in corpus_items(problem):
        result = triage_submission(
            item.source, problem.spec, problem.model, verifier
        )
        if result is not None and result.verdict in SHORT_CIRCUIT_VERDICTS:
            claimed.append((item.sid, item.source, result.verdict))
    for sid, source, verdict in claimed:
        report = generate_feedback(
            source, problem.spec, problem.model, timeout_s=30,
            verifier=verifier,
        )
        assert report.status in ("no_fix", "timeout"), (
            f"{name}/{sid}: triage said {verdict} but engine "
            f"returned {report.status}"
        )


# -- 2. byte identity on every non-triaged path -------------------------------

IDENTITY_PROBLEMS = ("oddTuples-6.00", "iterPower-6.00x")


@pytest.mark.parametrize("name", IDENTITY_PROBLEMS)
def test_triaged_records_match_the_untriaged_path(name):
    problem = get_problem(name)
    items = corpus_items(problem, count=4)
    verifier = BoundedVerifier(problem.spec)
    rows = BatchRunner(problem, timeout_s=20, verifier=verifier).run(items)
    assert [r.sid for r in rows] == [item.sid for item in items]
    # A duplicate carries its first copy's report verbatim, so each row
    # is compared with a direct grading of its key's first copy.
    first_copy = {}
    for row, item in zip(rows, items):
        first_copy.setdefault(row.canonical, item.source)
    direct = {
        key: generate_feedback(
            source, problem.spec, problem.model, timeout_s=20,
            verifier=verifier,
        )
        for key, source in first_copy.items()
    }
    for row in rows:
        report = direct[row.canonical]
        if row.report.status == STATIC:
            # The one permitted divergence: triage short-circuited, and
            # only with a verdict the engine agrees means unfixable.
            assert report.status in ("no_fix", "timeout"), row.sid
            assert row.report.triage["verdict"] in SHORT_CIRCUIT_VERDICTS
            continue
        assert comparable_record(
            report_to_record(row.report)
        ) == comparable_record(report_to_record(report)), row.sid


# -- 3. the process-pool worker path ------------------------------------------

UNBOUND = """def oddTuples(aTup):
  result = len(resutl)
  return aTup
"""


def test_pool_workers_triage_like_serial():
    problem = get_problem("oddTuples-6.00")
    items = [
        BatchItem(sid="unbound", source=UNBOUND),
        BatchItem(
            sid="correct", source=problem.spec.reference_source
        ),
    ]
    serial = BatchRunner(problem, timeout_s=20).run(items)
    pooled = BatchRunner(problem, jobs=2, timeout_s=20).run(items)
    by_sid = lambda rows: {r.sid: r.report for r in rows}
    s, p = by_sid(serial), by_sid(pooled)
    assert s["unbound"].status == STATIC
    assert p["unbound"].status == STATIC
    assert (
        s["unbound"].triage["verdict"]
        == p["unbound"].triage["verdict"]
        == "unbound_name"
    )
    assert s["correct"].status == "already_correct"
    assert p["correct"].status == "already_correct"
