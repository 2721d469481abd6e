"""Static analysis over error models and student submissions.

Three consumers, one layer:

- :mod:`repro.analysis.emllint` — authoring-time diagnostics over ``.eml``
  models (the ``repro-feedback lint`` verb and the registry-clean gate);
- :mod:`repro.analysis.triage` — the <5ms pre-grading pass that
  short-circuits statically-unfixable submissions at admission;
- :mod:`repro.analysis.coverage` — the post-grading join of corpus
  results against the static rule inventory (the ``coverage`` verb).
"""

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    LintReport,
)
from repro.analysis.coverage import (
    ProblemCoverage,
    RuleStat,
    coverage_from_results,
    render_coverage,
    run_coverage,
)
from repro.analysis.emllint import (
    lint_model,
    lint_problem,
    lint_registry,
    lint_source,
)
from repro.analysis.triage import TriageResult, triage_record, triage_submission

__all__ = [
    "Diagnostic",
    "LintReport",
    "ERROR",
    "INFO",
    "WARNING",
    "ProblemCoverage",
    "RuleStat",
    "coverage_from_results",
    "render_coverage",
    "run_coverage",
    "lint_model",
    "lint_problem",
    "lint_registry",
    "lint_source",
    "TriageResult",
    "triage_record",
    "triage_submission",
]
