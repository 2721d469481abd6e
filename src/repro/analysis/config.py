"""Static-analysis selection: triage on, or the pass-everything off state.

:data:`ANALYSIS` is set by the CLI's ``--analysis`` flag or the
``REPRO_ANALYSIS`` environment variable (see :mod:`repro.settings`), and
is **on** by default. Off means no pre-grading triage anywhere — every
submission takes the full grading path and produces records
byte-identical (via ``comparable_record``) to an analysis-on run for
everything triage would have passed through.

It gates the triage of :mod:`repro.analysis.triage` wherever a
submission is graded: in the server and the batch runner, and so in the
coverage reporter, which grades through the batch runner. The linter
(:mod:`repro.analysis.emllint`) ignores it.
"""

from __future__ import annotations

from repro.settings import Setting, switch

ANALYSIS = Setting("REPRO_ANALYSIS", switch("analysis"), True)
