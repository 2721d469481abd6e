"""FeedbackService × triage: admission short-circuit and caching."""

import pytest

from repro.problems import get_problem
from repro.server import FeedbackService, warm_registry
from repro.service import GradingConfig
from repro.service.records import STATIC

PROBLEM = get_problem("oddTuples-6.00")

UNBOUND = """def oddTuples(aTup):
  result = len(resutl)
  return aTup
"""

FIXABLE = """def oddTuples(aTup):
  result = ()
  for i in range(len(aTup)):
    if i % 2 == 1:
      result = result + (aTup[i],)
  return result
"""


@pytest.fixture(scope="module")
def warmup():
    return warm_registry(names=["oddTuples-6.00"])


def make_service(warmup, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("queue_limit", 4)
    kwargs.setdefault("config", GradingConfig(timeout_s=20.0))
    return FeedbackService(warmup=warmup, **kwargs)


class TestTriageAdmission:
    def test_static_verdict_short_circuits_grading(self, warmup):
        service = make_service(warmup)
        outcome = service.grade("oddTuples-6.00", UNBOUND)
        assert outcome.record["status"] == STATIC
        assert outcome.record["triage"]["verdict"] == "unbound_name"
        assert ":static:" in outcome.key
        stats = service.stats()
        assert stats["triaged"] == 1
        assert stats["graded"] == 0

    def test_static_record_is_cached_under_static_key(self, warmup):
        service = make_service(warmup)
        first = service.grade("oddTuples-6.00", UNBOUND)
        again = service.grade("oddTuples-6.00", UNBOUND)
        assert again.cached
        assert again.key == first.key
        assert again.record == first.record
        stats = service.stats()
        assert stats["triaged"] == 1
        assert stats["cache_hits"] == 1

    def test_fixable_submission_is_not_touched(self, warmup):
        service = make_service(warmup)
        outcome = service.grade("oddTuples-6.00", FIXABLE)
        assert outcome.record["status"] == "fixed"
        assert outcome.record.get("triage") is None
        assert service.stats()["triaged"] == 0

    def test_metrics_expose_triage(self, warmup):
        service = make_service(warmup)
        service.grade("oddTuples-6.00", UNBOUND)
        text = service.metrics_text()
        # The registry is process-global, so assert presence, not counts.
        assert 'repro_triage_total{verdict="unbound_name"}' in text
        assert 'stage="triage"' in text

    def test_retired_analysis_env_var_is_inert(self, warmup, monkeypatch):
        # Triage is always on; REPRO_ANALYSIS=off once turned it off.
        monkeypatch.setenv("REPRO_ANALYSIS", "off")
        service = make_service(warmup)
        outcome = service.grade("oddTuples-6.00", UNBOUND)
        assert outcome.record["status"] == STATIC
        stats = service.stats()
        assert stats["triaged"] == 1
        assert "analysis" not in stats and "explorer" not in stats

