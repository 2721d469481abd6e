"""FeedbackService concurrency tests: admission, dedup, drain, cache.

The grading-independent behaviors are tested with a *controllable* fake
grader (threads parked on events, so overlap is deterministic, not
timing-dependent); the cache-sharing test grades for real under a thread
pool.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.problems import get_problem
from repro.server import (
    FeedbackService,
    QueueFull,
    ServiceClosed,
    UnknownProblem,
    warm_registry,
)
from repro.service import BatchRunner, GradingConfig
from repro.service import workers as workers_mod
from repro.service.store import ResultStore, StoreClient

PROBLEM = get_problem("iterPower-6.00x")

BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""

#: BUGGY with locals renamed: same canonical form, same cache key.
BUGGY_RENAMED = """def iterPower(b, e):
    acc = 0
    for j in range(e):
        acc = acc * b
    return acc
"""

CORRECT = """def iterPower(base, exp):
    result = 1
    for i in range(exp):
        result = result * base
    return result
"""


@pytest.fixture(scope="module")
def warmup():
    return warm_registry(names=["iterPower-6.00x"])


def make_service(warmup, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("queue_limit", 4)
    kwargs.setdefault("config", GradingConfig(timeout_s=20.0))
    return FeedbackService(warmup=warmup, **kwargs)


class _BlockingGrader:
    """Replaces ``generate_feedback`` with a gate the test controls.

    Patches ``workers.generate_feedback`` — the seam under
    ``grade_record``, which both executors run. Services under a fake
    grader must still pin ``executor="thread"``: the patched function
    lives in this process, so a process executor's worker would grade
    for real and never touch the gate.
    """

    def __init__(self, monkeypatch):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        self.calls = 0

        def fake(source, spec, model, **kwargs):
            self.calls += 1
            self.entered.release()
            assert self.release.wait(timeout=30)
            from repro.core.api import FeedbackReport

            return FeedbackReport(status="no_fix", problem=spec.name)

        monkeypatch.setattr(workers_mod, "generate_feedback", fake)


class TestGrading:
    def test_grade_and_cache_hit(self, warmup):
        service = make_service(warmup)
        first = service.grade("iterPower-6.00x", BUGGY)
        assert first.record["status"] == "fixed"
        assert not first.cached
        again = service.grade("iterPower-6.00x", BUGGY)
        assert again.cached
        assert again.record == first.record
        # α-renamed resubmission shares the canonical form → same entry.
        renamed = service.grade("iterPower-6.00x", BUGGY_RENAMED)
        assert renamed.cached
        assert renamed.key == first.key

    def test_unknown_problem_and_engine(self, warmup):
        service = make_service(warmup)
        with pytest.raises(UnknownProblem):
            service.grade("not-a-problem", BUGGY)
        with pytest.raises(ValueError):
            service.grade("iterPower-6.00x", BUGGY, engine="magic")

    def test_stats_counters(self, warmup):
        service = make_service(warmup)
        service.grade("iterPower-6.00x", BUGGY)
        service.grade("iterPower-6.00x", BUGGY)
        stats = service.stats()
        assert stats["requests"] == 2
        assert stats["graded"] == 1
        assert stats["cache_hits"] == 1
        assert stats["by_status"]["fixed"] == 2
        assert stats["problems"]["iterPower-6.00x"] == 2

    def test_grading_exception_becomes_error_and_is_not_cached(
        self, warmup, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(workers_mod, "generate_feedback", boom)
        service = make_service(warmup, executor="thread")
        outcome = service.grade("iterPower-6.00x", BUGGY)
        assert outcome.record["status"] == "error"
        assert "engine exploded" in outcome.record["detail"]
        # Not cached: the retry grades again instead of replaying the crash.
        retry = service.grade("iterPower-6.00x", BUGGY)
        assert not retry.cached
        assert service.stats()["errors"] == 2

    def test_periodic_persistence(self, warmup, tmp_path):
        path = tmp_path / "results.store.jsonl"
        service = make_service(
            warmup, cache=StoreClient(path, flush_every=1, background=False)
        )
        service.grade("iterPower-6.00x", BUGGY)
        assert len(ResultStore(path).entries()) == 1


class _SignalingInflight(dict):
    """An in-flight map that reports when a follower joins a leader."""

    def __init__(self):
        super().__init__()
        self.follower_arrived = threading.Event()

    def setdefault(self, key, default):
        if key in self:
            self.follower_arrived.set()
        return super().setdefault(key, default)


class TestInFlightDedup:
    def test_concurrent_identical_submissions_grade_once(
        self, warmup, monkeypatch
    ):
        grader = _BlockingGrader(monkeypatch)
        service = make_service(warmup, jobs=2, executor="thread")
        inflight = _SignalingInflight()
        service._inflight = inflight
        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(service.grade, "iterPower-6.00x", BUGGY)
            assert grader.entered.acquire(timeout=10)  # leader is grading
            # α-renamed copy arrives while the leader is in flight; only
            # release the leader once the follower has joined its future.
            follower = pool.submit(
                service.grade, "iterPower-6.00x", BUGGY_RENAMED
            )
            assert inflight.follower_arrived.wait(timeout=10)
            grader.release.set()
            lead_out, follow_out = leader.result(30), follower.result(30)
        assert grader.calls == 1
        assert not lead_out.cached and not lead_out.deduped
        assert follow_out.deduped
        assert follow_out.record == lead_out.record
        assert service.stats()["dedup_hits"] == 1

    def test_different_submissions_do_not_dedup(self, warmup, monkeypatch):
        grader = _BlockingGrader(monkeypatch)
        service = make_service(warmup, jobs=2, executor="thread")
        with ThreadPoolExecutor(max_workers=2) as pool:
            a = pool.submit(service.grade, "iterPower-6.00x", BUGGY)
            b = pool.submit(service.grade, "iterPower-6.00x", CORRECT)
            assert grader.entered.acquire(timeout=10)
            assert grader.entered.acquire(timeout=10)  # both grading
            grader.release.set()
            a.result(30), b.result(30)
        assert grader.calls == 2


class TestAdmission:
    def test_queue_full_rejects_with_retry_hint(self, warmup, monkeypatch):
        grader = _BlockingGrader(monkeypatch)
        service = make_service(warmup, jobs=1, queue_limit=0, executor="thread")
        with ThreadPoolExecutor(max_workers=1) as pool:
            running = pool.submit(service.grade, "iterPower-6.00x", BUGGY)
            assert grader.entered.acquire(timeout=10)
            with pytest.raises(QueueFull) as rejected:
                service.grade("iterPower-6.00x", CORRECT)
            assert rejected.value.retry_after_s >= 1.0
            grader.release.set()
            running.result(30)
        assert service.stats()["rejected"] == 1
        # Capacity is free again: the next request is admitted.
        assert service.grade("iterPower-6.00x", CORRECT).record["status"]

    def test_queued_request_is_admitted_when_slot_frees(
        self, warmup, monkeypatch
    ):
        grader = _BlockingGrader(monkeypatch)
        service = make_service(warmup, jobs=1, queue_limit=2, executor="thread")
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(service.grade, "iterPower-6.00x", BUGGY)
            assert grader.entered.acquire(timeout=10)
            queued = pool.submit(service.grade, "iterPower-6.00x", CORRECT)
            deadline = time.monotonic() + 10
            while service.stats()["queued"] == 0 and not queued.done():
                assert time.monotonic() < deadline, "request never queued"
            grader.release.set()
            assert first.result(30).record["status"] == "no_fix"
            assert queued.result(30).record["status"] == "no_fix"
        assert grader.calls == 2


class TestShutdown:
    def test_close_drains_inflight_gradings(self, warmup, monkeypatch):
        grader = _BlockingGrader(monkeypatch)
        service = make_service(warmup, jobs=1, executor="thread")
        with ThreadPoolExecutor(max_workers=2) as pool:
            inflight = pool.submit(service.grade, "iterPower-6.00x", BUGGY)
            assert grader.entered.acquire(timeout=10)
            closer = pool.submit(service.close, True)
            assert not closer.done()  # close waits for the grading
            grader.release.set()
            closer.result(30)
            assert inflight.result(30).record["status"] == "no_fix"
        with pytest.raises(ServiceClosed):
            service.grade("iterPower-6.00x", CORRECT)

    def test_close_persists_the_cache(self, warmup, tmp_path):
        path = tmp_path / "results.store.jsonl"
        service = make_service(
            warmup,
            cache=StoreClient(path, flush_every=10_000, background=False),
        )
        service.grade("iterPower-6.00x", BUGGY)
        assert not path.exists()  # below the flush threshold
        service.close()
        assert len(ResultStore(path).entries()) == 1


class TestCacheSharingUnderLoad:
    def test_thread_pool_load_grades_each_submission_once(self, warmup):
        # Real gradings, many threads, few distinct submissions: the
        # shared cache plus in-flight dedup must collapse the load to one
        # grading per canonical form, with every caller seeing a record.
        service = make_service(warmup, jobs=4, queue_limit=64)
        sources = [BUGGY, BUGGY_RENAMED, CORRECT] * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(
                pool.map(
                    lambda src: service.grade("iterPower-6.00x", src), sources
                )
            )
        stats = service.stats()
        assert stats["requests"] == len(sources)
        assert stats["graded"] == 2  # BUGGY(+renamed) and CORRECT
        assert stats["graded"] + stats["cache_hits"] + stats[
            "dedup_hits"
        ] == len(sources)
        by_key = {}
        for outcome in outcomes:
            by_key.setdefault(outcome.key, set()).add(
                str(sorted(outcome.record.items()))
            )
        assert len(by_key) == 2
        for records in by_key.values():
            assert len(records) == 1  # identical record for every caller

    def test_a_grading_that_lands_after_the_lookup_is_served(self, warmup):
        # A misses the cache, then B grades the same submission and
        # leaves in-flight before A registers: A must take B's record,
        # not grade again.
        service = make_service(warmup)
        admit = service.breakers.admit
        a_in_admit, b_done = threading.Event(), threading.Event()

        def admit_a_after_b(keys):
            if not a_in_admit.is_set():
                a_in_admit.set()
                assert b_done.wait(20)
            return admit(keys)

        service.breakers.admit = admit_a_after_b
        with ThreadPoolExecutor(max_workers=1) as pool:
            a = pool.submit(service.grade, "iterPower-6.00x", BUGGY)
            assert a_in_admit.wait(20)
            b = service.grade("iterPower-6.00x", BUGGY_RENAMED)
            b_done.set()
            outcome = a.result()
        assert not b.cached and outcome.cached
        assert outcome.record == b.record
        assert service.stats()["graded"] == 1

    def test_batch_and_service_answer_each_other_from_one_store(
        self, warmup, tmp_path
    ):
        # The CLI batch and the server derive identical keys, so a store
        # log written by either one answers the other.
        path = tmp_path / "results.store.jsonl"
        batch_cache = StoreClient(path, background=False)
        BatchRunner(PROBLEM, timeout_s=20.0, cache=batch_cache).run([BUGGY])
        batch_cache.close()
        service = make_service(
            warmup, cache=StoreClient(path, background=False)
        )
        assert service.grade("iterPower-6.00x", BUGGY_RENAMED).cached
        assert not service.grade("iterPower-6.00x", CORRECT).cached
        service.close()
        rerun = BatchRunner(
            PROBLEM, timeout_s=20.0, cache=StoreClient(path, background=False)
        )
        rerun.run([CORRECT])
        assert rerun.stats.cache_hits == 1 and rerun.stats.graded == 0


class TestNodeIdentity:
    """The fleet router keys its aggregated views by ``node_id``, so it
    must be present and stable for the process lifetime."""

    def test_explicit_node_id_in_stats_and_healthz(self, warmup):
        service = make_service(warmup, node_id="node-7")
        assert service.stats()["node_id"] == "node-7"
        assert service.healthz()["node_id"] == "node-7"

    def test_default_node_id_is_stable_and_unique_per_instance(self, warmup):
        service = make_service(warmup)
        first = service.stats()["node_id"]
        assert first  # never empty
        assert service.stats()["node_id"] == first
        assert service.healthz()["node_id"] == first

    def test_store_client_backed_service_persists_through_the_log(
        self, warmup, tmp_path
    ):
        path = tmp_path / "results.store.jsonl"
        first = make_service(
            warmup, cache=StoreClient(path, flush_every=1, background=False)
        )
        first.grade("iterPower-6.00x", BUGGY)
        first.close()
        second = make_service(
            warmup, cache=StoreClient(path, background=False)
        )
        assert second.grade("iterPower-6.00x", BUGGY).cached
