"""Chaos suite: every fault class armed against the real serving stack.

Each test arms one fault family, drives real requests through a real
service or executor, and asserts the system *converges*: no wedged
slots, no corrupted cache, and — once the faults are disarmed — records
identical to a never-faulted run.

Worker-process faults note: the parent draws every worker fault at
dispatch and the worker only acts it out, so a count trigger is
consumed once across the pool and its respawns: a one-shot fault costs
one request, and the next one grades clean.
"""

import time

import pytest

from repro.obs import reset_global_registry
from repro.problems import get_problem
from repro.resilience import faults
from repro.server import FeedbackService, warm_registry
from repro.server import warm as warm_mod
from repro.service import GradingConfig
from repro.service import workers as workers_mod
from repro.service.records import comparable_record
from repro.service.store import ResultStore, StoreClient
from repro.service.workers import ProcessExecutor

PROBLEM = "iterPower-6.00x"

BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""

BUGGY_RENAMED = """def iterPower(b, e):
    acc = 0
    for j in range(e):
        acc = acc * b
    return acc
"""

BUGGY_OFF_BY_ONE = """def iterPower(base, exp):
    result = 1
    for i in range(exp - 1):
        result = result * base
    return result
"""

CORRECT = """def iterPower(base, exp):
    result = 1
    for i in range(exp):
        result = result * base
    return result
"""


@pytest.fixture(scope="module")
def warmup():
    return warm_registry(names=[PROBLEM])


def make_service(warmup, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("queue_limit", 8)
    kwargs.setdefault("config", GradingConfig(timeout_s=20.0))
    kwargs.setdefault("executor", "thread")
    return FeedbackService(warmup=warmup, **kwargs)


def make_pool(grace_s=None):
    pool = ProcessExecutor(
        [warm_mod.warm_problem(get_problem(PROBLEM), prime=False)], workers=1
    )
    if grace_s is not None:
        pool.grace_s = grace_s
    return pool


def grade_until_clean(pool, attempts=8, timeout_s=20.0):
    """Grade until the pool serves a non-error record (convergence)."""
    record = None
    for _ in range(attempts):
        record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=timeout_s))
        if record["status"] != "error":
            return record
    raise AssertionError(f"pool never converged; last record: {record}")


# -- thread-executor fault classes --------------------------------------------


class TestGradeFaults:
    def test_grade_error_yields_error_record_then_converges(self, warmup):
        baseline = make_service(warmup).grade(PROBLEM, BUGGY).record
        service = make_service(warmup)
        faults.arm("grade.error", count=1)
        out = service.grade(PROBLEM, BUGGY)
        assert out.record["status"] == "error"
        assert "injected" in out.record["detail"]
        # Error records are never cached: the retry re-grades for real
        # and matches a never-faulted run byte for byte.
        faults.reset()
        again = service.grade(PROBLEM, BUGGY)
        assert not again.cached
        assert comparable_record(again.record) == comparable_record(baseline)

    def test_grade_slow_spends_the_request_deadline(self, warmup):
        service = make_service(warmup)
        faults.arm("grade.slow", count=1, delay_s=1.0)
        started = time.monotonic()
        out = service.grade(PROBLEM, BUGGY, timeout_s=0.4)
        wall = time.monotonic() - started
        # The injected stall burned the whole budget before the solve:
        # structured timeout, returned as soon as the stall ends.
        assert out.record["status"] == "timeout"
        assert wall < 1.0 + 0.5
        # Disarmed, the same submission at a fresh budget grades clean.
        faults.reset()
        clean = service.grade(PROBLEM, BUGGY, timeout_s=10.0)
        assert clean.record["status"] == "fixed"

    def test_queue_exhausted_deadline_is_structured_and_uncached(
        self, warmup
    ):
        service = make_service(warmup)
        out = service.grade(PROBLEM, BUGGY, timeout_s=1e-6)
        record = out.record
        assert record["status"] == "timeout"
        assert record["degraded"]["reason"] == "deadline_exhausted_in_queue"
        assert record["degraded"]["failing_tests"]
        # A queue-shortened timeout must never impersonate a full-budget
        # verdict: the identical retry re-enters grading.
        again = service.grade(PROBLEM, BUGGY, timeout_s=1e-6)
        assert not again.cached


class TestCacheFaults:
    def test_cache_write_fault_degrades_persistence_not_grading(
        self, warmup, tmp_path
    ):
        path = tmp_path / "results.store.jsonl"
        cache = StoreClient(path, flush_every=1, background=False)
        service = make_service(warmup, cache=cache)
        faults.arm("cache.write")
        out = service.grade(PROBLEM, BUGGY)  # its put's flush is injected
        assert out.record["status"] == "fixed"  # grading unaffected
        assert service.stats()["graded"] == 1
        assert ResultStore(path).entries() == {}  # the write really failed
        faults.reset()
        # The entry stayed resident and buffered; the next flush persists it.
        assert service.grade(PROBLEM, BUGGY_RENAMED).cached
        service.grade(PROBLEM, CORRECT)
        assert out.key in ResultStore(path).entries()

    def test_cache_read_fault_degrades_freshness_not_serving(self, tmp_path):
        path = tmp_path / "results.store.jsonl"
        ResultStore(path).append(
            "k", {"v": 1, "status": "fixed", "problem": PROBLEM}
        )
        faults.arm("cache.read", count=1)
        client = StoreClient(path, background=False)
        assert client.stats["entries"] == 0  # the opening read failed
        # Trigger consumed: the miss reads through to the intact log.
        assert client.get("k") is not None


# -- circuit breakers ---------------------------------------------------------


class TestBreakerCycle:
    def test_open_degrade_halfopen_probe_close(self, warmup, monkeypatch):
        real = workers_mod.generate_feedback

        def crashing(source, spec, model, **kwargs):
            raise RuntimeError("engine crashed")

        monkeypatch.setattr(workers_mod, "generate_feedback", crashing)
        service = make_service(
            warmup, breaker_threshold=2, breaker_reset_s=0.15
        )
        for _ in range(2):
            assert service.grade(PROBLEM, BUGGY).record["status"] == "error"

        # Threshold reached: the next request short-circuits to partial
        # feedback without touching the (still broken) engine.
        out = service.grade(PROBLEM, BUGGY)
        assert out.record["status"] == "degraded"
        assert out.record["degraded"]["reason"].startswith("breaker_open:")
        assert out.record["degraded"]["failing_tests"]
        health = service.healthz()
        assert health["degraded"] is True
        assert health["breakers_open"]
        stats = service.stats()
        assert stats["degraded"] == 1
        assert stats["breakers"]["open"] >= 1
        assert stats["breakers"]["opened_total"] >= 1

        # Reset window elapses: /healthz reports the probe-pending state.
        time.sleep(0.2)
        assert service.healthz()["breakers_half_open"]

        # The engine recovers; the single half-open probe grades for
        # real, closes the breaker, and service resumes.
        monkeypatch.setattr(workers_mod, "generate_feedback", real)
        probe = service.grade(PROBLEM, BUGGY)
        assert probe.record["status"] == "fixed"
        health = service.healthz()
        assert health["breakers_open"] == []
        assert health["breakers_half_open"] == []
        assert health["degraded"] is False

    def test_metrics_expose_breaker_and_degraded_state(
        self, warmup, monkeypatch
    ):
        def crashing(source, spec, model, **kwargs):
            raise RuntimeError("engine crashed")

        monkeypatch.setattr(workers_mod, "generate_feedback", crashing)
        service = make_service(
            warmup, breaker_threshold=1, breaker_reset_s=60.0
        )
        service.grade(PROBLEM, BUGGY)
        service.grade(PROBLEM, BUGGY)  # degraded (breaker open)
        text = service.metrics_text()
        assert "repro_breaker_open 2" in text  # problem + hash keys
        assert "repro_breaker_opens 2" in text


# -- worker-process fault classes ---------------------------------------------


class TestWorkerFaults:
    def test_worker_crash_recycles_and_converges(self):
        faults.arm("worker.crash", count=1)
        pool = make_pool()
        try:
            record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=20.0))
            assert record["status"] == "error"
            assert "died mid-request" in record["detail"]
            faults.reset()
            record = grade_until_clean(pool)
            assert record["status"] == "fixed"
            assert pool.info()["recycled"] >= 1
        finally:
            pool.close()

    def test_worker_hang_trips_the_watchdog(self):
        faults.arm("worker.hang", count=1, delay_s=30.0)
        pool = make_pool(grace_s=1.0)
        try:
            started = time.monotonic()
            record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=0.5))
            wall = time.monotonic() - started
            assert record["status"] == "error"
            assert "still busy" in record["detail"]
            # The watchdog fired at budget + grace, not at the 30 s stall.
            assert wall < 5.0
            faults.reset()
            assert grade_until_clean(pool)["status"] == "fixed"
        finally:
            pool.close()

    def test_reply_drop_trips_the_watchdog(self):
        faults.arm("worker.reply_drop", count=1)
        pool = make_pool(grace_s=1.0)
        try:
            record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=0.5))
            assert record["status"] == "error"
            assert "still busy" in record["detail"]
            faults.reset()
            assert grade_until_clean(pool)["status"] == "fixed"
        finally:
            pool.close()

    def test_one_shot_fault_fires_once_across_respawns(self):
        registry = reset_global_registry()
        faults.configure("worker.reply_drop:n=1")
        pool = make_pool(grace_s=1.0)
        try:
            lost = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=2.0))
            assert lost["status"] == "error"
            assert "still busy" in lost["detail"]
            # The respawned worker is not re-armed: still armed in the
            # parent, the spent trigger never fires again.
            record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=2.0))
            assert record["status"] == "fixed"
            assert pool.info()["recycled"] == 1
        finally:
            pool.close()
        fired = registry.counter(
            "repro_faults_injected_total",
            help="Faults fired by the injection harness",
            labelnames=("point",),
        )
        assert fired.value(point="worker.reply_drop") == 1

    def test_a_dropped_reply_leaves_the_next_fault_armed(self):
        # Both armed: the first request's reply is dropped, so its
        # malformed reply is never sent and that shot goes to the next
        # request instead. Each fault is acted out, and counted, once.
        registry = reset_global_registry()
        faults.configure("worker.reply_drop:n=1,worker.reply_malformed:n=1")
        pool = make_pool(grace_s=1.0)
        try:
            lost = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=2.0))
            assert "still busy" in lost["detail"]
            garbled = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=2.0))
            assert "malformed reply" in garbled["detail"]
            record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=2.0))
            assert record["status"] == "fixed"
            assert pool.info()["recycled"] == 2
        finally:
            pool.close()
        fired = registry.counter(
            "repro_faults_injected_total",
            help="Faults fired by the injection harness",
            labelnames=("point",),
        )
        assert fired.value(point="worker.reply_drop") == 1
        assert fired.value(point="worker.reply_malformed") == 1

    def test_a_recycled_worker_grades_without_warming(self, monkeypatch):
        pool = make_pool()
        try:
            # From here, warming raises: the respawn must serve the warm
            # state it forks with, not build its own.
            def refuse(*args, **kwargs):
                raise AssertionError("a pool worker called warm_problem")

            monkeypatch.setattr(warm_mod, "warm_problem", refuse)
            handle = pool._workers[0]
            handle.process.kill()
            handle.process.join(10.0)
            lost = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=20.0))
            assert "died mid-request" in lost["detail"]
            record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=20.0))
            assert record["status"] == "fixed"
            assert pool.info()["recycled"] == 1
        finally:
            pool.close()

    def test_reply_malformed_recycles_the_worker(self):
        faults.arm("worker.reply_malformed", count=1)
        pool = make_pool()
        try:
            record = pool.grade(PROBLEM, BUGGY, GradingConfig(timeout_s=20.0))
            assert record["status"] == "error"
            assert "malformed reply" in record["detail"]
            assert pool.info()["recycled"] >= 1
            faults.reset()
            assert grade_until_clean(pool)["status"] == "fixed"
        finally:
            pool.close()


# -- end-to-end contracts -----------------------------------------------------


@pytest.fixture(scope="module")
def rush_warmup():
    return warm_registry(names=["restaurant-rush"], prime=False)


@pytest.fixture(scope="module")
def rush_slow_submission(rush_warmup):
    spec = rush_warmup["restaurant-rush"].spec
    mutated = spec.reference_source.replace("+", "-", 1)
    assert mutated != spec.reference_source
    return mutated


class TestDeadlineContract:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_slow_submission_times_out_within_grace(
        self, rush_warmup, rush_slow_submission, executor
    ):
        service = FeedbackService(
            warmup=rush_warmup,
            jobs=1,
            queue_limit=4,
            executor=executor,
        )
        try:
            budget = 2.0
            started = time.monotonic()
            out = service.grade(
                "restaurant-rush", rush_slow_submission, timeout_s=budget
            )
            wall = time.monotonic() - started
            assert out.record["status"] == "timeout"
            assert wall < budget + 0.5
            assert out.record["degraded"]["reason"] == "solver_timeout"
            assert out.record["degraded"]["failing_tests"]
            # The worker survived its own timeout: nothing was recycled
            # and the next request grades normally.
            follow = service.grade(
                "restaurant-rush",
                rush_warmup["restaurant-rush"].spec.reference_source,
                timeout_s=20.0,
            )
            assert follow.record["status"] not in ("timeout", "error")
            if executor == "process":
                assert service.stats()["executor"]["recycled"] == 0
        finally:
            service.close()


class TestConvergenceWorkload:
    def test_zipf_workload_with_probabilistic_faults_converges(self, warmup):
        # A zipf-ish classroom: one dominant buggy submission, a smaller
        # correct cohort, a renamed clone, a long tail — graded under a
        # 30%-probability grading crash.
        workload = (
            [BUGGY] * 8
            + [CORRECT] * 4
            + [BUGGY_RENAMED] * 2
            + [BUGGY_OFF_BY_ONE]
        )
        faults.configure("grade.error:p=0.3:seed=11")
        service = make_service(warmup, breaker_threshold=0, queue_limit=32)
        for source in workload:
            record = service.grade(PROBLEM, source).record
            assert record["status"] in (
                "fixed",
                "already_correct",
                "no_fix",
                "error",
            )

        stats = service.stats()
        assert stats["requests"] == len(workload)
        # The ledger balances: every admitted request is accounted to
        # exactly one outcome.
        assert stats["requests"] == (
            stats["graded"]
            + stats["cache_hits"]
            + stats["dedup_hits"]
            + stats["degraded"]
        )

        # Faults clear: every distinct submission now matches a clean
        # service byte for byte — nothing corrupt was cached.
        faults.reset()
        clean = make_service(warmup)
        for source in (BUGGY, CORRECT, BUGGY_RENAMED, BUGGY_OFF_BY_ONE):
            converged = service.grade(PROBLEM, source).record
            baseline = clean.grade(PROBLEM, source).record
            assert converged["status"] != "error"
            assert comparable_record(converged) == comparable_record(baseline)


class TestResilienceByteIdentity:
    def test_clean_path_records_identical_with_breakers_on_and_off(
        self, warmup
    ):
        on = make_service(warmup, breaker_threshold=5)
        off = make_service(warmup, breaker_threshold=0)
        for source in (BUGGY, CORRECT, BUGGY_OFF_BY_ONE):
            with_breakers = on.grade(PROBLEM, source).record
            without = off.grade(PROBLEM, source).record
            assert comparable_record(with_breakers) == comparable_record(
                without
            )
            # Clean-path records never carry resilience artifacts.
            assert "degraded" not in with_breakers
