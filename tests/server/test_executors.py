"""Process-executor machinery: dispatch, recycling, priming.

The differential suite (``test_executor_differential.py``) proves the
executors produce identical records; this module tests the machinery
itself — worker lifecycle, crash/watchdog recycling, dispatch (every
worker serves every problem), the pool contract (workers serve the
parent's warm problems and never warm or prime their own) — plus the
warm-priming engine fix (the parent primes with the *serving* engine,
not a hardcoded one).
"""

import gc
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import repro
from repro.problems import get_problem
from repro.server import FeedbackService, WarmupError, warm_registry
from repro.server import warm as warm_mod
from repro.service import GradingConfig
from repro.service.records import comparable_record
from repro.service.workers import (
    EXECUTOR,
    ProcessExecutor,
    default_executor,
    grade_record,
)

BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""


class WedgedConn:
    """A connection whose replies never arrive: deterministic stand-in
    for a worker stuck in uninterruptible work (or still warming)."""

    def __init__(self, conn):
        self._conn = conn

    def poll(self, timeout=None):
        return False

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestExecutorResolution:
    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert EXECUTOR.resolve("thread") == "thread"

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            EXECUTOR.resolve("fibers")

    def test_default_tracks_core_count(self, monkeypatch):
        import repro.service.workers as workers_mod

        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 8)
        assert default_executor() == "process"
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 1)
        assert default_executor() == "thread"


TWO_PROBLEMS = ["iterPower-6.00x", "prodBySum-6.00"]


def grade_both(pool):
    """Grade the buggy iterPower and the prodBySum reference on ``pool``."""
    config = GradingConfig(timeout_s=20.0)
    record = pool.grade("iterPower-6.00x", BUGGY, config)
    assert record["status"] == "fixed"
    reference = get_problem("prodBySum-6.00").spec.reference_source
    record = pool.grade("prodBySum-6.00", reference, config)
    assert record["status"] == "already_correct"


@pytest.fixture(scope="module")
def pool():
    warmup = warm_registry(names=TWO_PROBLEMS)
    executor = ProcessExecutor(
        problems=list(warmup.problems.values()), workers=1
    )
    executor.wait_ready()
    yield executor
    executor.close()


class TestProcessExecutor:
    def test_one_worker_serves_both_problems(self, pool):
        grade_both(pool)

    def test_unrouted_problem_is_an_error(self, pool):
        with pytest.raises(KeyError, match="no grading worker serves"):
            pool.grade("not-a-problem", BUGGY, GradingConfig(timeout_s=5.0))

    def test_a_retired_worker_leaves_every_problem_to_the_rest(self):
        warmup = warm_registry(names=TWO_PROBLEMS, prime=False)
        fresh = ProcessExecutor(list(warmup.problems.values()), workers=2)
        try:
            fresh.wait_ready()
            assert set(fresh.info()) == {"kind", "workers", "recycled"}
            # Retired and dead: a grading dispatched to it would come
            # back as an error record, not a verdict.
            retired = fresh._workers[0]
            retired.failed = True
            retired.process.kill()
            retired.process.join(10.0)
            grade_both(fresh)
            assert fresh.info()["recycled"] == 0
        finally:
            fresh.close()

    def test_crashed_worker_is_recycled_and_slot_recovers(self, pool):
        recycled_before = pool.info()["recycled"]
        handle = pool._workers[0]
        handle.process.kill()  # simulate a segfaulting grading
        handle.process.join(10.0)
        record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert record["status"] == "error"
        assert "recycled" in record["detail"]
        # The replacement worker serves the next request.
        record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert record["status"] == "fixed"
        assert pool.info()["recycled"] == recycled_before + 1

    def test_watchdog_recycles_wedged_worker(self, pool):
        recycled_before = pool.info()["recycled"]
        handle = pool._workers[0]
        handle.conn = WedgedConn(handle.conn)
        saved = pool.grace_s
        pool.grace_s = 0.05  # don't sit out the real grace period
        try:
            record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=0.0))
        finally:
            pool.grace_s = saved
        assert record["status"] == "error"
        assert "recycled" in record["detail"]
        assert pool.info()["recycled"] == recycled_before + 1
        # _start() replaced the wedged connection with the fresh one.
        assert not isinstance(handle.conn, WedgedConn)
        record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert record["status"] == "fixed"

    def test_rewarming_worker_is_not_killed_by_impatient_requests(
        self, pool
    ):
        # A recycled worker re-warms asynchronously. A request landing on
        # it during the warmup must fail fast (its own budget, not
        # ready_timeout_s) and must NOT kill the worker — recycling a
        # healthy-but-warming worker would restart the warmup from zero,
        # forever.
        handle = pool._workers[0]
        recycled_before = pool.info()["recycled"]
        real_conn = handle.conn
        handle.conn = WedgedConn(real_conn)  # a warmup that never ends
        handle.ready = False
        saved = pool.grace_s
        pool.grace_s = 0.05
        try:
            record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=0.0))
        finally:
            pool.grace_s = saved
            handle.conn = real_conn
            handle.ready = True
        assert record["status"] == "error"
        assert "did not finish warming" in record["detail"]
        assert pool.info()["recycled"] == recycled_before  # left alone
        assert handle.process.is_alive()
        record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert record["status"] == "fixed"

    def test_worker_crashing_mid_warm_is_recycled(self, pool):
        # Dying *during* the warmup (OOM-killed before the ready
        # message) must not leave a permanently dead slot: the pipe EOF
        # in the ready-wait recycles it like any other crash.
        handle = pool._workers[0]
        recycled_before = pool.info()["recycled"]
        handle.ready = False  # the warmup never completed...
        handle.process.kill()  # ...because the worker died during it
        handle.process.join(10.0)
        record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert record["status"] == "error"
        assert pool.info()["recycled"] == recycled_before + 1
        record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert record["status"] == "fixed"


def refuse_to_warm(*args, **kwargs):
    raise AssertionError("a pool worker called warm_problem")


@pytest.fixture
def iterpower_warm():
    return warm_mod.warm_problem(get_problem("iterPower-6.00x"))


class TestWarmInheritance:
    """A pool serves the parent's warm problems: no worker warms, builds
    a verifier table or primes. ``warm_problem`` is patched to raise once
    the parent has warmed, so a worker that called it (a forked one
    inherits the patch) could not start or grade."""

    def test_a_pool_grades_from_the_parents_warm_state(
        self, iterpower_warm, monkeypatch
    ):
        monkeypatch.setattr(warm_mod, "warm_problem", refuse_to_warm)
        pool = ProcessExecutor([iterpower_warm], workers=2)
        try:
            pool.wait_ready()
            # Two idle workers, so consecutive requests go to each in turn.
            for _ in range(2):
                record = pool.grade(
                    "iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0)
                )
                assert record["status"] == "fixed"
        finally:
            pool.close()

    def test_a_warm_problem_grades_the_same_after_a_pickle_round_trip(
        self, iterpower_warm
    ):
        # What a worker receives under a pickling start method.
        clone = pickle.loads(pickle.dumps(iterpower_warm))
        assert clone.info() == iterpower_warm.info()
        config = GradingConfig(timeout_s=20.0)
        record = grade_record(iterpower_warm, BUGGY, config)
        assert record["status"] == "fixed"
        assert comparable_record(
            grade_record(clone, BUGGY, config)
        ) == comparable_record(record)

    def test_a_failed_self_test_refuses_startup_before_any_fork(
        self, monkeypatch
    ):
        from repro.cli import main

        def fork(self, handle):
            raise AssertionError("a grading worker was forked")

        monkeypatch.setattr(ProcessExecutor, "_start", fork)
        monkeypatch.setattr(
            warm_mod,
            "generate_feedback",
            lambda *args, **kwargs: SimpleNamespace(status="no_fix"),
        )
        with pytest.raises(WarmupError, match="iterPower-6.00x"):
            main(
                ["serve", "--executor", "process", "--jobs", "2",
                 "--port", "0", "--only", "iterPower-6.00x"]
            )


#: A server that builds a 2-worker pool, reports the worker pids once
#: every worker has reported in, then idles until it is killed.
POOL_SERVER = """
import time
from repro.problems import get_problem
from repro.server.warm import warm_problem
from repro.service.workers import ProcessExecutor

warm = warm_problem(get_problem("iterPower-6.00x"), prime=False)
pool = ProcessExecutor([warm], workers=2)
pool.wait_ready()
print(*(handle.process.pid for handle in pool._workers), flush=True)
time.sleep(600)
"""


def _running(pid):
    """Whether ``pid`` is a live process (a zombie awaiting reaping is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestOrphanedWorkers:
    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process state from /proc"
    )
    def test_workers_exit_when_their_server_is_killed(self):
        # A server killed without a drain (SIGKILL) must not leave its
        # pool workers behind, blocked on a pipe nobody writes to.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        server = subprocess.Popen(
            [sys.executable, "-c", POOL_SERVER],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        pids = []
        try:
            ready, _, _ = select.select([server.stdout], [], [], 120.0)
            assert ready, "the pool did not become ready"
            pids = [int(pid) for pid in server.stdout.readline().split()]
            assert len(pids) == 2
            server.kill()
            server.wait(10.0)
            deadline = time.monotonic() + 10.0
            while any(_running(pid) for pid in pids):
                assert time.monotonic() < deadline, (
                    f"workers {[p for p in pids if _running(p)]} outlived "
                    "their killed server"
                )
                time.sleep(0.05)
        finally:
            server.kill()
            server.wait(10.0)
            server.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestServiceIntegration:
    def test_process_service_grades_and_reports_executor(self):
        warmup = warm_registry(names=["iterPower-6.00x"])
        service = FeedbackService(
            warmup=warmup,
            jobs=2,
            executor="process",
            config=GradingConfig(timeout_s=20.0),
        )
        try:
            outcome = service.grade("iterPower-6.00x", BUGGY)
            assert outcome.record["status"] == "fixed"
            info = service.stats()["executor"]
            assert info["kind"] == "process"
            assert info["workers"] == 2
        finally:
            service.close()

    def test_thread_service_reports_executor(self):
        warmup = warm_registry(names=["iterPower-6.00x"])
        service = FeedbackService(
            warmup=warmup, executor="thread", config=GradingConfig(timeout_s=20.0)
        )
        try:
            assert service.stats()["executor"] == {"kind": "thread"}
        finally:
            service.close()

    def test_workers_must_be_positive(self):
        # A process pool has one worker per grading slot.
        warmup = warm_registry(names=["iterPower-6.00x"])
        with pytest.raises(ValueError):
            FeedbackService(warmup=warmup, jobs=0)


class TestCliExecutorResolution:
    def test_serve_honors_repro_executor_env_and_primes_in_the_parent(
        self, capsys, monkeypatch
    ):
        # `REPRO_EXECUTOR` must steer the daemon too, not just library
        # construction; and in process mode the parent primes (and
        # self-tests) the warm problems once, then forks its workers
        # from that frozen heap, which it unfreezes when it returns.
        from repro.cli import main
        from repro.server import http as http_mod

        seen = {}

        def interrupted(self):
            seen["primed"] = [
                warm.primed for warm in self.service.warmup.problems.values()
            ]
            seen["frozen"] = gc.get_freeze_count()
            self._BaseServer__is_shut_down.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(
            http_mod.FeedbackHTTPServer, "serve_forever", interrupted
        )
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        frozen_before = gc.get_freeze_count()
        code = main(
            ["serve", "--port", "0", "--only", "iterPower-6.00x",
             "--jobs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "executor=process" in out
        assert "priming skipped" not in out
        assert seen["primed"] == [True]
        assert seen["frozen"] > frozen_before
        assert gc.get_freeze_count() == frozen_before
        assert "bye" in out


class TestWarmPrimingConfiguration:
    def test_prime_uses_the_serving_engine(self, monkeypatch):
        # Regression: priming hardcoded cegismin, so a server grading
        # with the enumerative engine self-tested (and warmed) a
        # configuration no request would ever hit.
        used = []
        real = warm_mod.engine_by_name

        def spying(name):
            used.append(name)
            return real(name)

        monkeypatch.setattr(warm_mod, "engine_by_name", spying)
        problem = get_problem("iterPower-6.00x")
        warm = warm_mod.warm_problem(problem, GradingConfig("enumerative"))
        assert warm.primed
        assert used == ["enumerative"]

    def test_warm_registry_threads_engine_through(self, monkeypatch):
        used = []
        real = warm_mod.engine_by_name

        def spying(name):
            used.append(name)
            return real(name)

        monkeypatch.setattr(warm_mod, "engine_by_name", spying)
        warm_mod.warm_registry(
            names=["iterPower-6.00x"], config=GradingConfig("enumerative")
        )
        assert used == ["enumerative"]
