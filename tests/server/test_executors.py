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
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import repro
from repro.compile import BACKEND
from repro.compile.compiler import CompiledProgram
from repro.problems import get_problem
from repro.server import FeedbackService, WarmupError, warm_registry
from repro.server import warm as warm_mod
from repro.service import GradingConfig
from repro.service.workers import EXECUTOR, ProcessExecutor, default_executor

BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""


class WedgedConn:
    """A connection whose replies never arrive: deterministic stand-in
    for a worker stuck in uninterruptible work."""

    def __init__(self, conn):
        self._conn = conn

    def poll(self, timeout=None):
        return False

    def __getattr__(self, name):
        return getattr(self._conn, name)


class RefusedWaitConn(WedgedConn):
    """A connection whose wait for a reply raises, as ``select`` does
    for a timeout it cannot represent."""

    def poll(self, timeout=None):
        raise OverflowError("timeout is too large")


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
    yield executor
    executor.close()


class TestProcessExecutor:
    def test_one_worker_serves_both_problems(self, pool):
        grade_both(pool)

    def test_unrouted_problem_is_an_error(self, pool):
        with pytest.raises(KeyError, match="no grading worker serves"):
            pool.grade("not-a-problem", BUGGY, GradingConfig(timeout_s=5.0))

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
            record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=1e-6))
        finally:
            pool.grace_s = saved
        assert record["status"] == "error"
        assert "recycled" in record["detail"]
        assert pool.info()["recycled"] == recycled_before + 1
        # _start() replaced the wedged connection with the fresh one.
        assert not isinstance(handle.conn, WedgedConn)
        record = pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert record["status"] == "fixed"

    def test_a_failed_fork_stops_the_workers_already_forked(
        self, iterpower_warm, monkeypatch
    ):
        # A pool that cannot start refuses startup, and leaves no worker
        # behind to wait for its parent's exit.
        forked = []
        fork = ProcessExecutor._start

        def second_fork_fails(self, handle):
            if forked:
                raise OSError("fork failed")
            fork(self, handle)
            forked.append(handle.process)

        monkeypatch.setattr(ProcessExecutor, "_start", second_fork_fails)
        with pytest.raises(OSError, match="fork failed"):
            ProcessExecutor([iterpower_warm], workers=2)
        (first,) = forked
        first.join(10.0)
        assert not first.is_alive()

    def test_a_failed_wait_leaves_no_reply_for_the_next_request(self, pool):
        # The request is on the worker's pipe when the wait for its reply
        # fails (as select fails a wait it refuses): the worker goes, so
        # its late reply cannot answer the next request.
        recycled_before = pool.info()["recycled"]
        handle = pool._workers[0]
        handle.conn = RefusedWaitConn(handle.conn)
        with pytest.raises(OverflowError):
            pool.grade("iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0))
        assert not isinstance(handle.conn, RefusedWaitConn)
        reference = get_problem("iterPower-6.00x").spec.reference_source
        record = pool.grade(
            "iterPower-6.00x", reference, GradingConfig(timeout_s=20.0)
        )
        assert record["status"] == "already_correct"  # not BUGGY's "fixed"
        assert pool.info()["recycled"] == recycled_before + 1


def refuse_to_warm(*args, **kwargs):
    raise AssertionError("a pool worker called warm_problem")


def _src_root():
    """The directory ``repro`` imports from, for a child interpreter."""
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


#: Makes ``spawn`` the default start method, patches grading to raise,
#: then grades the reference on a 1-worker pool and prints the record's
#: status and detail.
SPAWN_DEFAULT = """
import multiprocessing
multiprocessing.set_start_method("spawn")
from repro.problems import get_problem
from repro.server.warm import warm_problem
from repro.service import GradingConfig
from repro.service import workers

warm = warm_problem(get_problem("iterPower-6.00x"), prime=False)

def refuse(*args, **kwargs):
    raise RuntimeError("refused")

workers.generate_feedback = refuse
pool = workers.ProcessExecutor([warm], workers=1)
try:
    record = pool.grade(
        warm.name, warm.spec.reference_source, GradingConfig(timeout_s=20.0)
    )
finally:
    pool.close()
print(record["status"], record.get("detail", ""))
"""


@pytest.fixture
def iterpower_warm():
    return warm_mod.warm_problem(get_problem("iterPower-6.00x"))


class TestBackendInheritance:
    """The execution backend is a process setting: a forked worker
    inherits its parent's, and no request carries one."""

    @pytest.mark.parametrize(
        "backend, status", [("interp", "fixed"), ("compiled", "error")]
    )
    def test_a_pool_grades_on_the_backend_it_was_forked_under(
        self, iterpower_warm, monkeypatch, backend, status
    ):
        # Compiling is patched to fail in the parent before the fork,
        # and the pool grades after the setting is restored: nothing on
        # the pipe names a backend, so a worker forked under interp
        # grades for real and one forked under compiled hits the patch.
        def refuse(self, *args, **kwargs):
            raise RuntimeError("compiled in a pool worker")

        monkeypatch.setattr(CompiledProgram, "__init__", refuse)
        with BACKEND.using(backend):
            pool = ProcessExecutor([iterpower_warm], workers=1)
        try:
            record = pool.grade(
                "iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0)
            )
        finally:
            pool.close()
        assert record["status"] == status
        if status == "error":
            assert "compiled in a pool worker" in record["detail"]


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
            assert set(pool.info()) == {"kind", "workers", "recycled"}
            # Two idle workers, so consecutive requests go to each in turn.
            for _ in range(2):
                record = pool.grade(
                    "iterPower-6.00x", BUGGY, GradingConfig(timeout_s=20.0)
                )
                assert record["status"] == "fixed"
        finally:
            pool.close()

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="needs the spawn start method",
    )
    def test_the_pool_forks_whatever_the_default_start_method(self):
        # Grading is patched to raise in the parent: a forked worker
        # inherits the patch and answers with its error, where a spawned
        # one would import the real grading call and grade the reference.
        out = subprocess.run(
            [sys.executable, "-c", SPAWN_DEFAULT],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=_src_root()),
            timeout=120.0,
            check=True,
        ).stdout
        assert out.strip() == "error RuntimeError: refused"

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


#: A server that builds a 2-worker pool, reports the worker pids right
#: after, then idles until it is killed.
POOL_SERVER = """
import time
from repro.problems import get_problem
from repro.server.warm import warm_problem
from repro.service.workers import ProcessExecutor

warm = warm_problem(get_problem("iterPower-6.00x"), prime=False)
pool = ProcessExecutor([warm], workers=2)
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
        server = subprocess.Popen(
            [sys.executable, "-c", POOL_SERVER],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=_src_root()),
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

    def test_a_budget_out_of_bounds_is_refused_before_anything(self):
        # 1e7 s passes no check on its way to the pool's watchdog, whose
        # wait select refuses: the request must be refused up front, not
        # answered as an error that costs a worker.
        warmup = warm_registry(names=["iterPower-6.00x"], prime=False)
        service = FeedbackService(
            warmup=warmup,
            jobs=1,
            executor="process",
            config=GradingConfig(timeout_s=20.0),
        )
        try:
            for timeout_s in (1e7, 0, float("nan")):
                with pytest.raises(ValueError, match="solve budget"):
                    service.grade("iterPower-6.00x", BUGGY, timeout_s=timeout_s)
            stats = service.stats()
            assert (stats["requests"], stats["executor"]["recycled"]) == (0, 0)
            outcome = service.grade("iterPower-6.00x", BUGGY)
            assert outcome.record["status"] == "fixed"
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
