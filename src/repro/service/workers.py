"""Grading executors: the process-level execution layer of the service.

The engine loop is pure-Python CPU work, so a thread per request buys
*zero* extra throughput on a multi-core box — the GIL serializes every
solve. This module owns the way a grading actually runs:

- :func:`grade_record`, the one grading call every executor makes;
- :class:`ProcessExecutor`, the pool of **preforked** worker processes
  behind ``serve --executor process`` and every parallel batch
  (:class:`~repro.service.runner.BatchRunner` with ``jobs > 1`` grades
  through a :class:`~repro.server.service.FeedbackService` over it).
  The pool takes the parent's warm problems
  (:class:`~repro.server.warm.WarmProblem`): the parent builds, primes
  and self-tests them once, and a worker serves from the copy it
  inherits at fork (under a pickling start method the same state
  arrives pickled). A worker never warms, builds a verifier table or
  primes; its *warmup* is reporting in. Every worker serves every
  warm problem, so a request goes to any free worker. A worker that
  crashes or blows through its watchdog budget is **recycled** —
  killed and respawned from the same warm parent — so one pathological
  submission can never permanently wedge a grading slot.

The thread executor (grade on the calling request thread) lives next to
:class:`~repro.server.service.FeedbackService`; both satisfy the same
contract: ``grade(problem, source, config, request_id, deadline) ->
record``, ``close()``, and ``info()``/``health()`` payloads. ``config``
is the service's :class:`~repro.service.cache.GradingConfig` under the
request's engine and remaining budget; it travels with each request on
the pipe.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.api import generate_feedback
from repro.engines import engine_by_name
from repro.obs import OBS, global_registry, observe_grading
from repro.obs.events import emit
from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.service.cache import GradingConfig
from repro.service.records import error_record, report_to_record
from repro.settings import Setting, choice

if TYPE_CHECKING:  # repro.server.warm imports this package
    from repro.server.warm import WarmProblem

THREAD = "thread"
PROCESS = "process"
EXECUTORS = (THREAD, PROCESS)

#: The executor a :class:`~repro.server.service.FeedbackService` grades
#: on when none is named. ``REPRO_EXECUTOR`` is how CI runs one suite
#: under both executors; the built-in stays in-process, so embedding a
#: service never forks behind the caller's back. The ``serve`` CLI opts
#: into :func:`default_executor` instead.
EXECUTOR = Setting("REPRO_EXECUTOR", choice("executor", EXECUTORS), THREAD)

#: The chaos seams a pool worker acts out for one request, in the order
#: it reaches them; the parent draws them at dispatch.
_WORKER_FAULTS = (
    "worker.crash", "worker.hang", "grade.slow", "grade.error",
    "worker.reply_drop", "worker.reply_malformed",
)
#: The seams after which a worker acts out nothing more of the request:
#: it is dead, or its reply is gone.
_WORKER_FAULT_ENDS = ("worker.crash", "worker.reply_drop")


def default_executor() -> str:
    """The executor the ``serve`` CLI picks when none is named.

    A process pool is the only way cache misses scale past one core, so
    it is the default whenever there is more than one core to
    scale onto; a single-core box gets nothing from forking and keeps
    the in-thread path.
    """
    return PROCESS if (os.cpu_count() or 1) > 1 else THREAD


def grade_record(
    warm,
    source: str,
    config: GradingConfig,
    deadline: Optional[Deadline] = None,
    drawn: Optional[Dict[str, float]] = None,
) -> dict:
    """Grade one submission against warm per-problem state → record.

    The one grading call every executor shares: ``config`` is pinned per
    call (fresh engine, explicit ``backend=``), never via process-wide
    defaults, so records are byte-identical whichever executor ran them.
    A raising grading comes back as an error record, not an exception —
    one pathological submission must cost its own slot only. It records
    no metrics: the executor observes the record in the serving process.

    ``deadline`` is the request's end-to-end deadline when the grading
    runs in the requesting process; across the worker pipe only the
    remaining seconds travel (as the config's shrunk ``timeout_s``) and
    the worker restarts a local clock here.

    ``drawn`` is the chaos a pool worker's parent drew for this request;
    ``None`` consults the live fault plan here.
    """
    try:
        # Chaos seams (zero-cost disarmed): a grading that stalls, and a
        # grading that raises — the two failure shapes every layer above
        # must absorb without wedging a slot.
        if drawn is None:
            drawn = faults.draw(("grade.slow", "grade.error"))
        if "grade.slow" in drawn:
            time.sleep(drawn["grade.slow"])
        if "grade.error" in drawn:
            raise faults.FaultInjected("grade.error")
        report = generate_feedback(
            source,
            warm.spec,
            warm.model,
            engine=engine_by_name(config.engine),
            timeout_s=config.timeout_s,
            verifier=warm.verifier,
            backend=config.backend,
            deadline=deadline,
        )
        return report_to_record(report)
    except Exception as exc:
        return error_record(warm.name, exc)


# -- the preforked worker pool -------------------------------------------------


def _pool_worker_main(
    conn,
    state: Dict[str, "WarmProblem"],
    warm_crash: bool = False,
) -> None:
    """One pool worker: report in, then serve the pipe from ``state``.

    Runs in the child process. ``state`` is the parent's warm problems,
    built and primed before the fork: the worker grades against them as
    they are. The parent dispatches only problems it warmed.

    The worker consults no fault plan: it drops any it inherited or read
    from the environment, and acts out only what the parent drew for it
    (``warm_crash`` at spawn, a set of points per request).
    """
    faults.configure(None)
    # Chaos seam: a worker that dies before it reports in — the parent
    # must cap respawns instead of thrashing forever.
    if warm_crash:
        os._exit(32)
    try:
        conn.send("ready")
    except OSError:
        return
    # A forked worker holds its own pipe's parent end open, so a parent
    # killed without a drain never shows up as EOF here: watch the
    # parent's sentinel too, and leave when only it is ready.
    parent = multiprocessing.parent_process().sentinel
    while True:
        try:
            if conn not in multiprocessing.connection.wait([conn, parent]):
                return
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if not isinstance(message, tuple) or message[0] != "grade":
            return  # "stop" or garbage: either way, exit cleanly
        _, problem, source, request_config, request_id, drawn = message
        # Restart the request's deadline locally the moment the message
        # lands: the shipped timeout_s is the budget *remaining* at
        # dispatch, and everything from here — injected stalls included —
        # must spend from it, not reset it.
        deadline = Deadline.after(request_config.timeout_s)
        # Chaos seams: die mid-grade (parent sees EOF → recycle) or
        # stall past the watchdog grace (parent sees poll timeout).
        if "worker.crash" in drawn:
            os._exit(31)
        if "worker.hang" in drawn:
            time.sleep(drawn["worker.hang"])
        record = grade_record(
            state[problem], source, request_config, deadline=deadline,
            drawn=drawn,
        )
        if OBS.default():
            emit(
                "worker_grading",
                level=logging.DEBUG,
                request_id=request_id,
                problem=problem,
                status=record.get("status", "?"),
                pid=os.getpid(),
            )
        # Chaos seams on the result pipe: a reply that never arrives
        # (watchdog path) and one the parent cannot parse (recycle path).
        # Either way this worker keeps serving — the *parent* decides its
        # fate.
        if "worker.reply_drop" in drawn:
            continue
        if "worker.reply_malformed" in drawn:
            try:
                conn.send(("bogus",))
            except (BrokenPipeError, OSError):
                return
            continue
        try:
            conn.send(("record", record))
        except (BrokenPipeError, OSError):
            return


class _WorkerHandle:
    """Parent-side view of one worker process (one request at a time)."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "lock",
        "ready",
        "warm_failures",
        "failed",
    )

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.ready = False
        #: Consecutive start-ups that died before reporting in. At
        #: ``max_warm_failures`` the slot is marked ``failed`` and never
        #: respawned — a worker that crashes every start-up would
        #: otherwise thrash forks forever.
        self.warm_failures = 0
        self.failed = False


class ProcessExecutor:
    """A pool of preforked grading worker processes over warm problems.

    ``problems`` are the parent's warm problems, already built (and
    primed, when the caller primes): construction forks ``workers``
    processes at once, each serving every problem from the copy it
    inherits. A ``WarmProblem`` pickles, so the same state reaches a
    worker under any multiprocessing start method. Call
    :meth:`wait_ready` to block until every worker has reported in — the
    service does this before taking traffic.
    """

    kind = PROCESS

    #: Watchdog slack beyond the per-request solver budget: the engine
    #: already enforces ``timeout_s`` itself, so a worker silent for this
    #: long past it is wedged (e.g. stuck in uninterruptible C-level
    #: work), not slow — kill and respawn it.
    grace_s = 15.0

    #: How long a worker may take to report in before the executor
    #: declares startup failed.
    ready_timeout_s = 600.0

    def __init__(
        self,
        problems: Sequence["WarmProblem"],
        workers: int = 2,
        grace_s: Optional[float] = None,
        max_warm_failures: int = 3,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not problems:
            raise ValueError("a ProcessExecutor needs at least one problem")
        #: problem name -> the parent's warm state for it.
        self._warm: Dict[str, "WarmProblem"] = {
            warm.name: warm for warm in problems
        }
        if grace_s is not None:
            self.grace_s = grace_s
        #: Respawn budget for start-up crashes (see ``_WorkerHandle``).
        self.max_warm_failures = max_warm_failures
        self._ctx = multiprocessing.get_context()
        self._recycled = 0
        self._rr = itertools.count()
        self._state_lock = threading.Lock()  # counters + respawn
        self._closed = False
        self.workers = workers
        self._workers = [_WorkerHandle(index) for index in range(workers)]
        for handle in self._workers:
            self._start(handle)

    # -- lifecycle -----------------------------------------------------------

    def _start(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                self._warm,
                # Drawn per spawn, so a one-shot warm crash kills one
                # worker, not every respawn.
                faults.fired("worker.warm_crash"),
            ),
            name=f"repro-grader-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.ready = False

    def _await_ready(
        self, handle: _WorkerHandle, timeout: Optional[float] = None
    ) -> None:
        """Consume the worker's startup report (caller holds its lock).

        Raises :class:`TimeoutError` when the worker has not reported in
        yet (it may be healthy, just slow to start — do not kill it) and
        :class:`RuntimeError` when its first message is not that report
        (:class:`EOFError` when it died first).
        """
        if handle.ready:
            return
        window = timeout if timeout is not None else self.ready_timeout_s
        if not handle.conn.poll(window):
            raise TimeoutError(
                f"grading worker {handle.index} did not finish warming "
                f"within {window:.0f}s"
            )
        report = handle.conn.recv()
        if report != "ready":
            raise RuntimeError(
                f"grading worker {handle.index} sent {report!r:.80} "
                "instead of its ready report"
            )
        handle.ready = True
        handle.warm_failures = 0

    def wait_ready(self) -> None:
        """Block until every worker has reported in; raise on failure.

        A failed worker (one that cannot load its warm state under a
        pickling start method, say) fails the whole executor — a pool
        that silently serves a subset of its problems would turn
        requests for the rest into errors much harder to diagnose than a
        refused startup.
        """
        try:
            for handle in self._workers:
                with handle.lock:
                    self._await_ready(handle)
        except BaseException:
            self.close()
            raise

    def _recycle(self, handle: _WorkerHandle) -> None:
        """Kill and respawn a crashed/wedged worker (caller holds lock)."""
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(5.0)
        if handle.conn is not None:
            handle.conn.close()
        with self._state_lock:
            # Respawn under the state lock: a close() that set _closed
            # has either already seen this handle (and will stop the
            # replacement when it reaches it) or is still waiting for
            # this lock — either way no worker outlives the executor.
            self._recycled += 1
            if not self._closed:
                self._start(handle)
        if OBS.default():
            global_registry().counter(
                "repro_worker_recycles_total",
                help="Grading workers killed and respawned (crash/wedge)",
            ).inc()

    def _fail_permanently(self, handle: _WorkerHandle) -> None:
        """Retire a slot whose warmups keep dying (caller holds its lock).

        No respawn: ``max_warm_failures`` consecutive warm crashes mean
        the next fork would crash too. The slot takes no more requests and
        ``/healthz`` reports it until the process restarts.
        """
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(5.0)
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        handle.ready = False
        handle.failed = True
        emit(
            "worker_failed_permanently",
            level=logging.ERROR,
            worker=handle.index,
            warm_failures=handle.warm_failures,
        )
        if OBS.default():
            global_registry().counter(
                "repro_worker_permanent_failures_total",
                help=(
                    "Grading workers retired after repeated warmup "
                    "failures (never respawned)"
                ),
            ).inc()

    def close(self) -> None:
        """Stop every worker. Safe to call twice.

        Each slot is stopped under its own lock so the pipe is never
        touched concurrently with an in-flight grading
        (``multiprocessing.Connection`` is not thread-safe). A slot
        whose lock cannot be had promptly — a grading still running
        after a drain-less close — is killed without the handshake; its
        grading thread sees EOF and reports an error record.
        """
        with self._state_lock:
            self._closed = True
        for handle in self._workers:
            locked = handle.lock.acquire(timeout=2.0)
            try:
                conn, process = handle.conn, handle.process
                if locked and conn is not None:
                    try:
                        conn.send(("stop",))
                    except OSError:
                        pass
                if process is not None:
                    process.join(2.0)
                    if process.is_alive():
                        process.kill()
                        process.join(5.0)
                if locked and conn is not None:
                    conn.close()
            finally:
                if locked:
                    handle.lock.release()

    # -- request path --------------------------------------------------------

    def _acquire(self) -> _WorkerHandle:
        """A locked handle for a worker that has not failed for good.

        Preference order, rotating the starting offset so the pool
        spreads load: idle *ready* workers, then idle ones that have not
        reported in (startup, or a freshly recycled slot — a request
        stuck waiting on a start-up is strictly worse than one queued
        behind a short grading), then block on one round-robin —
        fairness comes from the service's admission gate, which bounds
        how many requests contend here.
        """
        eligible = [handle for handle in self._workers if not handle.failed]
        if not eligible:
            raise RuntimeError(
                "all grading workers have permanently failed (warmup "
                "crash cap reached); restart the server"
            )
        offset = next(self._rr)
        count = len(eligible)
        for only_ready in (True, False):
            for index in range(count):
                handle = eligible[(offset + index) % count]
                # handle.ready is read unlocked: stale False just demotes
                # a freshly-ready worker to the second pass.
                if only_ready and not handle.ready:
                    continue
                if handle.lock.acquire(blocking=False):
                    return handle
        ready = [handle for handle in eligible if handle.ready]
        pool = ready or eligible
        handle = pool[offset % len(pool)]
        handle.lock.acquire()
        return handle

    def grade(
        self,
        problem: str,
        source: str,
        config: GradingConfig,
        request_id: str = "",
        deadline: Optional[Deadline] = None,
    ) -> dict:
        """Dispatch one grading to a free worker.

        ``deadline`` is accepted for executor-contract parity but unused
        here: monotonic instants do not cross process boundaries, so the
        service ships the *remaining* budget as the config's shrunk
        ``timeout_s`` and the worker restarts a local clock.
        """
        if problem not in self._warm:
            raise KeyError(f"no grading worker serves problem {problem!r}")
        handle = self._acquire()
        window = max(0.0, config.timeout_s) + self.grace_s
        try:
            if not handle.ready:
                # A freshly recycled worker reports in asynchronously;
                # wait at most this request's own budget for it — holding
                # the admission slot for ready_timeout_s would re-create
                # the wedge the watchdog exists to break.
                try:
                    self._await_ready(handle, timeout=window)
                except TimeoutError as exc:
                    # Not reported in yet — healthy, just slow. Leave it
                    # alone (killing it would restart it from zero).
                    return error_record(problem, exc)
                except (EOFError, RuntimeError, OSError) as exc:
                    # Start-up failed outright (the worker died before
                    # reporting in and the pipe hit EOF, or garbled its
                    # report): this worker will never serve as-is.
                    # Ordering matters — TimeoutError is an OSError, so
                    # the leave-it-alone case is caught above. Respawn up
                    # to the cap; past it the slot is retired for good (a
                    # deterministic warm crash would thrash forks forever).
                    handle.warm_failures += 1
                    if handle.warm_failures >= self.max_warm_failures:
                        self._fail_permanently(handle)
                        return error_record(
                            problem,
                            RuntimeError(
                                f"grading worker {handle.index} failed "
                                f"warmup {handle.warm_failures} times and "
                                f"was permanently retired ({exc})"
                            ),
                        )
                    self._recycle(handle)
                    return error_record(problem, exc)
            try:
                handle.conn.send(
                    (
                        "grade",
                        problem,
                        source,
                        config,
                        request_id,
                        faults.draw(_WORKER_FAULTS, _WORKER_FAULT_ENDS),
                    )
                )
                if handle.conn.poll(window):
                    reply = handle.conn.recv()
                    if (
                        isinstance(reply, tuple)
                        and len(reply) >= 2
                        and reply[0] == "record"
                        and isinstance(reply[1], dict)
                    ):
                        # Counted here, from the record: /metrics and
                        # /stats in the parent cover every worker.
                        if OBS.default():
                            observe_grading(reply[1], config.engine)
                        return reply[1]
                    # A reply the parent cannot parse means the worker's
                    # pipe framing can no longer be trusted — recycle it
                    # rather than raise through the service layer.
                    self._recycle(handle)
                    return error_record(
                        problem,
                        RuntimeError(
                            f"grading worker {handle.index} sent a "
                            f"malformed reply ({reply!r:.80}); worker "
                            "recycled"
                        ),
                    )
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
                # The worker died mid-request; the submission's grading is
                # lost (status=error, never cached) but the slot is not.
                self._recycle(handle)
                return error_record(
                    problem,
                    RuntimeError(
                        f"grading worker {handle.index} died mid-request "
                        f"({type(exc).__name__}); worker recycled"
                    ),
                )
            # poll() timed out: the engine's own deadline is long past, so
            # the worker is wedged — recycle it and report the loss.
            self._recycle(handle)
            return error_record(
                problem,
                TimeoutError(
                    f"grading worker {handle.index} still busy "
                    f"{self.grace_s:.0f}s past the {config.timeout_s:.0f}s "
                    "budget; worker recycled"
                ),
            )
        finally:
            handle.lock.release()

    # -- observability -------------------------------------------------------

    def info(self) -> dict:
        """The ``GET /stats`` view of the pool."""
        with self._state_lock:
            recycled = self._recycled
        return {
            "kind": self.kind,
            "workers": self.workers,
            "recycled": recycled,
        }

    def health(self) -> dict:
        """The ``GET /healthz`` view of the pool: slot readiness.

        ``ready`` flags are read unlocked — a worker that just reported
        in may briefly count as warming, never the reverse for long.
        """
        ready = sum(1 for handle in self._workers if handle.ready)
        failed = sum(1 for handle in self._workers if handle.failed)
        with self._state_lock:
            recycled = self._recycled
        return {
            "workers": self.workers,
            "workers_ready": ready,
            "workers_warming": self.workers - ready - failed,
            "workers_failed": failed,
            "workers_recycled": recycled,
        }
