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
  and self-tests them once, and every worker is forked from it and
  serves the copy it inherits. A worker never warms, builds a verifier
  table or primes, so it has nothing to start: it serves from the
  moment it exists. Every worker serves every warm problem, so a
  request goes to any free worker. A worker that crashes or blows
  through its watchdog budget is **recycled** — killed and forked anew
  from the same warm parent — so one pathological submission can never
  permanently wedge a grading slot.

The thread executor (grade on the calling request thread) lives next to
:class:`~repro.server.service.FeedbackService`; both satisfy the same
contract: ``grade(problem, source, config, request_id) -> record``,
``close()``, and ``info()``/``health()`` payloads. ``config`` is the
service's :class:`~repro.service.cache.GradingConfig` under the
request's engine and remaining budget, the one form the budget takes
on its way to a grading; it travels with each request on the pipe. The
execution backend does not travel: a forked worker inherits its
parent's :data:`~repro.compile.BACKEND`.
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
    call (a fresh engine of its name, its budget), so records are
    byte-identical whichever executor ran them. A raising grading comes
    back as an error record, not an exception — one pathological
    submission must cost its own slot only. It records no metrics: the
    executor observes the record in the serving process.

    ``deadline`` is where the grading must stop. ``None`` starts one
    from ``config.timeout_s`` here, before the chaos seams, so an
    injected stall spends from it: an executor hands over the budget
    remaining as the config's ``timeout_s``, and the clock restarts on
    receipt (a pool worker starts its own as a request lands).

    ``drawn`` is the chaos a pool worker's parent drew for this request;
    ``None`` consults the live fault plan here.
    """
    if deadline is None:
        deadline = Deadline.after(config.timeout_s)
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
            deadline=deadline,
        )
        return report_to_record(report)
    except Exception as exc:
        return error_record(warm.name, exc)


# -- the preforked worker pool -------------------------------------------------


def _pool_worker_main(conn, state: Dict[str, "WarmProblem"]) -> None:
    """One pool worker: serve the pipe from ``state``.

    Runs in the forked child. ``state`` is the parent's warm problems,
    built and primed before the fork: the worker grades against them as
    they are. The parent dispatches only problems it warmed.

    The worker consults no fault plan: it drops the one it inherited and
    acts out only what the parent drew for each request.
    """
    faults.configure(None)
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

    __slots__ = ("index", "process", "conn", "lock")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.lock = threading.Lock()


class ProcessExecutor:
    """A pool of preforked grading worker processes over warm problems.

    ``problems`` are the parent's warm problems, already built (and
    primed, when the caller primes): construction forks ``workers``
    processes at once, each serving every problem from the copy it
    inherits. The pool always forks, whatever the platform's default
    start method: nothing is pickled to a worker, and it has nothing to
    start. A fork that fails stops the workers already forked and
    raises, so a pool that cannot start refuses startup.
    """

    kind = PROCESS

    #: Watchdog slack beyond the per-request solver budget: the engine
    #: already enforces ``timeout_s`` itself, so a worker silent for this
    #: long past it is wedged (e.g. stuck in uninterruptible C-level
    #: work), not slow — kill and respawn it.
    grace_s = 15.0

    def __init__(self, problems: Sequence["WarmProblem"], workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not problems:
            raise ValueError("a ProcessExecutor needs at least one problem")
        #: problem name -> the parent's warm state for it.
        self._warm: Dict[str, "WarmProblem"] = {
            warm.name: warm for warm in problems
        }
        self._ctx = multiprocessing.get_context("fork")
        self._recycled = 0
        self._rr = itertools.count()
        self._state_lock = threading.Lock()  # counters + respawn
        self._closed = False
        self.workers = workers
        self._workers = [_WorkerHandle(index) for index in range(workers)]
        try:
            for handle in self._workers:
                self._start(handle)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    def _start(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self._warm),
            name=f"repro-grader-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn

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
        """A locked worker handle.

        One non-blocking pass over the pool, rotating the starting offset
        so the pool spreads load, then a block on one worker round-robin
        — fairness comes from the service's admission gate, which bounds
        how many requests contend here.
        """
        offset = next(self._rr)
        count = len(self._workers)
        for index in range(count):
            handle = self._workers[(offset + index) % count]
            if handle.lock.acquire(blocking=False):
                return handle
        handle = self._workers[offset % count]
        handle.lock.acquire()
        return handle

    def grade(
        self,
        problem: str,
        source: str,
        config: GradingConfig,
        request_id: str = "",
    ) -> dict:
        """Dispatch one grading to a free worker; ``config.timeout_s`` is
        the budget it has left, and the worker starts its clock from it."""
        if problem not in self._warm:
            raise KeyError(f"no grading worker serves problem {problem!r}")
        handle = self._acquire()
        window = config.timeout_s + self.grace_s
        try:
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
                replied = handle.conn.poll(window)
                reply = handle.conn.recv() if replied else None
            except (EOFError, OSError) as exc:
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
            except BaseException:
                # The request is on the pipe and its reply unread (a wait
                # the OS refuses, an interrupt): that reply would answer
                # the next request here, so this worker goes.
                self._recycle(handle)
                raise
            if not replied:
                # The engine's own deadline is long past, so the worker
                # is wedged — recycle it and report the loss.
                self._recycle(handle)
                return error_record(
                    problem,
                    TimeoutError(
                        f"grading worker {handle.index} still busy "
                        f"{self.grace_s:.0f}s past the "
                        f"{config.timeout_s:.0f}s budget; worker recycled"
                    ),
                )
            if (
                isinstance(reply, tuple)
                and len(reply) >= 2
                and reply[0] == "record"
                and isinstance(reply[1], dict)
            ):
                # Counted here, from the record: /metrics and /stats in
                # the parent cover every worker.
                if OBS.default():
                    observe_grading(reply[1], config.engine)
                return reply[1]
            # A reply the parent cannot parse means the worker's pipe
            # framing can no longer be trusted — recycle it rather than
            # raise through the service layer.
            self._recycle(handle)
            return error_record(
                problem,
                RuntimeError(
                    f"grading worker {handle.index} sent a malformed reply "
                    f"({reply!r:.80}); worker recycled"
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
        """The ``GET /healthz`` view of the pool: its size and recycles."""
        with self._state_lock:
            recycled = self._recycled
        return {"workers": self.workers, "workers_recycled": recycled}
