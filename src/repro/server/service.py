"""The request-serving core: admission, dedup, cache, grading.

:class:`FeedbackService` is the transport-independent heart of the
feedback daemon — the HTTP layer is a thin JSON shim over it, and tests
drive it directly with threads. One instance owns:

- the **warm problems** (see :mod:`repro.server.warm`): requests never
  parse a reference, load a model, or enumerate a bounded space;
- an **admission gate**: at most ``jobs`` gradings run concurrently;
  up to ``queue_limit`` more wait their turn, and anything beyond that
  is rejected immediately with a retry hint (backpressure beats
  unbounded latency — a queue that can only grow is an outage with
  extra steps);
- a **grading executor** (``executor="thread" | "process"``): where an
  admitted cache-miss actually runs. ``thread`` grades on the request
  thread against the shared warm verifiers — simple, but the engine
  loop is pure-Python CPU work, so the GIL caps throughput at one core
  no matter what ``jobs`` says. ``process`` dispatches to a
  :class:`~repro.service.workers.ProcessExecutor` pool of ``jobs``
  worker processes forked from this one's warm problems, each serving
  every problem, the only configuration where ``--jobs 4`` buys 4
  cores of cache-miss throughput. Either way the
  warm problems are built (and primed) once, in this process;
- **in-flight dedup**: concurrent identical submissions (same cache
  key) ride one grading — the followers await the leader's record
  without consuming admission slots;
- one shared :class:`~repro.service.cache.ResultCache` (thread-safe).
  Pass a :class:`~repro.service.store.StoreClient` to persist it: the
  client writes puts behind to its append-log by count and by age, and
  :meth:`FeedbackService.close` flushes the rest.

Every key comes from the service's one
:class:`~repro.service.cache.GradingConfig`, resolved at construction;
a miss grades under it with the request's engine and remaining budget.
The batch runner grades through this class too (and groups a corpus's
copies by :meth:`FeedbackService.key`), so server, batch runner and
fleet all hit each other's entries.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from concurrent.futures import Future

from repro.analysis.triage import triage_record
from repro.compile import BACKEND
from repro.engines import ENGINES
from repro.obs import (
    OBS,
    SLOW_MS,
    global_registry,
    new_request_id,
    observe_grading,
    render,
)
from repro.obs.events import grading_event
from repro.resilience.breaker import HALF_OPEN, OPEN, BreakerBoard
from repro.resilience.deadline import Deadline, budget as checked_budget
from repro.resilience.degrade import submission_failing_tests
from repro.server.warm import Warmup, warm_registry
from repro.service.cache import GradingConfig, ResultCache, static_key
from repro.service.canonical import canonicalize, memo_info
from repro.service.records import (
    DEGRADED,
    ERROR,
    TIMEOUT,
    degraded_record,
    error_record,
    timeout_record,
)
from repro.service.workers import (
    EXECUTOR,
    PROCESS,
    THREAD,
    ProcessExecutor,
    grade_record,
)


class UnknownProblem(KeyError):
    """The request names a problem the server did not warm."""


class QueueFull(RuntimeError):
    """Admission rejected the request; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"grading queue is full; retry after {retry_after_s:.0f}s"
        )
        self.retry_after_s = retry_after_s


class ServiceClosed(RuntimeError):
    """The service is shutting down and takes no new work."""


@dataclass
class GradeOutcome:
    """One served grading."""

    record: dict
    key: str
    #: Served straight from the result cache.
    cached: bool = False
    #: Waited on an identical in-flight grading instead of running one.
    deduped: bool = False
    #: Request wall time as observed by the service (queue included).
    wall_time: float = 0.0
    #: The id that traveled with this request (``X-Request-Id`` inbound,
    #: generated here otherwise; empty with observability off).
    request_id: str = ""


class ThreadExecutor:
    """Grade on the calling request thread against shared warm state.

    The zero-infrastructure executor: no extra processes, submissions
    share the parent's fully-materialized verifiers. The price is the
    GIL — concurrent cache-miss gradings serialize, so ``jobs`` buys
    overlap only with I/O, never with other solves. The actual grading
    is :func:`~repro.service.workers.grade_record`, the same per-call-
    pinned helper the process workers run — the executors cannot drift.
    """

    kind = THREAD

    def __init__(self, warmup: Warmup):
        self._warmup = warmup

    def grade(
        self,
        problem: str,
        source: str,
        config: GradingConfig,
        request_id: str = "",
    ) -> dict:
        record = grade_record(self._warmup[problem], source, config)
        if OBS.default():
            observe_grading(record, config.engine)
        return record

    def close(self) -> None:
        pass

    def info(self) -> dict:
        return {"kind": self.kind}

    def health(self) -> dict:
        return {}


class FeedbackService:
    """Thread-safe grading service over a set of warm problems."""

    def __init__(
        self,
        warmup: Optional[Warmup] = None,
        jobs: int = 2,
        queue_limit: int = 16,
        cache: Optional[ResultCache] = None,
        config: Optional[GradingConfig] = None,
        executor: Optional[str] = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        node_id: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        #: Resolved once here (``None`` = the process defaults now).
        self.config = config if config is not None else GradingConfig()
        self.executor = EXECUTOR.resolve(executor)
        if warmup is None:
            warmup = warm_registry(config=self.config)
        # The one warm copy: requests are canonicalized against it,
        # /problems reports from it, the thread executor grades on it,
        # and a process pool forks from it (priming, the self-test, ran
        # when it was warmed, before any worker exists).
        self.warmup = warmup
        self.jobs = jobs
        self.queue_limit = queue_limit
        self.cache = cache if cache is not None else ResultCache()
        #: Slow-grading event threshold, resolved once at startup (the
        #: process default, else ``REPRO_SLOW_MS``) — per-request event
        #: emission must not re-read the environment.
        self.slow_ms = SLOW_MS.default()
        if self.executor == PROCESS:
            # One worker per grading slot: admission never lets more
            # than ``jobs`` gradings contend for the pool.
            self._executor = ProcessExecutor(
                problems=list(self.warmup.problems.values()), workers=jobs
            )
        else:
            self._executor = ThreadExecutor(self.warmup)

        self._slots = threading.Semaphore(jobs)
        self._inflight: Dict[str, Future] = {}
        self._lock = threading.Lock()  # counters + inflight map
        self._idle = threading.Condition(self._lock)
        self._queued = 0
        self._active = 0
        #: Requests admitted past the closed-check and not yet returned
        #: (cache hits and dedup followers included) — what drain waits on.
        self._pending = 0
        self._closed = False
        self._started = time.monotonic()
        #: Stable identity of this service instance. Explicit in a fleet
        #: (``serve --node-id``), where the router keys its aggregated
        #: ``/healthz``/``/stats`` views by it; the default is unique per
        #: process and constant for the process lifetime.
        self.node_id = node_id or f"{socket.gethostname()}-{os.getpid()}"
        self._served: Dict[str, int] = {}
        #: Per-problem and per-canonical-hash circuit breakers: repeated
        #: timeouts/crashes on one problem (or one exact submission) open
        #: the breaker and requests short-circuit to degraded feedback
        #: until a half-open probe succeeds. ``breaker_threshold=0``
        #: disables the board — the resilience-off configuration.
        self.breakers = BreakerBoard(
            threshold=breaker_threshold, reset_s=breaker_reset_s
        )
        self._counters = {
            "requests": 0,
            "graded": 0,
            "cache_hits": 0,
            "dedup_hits": 0,
            "degraded": 0,
            "triaged": 0,
            "rejected": 0,
            "errors": 0,
        }
        self._by_status: Dict[str, int] = {}
        #: Exponential moving average of grading wall time, the basis of
        #: the 429 Retry-After hint.
        self._avg_grade_s = 0.5
        #: Lazily-bound registry cells for the per-request hot path
        #: (see :meth:`_obs_handles`). ``None`` until the first
        #: telemetry-on request, so an obs-off process declares nothing.
        self._obs_cache: Optional[dict] = None

    # -- public API ---------------------------------------------------------

    def key(self, problem: str, source: str) -> str:
        """The cache key :meth:`grade` gives ``source`` under the
        service's config: α-renamed copies share it."""
        warm = self._warm(problem)
        return self.config.key(
            warm.name, warm.model_digest, canonicalize(source, warm.spec).digest
        )

    def grade(
        self,
        problem: str,
        source: str,
        engine: Optional[str] = None,
        timeout_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> GradeOutcome:
        """Grade one submission; safe to call from many threads.

        ``request_id`` is the caller-supplied trace id (the HTTP layer
        forwards ``X-Request-Id``); one is generated when observability
        is on and the caller sent none. A ``timeout_s`` out of
        :func:`~repro.resilience.deadline.budget`'s bound raises first.
        """
        if timeout_s is not None:
            timeout_s = checked_budget(timeout_s)
        started = time.monotonic()
        obs_on = OBS.default()
        request_id = request_id or (new_request_id() if obs_on else "")
        stages: Optional[Dict[str, float]] = {} if obs_on else None
        warm = self._warm(problem)
        if engine and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        budget = timeout_s if timeout_s is not None else self.config.timeout_s
        # The end-to-end deadline: everything from here — canonicalize,
        # queue wait, worker dispatch, the solve itself — spends from one
        # monotonic budget, so a pathological submission cannot hold its
        # slot past ``budget`` plus the watchdog grace.
        deadline = Deadline.after(budget)

        form = canonicalize(source, warm.spec)
        # A request config is built on a miss only.
        key = self.config.key(
            warm.name, warm.model_digest, form.digest, engine, budget
        )
        triage_key = static_key(warm.name, warm.model_digest, form.digest)
        breaker_keys = (
            f"problem:{warm.name}",
            f"hash:{warm.name}:{form.digest}",
        )
        if stages is not None:
            stages["canonicalize"] = time.monotonic() - started
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            self._counters["requests"] += 1
            self._served[warm.name] = self._served.get(warm.name, 0) + 1
            # From the closed-check on, this request is visible to
            # close(drain=True): the same locked section that admits it
            # marks it pending, so no request can slip into the gap
            # between the check and the queue/in-flight registration.
            self._pending += 1
        try:
            return self._graded_outcome(
                warm, source, engine, budget, key, started,
                request_id, stages, deadline, breaker_keys, triage_key,
            )
        finally:
            with self._idle:
                self._pending -= 1
                self._idle.notify_all()

    def _graded_outcome(
        self, warm, source, engine, budget, key, started,
        request_id, stages, deadline, breaker_keys, triage_key,
    ) -> GradeOutcome:
        lookup_started = time.monotonic()
        record = self.cache.get(key)
        if record is None:
            record = self.cache.get(triage_key)
            if record is not None:
                key = triage_key
        if stages is not None:
            stages["cache_lookup"] = time.monotonic() - lookup_started
        if record is not None:
            return self._finish(
                "cache_hit", record, key, started, request_id, stages,
                cached=True,
            )

        # Pre-grading triage: a <5ms static pass over the submission's
        # candidate space. A verdict means *no* candidate can be
        # equivalent — answer now, spend no admission slot, and cache
        # under the dedicated static address. A pass-through falls to
        # the ordinary grading path below. Stage timing and the
        # repro_triage_total counter are observed inside triage_record,
        # where the pass ran.
        record = triage_record(warm.spec, warm.model, warm.verifier, source)
        if record is not None:
            self.cache.put(triage_key, record)
            return self._finish(
                "triaged", record, triage_key, started, request_id, stages
            )

        # Circuit breakers fire only on the would-grade path: cache hits
        # are free and safe to serve, and a follower rides whatever its
        # leader got. A blocked request gets degraded feedback — failing
        # tests of the submission as written — instead of burning a slot
        # on a problem that is currently timing out or crashing.
        allowed, blocked_key = self.breakers.admit(breaker_keys)
        if not allowed:
            record = self._degraded_fastfail(warm, source, blocked_key)
            return self._finish(
                "degraded", record, key, started, request_id, stages
            )

        future: Future = Future()
        with self._lock:
            # An identical grading may have cached its record and left
            # in-flight since the lookup above: serve it, do not regrade.
            record = self.cache.peek(key)
            if record is None:
                leader_future = self._inflight.setdefault(key, future)
        if record is not None:
            return self._finish(
                "cache_hit", record, key, started, request_id, stages,
                cached=True,
            )
        if leader_future is not future:
            # Follower: an identical submission is being graded right
            # now — await its record instead of solving it again.
            record = leader_future.result()
            return self._finish(
                "dedup", record, key, started, request_id, stages,
                deduped=True,
            )

        try:
            record, cacheable = self._admit_and_grade(
                warm, source, engine, budget, request_id, stages,
                deadline, breaker_keys,
            )
            # Cache before dropping the in-flight entry: an identical
            # submission arriving in between must find one or the other,
            # never a gap that re-grades. Error and degraded records are
            # never cached (a retry must re-grade), nor is a timeout
            # graded under a queue-shortened budget — under this key it
            # would impersonate a full-budget verdict.
            if record["status"] not in (ERROR, DEGRADED) and cacheable:
                self.cache.put(key, record)
            future.set_result(record)
        except BaseException as exc:
            # Followers of this key must fail the same way the leader did
            # (a QueueFull leader means its clones were over capacity too).
            future.set_exception(exc)
            raise
        finally:
            with self._idle:
                del self._inflight[key]
                self._idle.notify_all()

        return self._finish(
            "graded", record, key, started, request_id, stages
        )

    _OUTCOME_COUNTERS = {
        "cache_hit": "cache_hits",
        "dedup": "dedup_hits",
        "graded": "graded",
        "degraded": "degraded",
        "triaged": "triaged",
    }

    def _obs_handles(self) -> dict:
        """Bound registry cells for the per-request path, built lazily.

        Resolving an instrument by name and a label set to its cell on
        every request costs more than the actual count/observe; the
        bound views skip both. Keyed to the registry identity so a
        ``reset_global_registry()`` (tests) transparently rebinds.
        """
        registry = global_registry()
        handles = self._obs_cache
        if handles is None or handles["registry"] is not registry:
            handles = self._obs_cache = {
                "registry": registry,
                "requests_total": registry.counter(
                    "repro_requests_total",
                    help="Requests served, by outcome",
                    labelnames=("problem", "outcome"),
                ),
                "request_seconds": registry.histogram(
                    "repro_request_seconds",
                    help="Request wall time as observed by the service "
                    "(queue wait included)",
                    labelnames=("outcome",),
                ),
                "stage_seconds": registry.histogram(
                    "repro_grading_stage_seconds",
                    help="Per-stage latency of the grading pipeline",
                    labelnames=("stage",),
                ),
                "request_cells": {},
                "outcome_cells": {},
                "stage_cells": {},
            }
        return handles

    def _finish(
        self, outcome, record, key, started, request_id, stages,
        cached=False, deduped=False,
    ) -> GradeOutcome:
        """Count, observe and wrap one served request (every exit path)."""
        wall_time = time.monotonic() - started
        self._count_status(record, self._OUTCOME_COUNTERS[outcome])
        if stages is not None:  # observability on
            handles = self._obs_handles()
            problem = record.get("problem", "")
            cell = handles["request_cells"].get((problem, outcome))
            if cell is None:
                cell = handles["request_cells"][(problem, outcome)] = (
                    handles["requests_total"].labels(
                        problem=problem, outcome=outcome
                    )
                )
            cell.inc()
            seconds_cell = handles["outcome_cells"].get(outcome)
            if seconds_cell is None:
                seconds_cell = handles["outcome_cells"][outcome] = (
                    handles["request_seconds"].labels(outcome=outcome)
                )
            seconds_cell.observe(wall_time)
            # Parent-side stages only: the executor observed the
            # grading-side stages from the record — re-observing them
            # here would double count.
            stage_cells = handles["stage_cells"]
            for stage, seconds in stages.items():
                stage_cell = stage_cells.get(stage)
                if stage_cell is None:
                    stage_cell = stage_cells[stage] = (
                        handles["stage_seconds"].labels(stage=stage)
                    )
                stage_cell.observe(seconds)
            metrics = record.get("metrics")
            grading_event(
                request_id,
                problem,
                record.get("status", "?"),
                wall_time,
                stages=stages,
                grading_stages=(
                    metrics.get("stages")
                    if isinstance(metrics, dict)
                    else None
                ),
                slow_ms=self.slow_ms,
                outcome=outcome,
            )
        return GradeOutcome(
            record=record,
            key=key,
            cached=cached,
            deduped=deduped,
            wall_time=wall_time,
            request_id=request_id,
        )

    def stats(self) -> dict:
        """The ``GET /stats`` payload."""
        with self._lock:
            counters = dict(self._counters)
            by_status = dict(self._by_status)
            served = dict(self._served)
            queued = self._queued
            active = self._active
            # Snapshotted inside the locked section with everything
            # else: _avg_grade_s is written under the lock by graders,
            # and executor.info() reads recycle counts that must be
            # coherent with the request counters above.
            avg_grade_s = self._avg_grade_s
            executor_info = self._executor.info()
        registry = global_registry()
        payload = {
            "node_id": self.node_id,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "jobs": self.jobs,
            "queue_limit": self.queue_limit,
            "active": active,
            "queued": queued,
            "backend": BACKEND.default(),
            "executor": executor_info,
            "by_status": by_status,
            "avg_grade_s": round(avg_grade_s, 4),
            "breakers": self.breakers.stats(),
            "cache": self.cache.stats,
            #: The canonical-form memo's counts, process-wide (every
            #: service, batch runner and router in this process shares it).
            "canonical": memo_info(),
            "problems": {
                name: served.get(name, 0) for name in self.warmup.problems
            },
            #: Histogram-backed percentiles (empty until observed, and
            #: with observability off): request latency by outcome,
            #: grading latency by problem, stage latency by stage.
            "latency": {
                "request_seconds": registry.histogram_summary(
                    "repro_request_seconds"
                ),
                "grading_seconds": registry.histogram_summary(
                    "repro_grading_seconds"
                ),
                "stage_seconds": registry.histogram_summary(
                    "repro_grading_stage_seconds"
                ),
            },
        }
        payload.update(counters)
        return payload

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus exposition body.

        Point-in-time gauges are refreshed at scrape time; counters and
        histograms accumulate as requests are served (worker-process
        contributions arrive merged via the result pipe).
        """
        registry = global_registry()
        with self._lock:
            queued = self._queued
            active = self._active
        registry.gauge(
            "repro_uptime_seconds", help="Service uptime"
        ).set(round(time.monotonic() - self._started, 3))
        registry.gauge(
            "repro_queue_depth", help="Requests waiting for a grading slot"
        ).set(queued)
        registry.gauge(
            "repro_active_gradings", help="Gradings running right now"
        ).set(active)
        registry.gauge(
            "repro_cache_entries", help="Result-cache entries resident"
        ).set(self.cache.stats.get("entries", 0))
        memo = memo_info()
        for key, help_text in (
            ("hits", "Canonicalizations answered from the memo"),
            ("misses", "Canonicalizations computed (memo misses)"),
            ("entries", "Canonical forms resident in the memo"),
        ):
            registry.gauge(
                f"repro_canonical_memo_{key}", help=help_text
            ).set(memo[f"memo_{key}"])
        for key, value in self._executor.health().items():
            registry.gauge(
                f"repro_{key}",
                help=f"Worker pool: {key.replace('_', ' ')}",
            ).set(value)
        breakers = self.breakers.stats()
        registry.gauge(
            "repro_breaker_open",
            help="Circuit breakers currently open",
        ).set(breakers["open"])
        registry.gauge(
            "repro_breaker_half_open",
            help="Circuit breakers currently probing (half-open)",
        ).set(breakers["half_open"])
        registry.gauge(
            "repro_breaker_tracked",
            help="Circuit-breaker keys with recorded state",
        ).set(breakers["tracked"])
        registry.gauge(
            "repro_breaker_opens",
            help="Circuit-breaker open transitions since startup",
        ).set(breakers["opened_total"])
        return render(registry.snapshot())

    def problems_info(self) -> list:
        return [warm.info() for warm in self.warmup.problems.values()]

    def healthz(self) -> dict:
        with self._lock:
            closed = self._closed
        payload = {
            "status": "draining" if closed else "ok",
            "node_id": self.node_id,
            "problems": len(self.warmup),
            "uptime_s": round(time.monotonic() - self._started, 3),
        }
        # A process pool reports its size and its recycles; the thread
        # executor has nothing to add.
        payload.update(self._executor.health())
        snapshot = self.breakers.snapshot()
        payload["breakers_open"] = snapshot[OPEN]
        payload["breakers_half_open"] = snapshot[HALF_OPEN]
        # Degraded = some requests are currently answered with partial
        # feedback: an open breaker.
        payload["degraded"] = bool(snapshot[OPEN])
        return payload

    def close(self, drain: bool = True) -> None:
        """Stop taking work; optionally wait for in-flight gradings.

        Draining waits until the admission queue and every active grading
        settle, so records promised to connected clients are delivered
        and flushed to the cache's store before the process exits.
        """
        with self._idle:
            self._closed = True
            if drain:
                self._idle.wait_for(lambda: self._pending == 0)
        # After the drain, so worker processes never die under an
        # in-flight grading a client is still owed.
        self._executor.close()
        self.cache.flush()

    # -- internals ----------------------------------------------------------

    def _warm(self, problem: str):
        try:
            return self.warmup[problem]
        except KeyError:
            raise UnknownProblem(problem) from None

    #: Queue wear a grading may absorb before its timeout verdict stops
    #: being cache-worthy: a timeout graded with at least ``budget -
    #: grace`` seconds on the clock is the full-budget verdict for all
    #: practical purposes; one graded under a materially shortened clock
    #: is not, and must not be cached under the full-budget key.
    _QUEUE_GRACE_S = 0.25

    def _admit_and_grade(
        self,
        warm,
        source: str,
        engine: Optional[str],
        budget: float,
        request_id: str,
        stages: Optional[Dict[str, float]],
        deadline: Deadline,
        breaker_keys: Tuple[str, ...],
    ) -> Tuple[dict, bool]:
        admit_started = time.monotonic()
        with self._lock:
            # Everything admitted but not finished: the ``jobs`` slots
            # plus at most ``queue_limit`` waiters. Beyond that the queue
            # can only add latency, never throughput — reject now, with a
            # hint sized to how long the backlog needs to clear at the
            # observed grading rate.
            backlog = self._active + self._queued
            if backlog >= self.jobs + self.queue_limit:
                self._counters["rejected"] += 1
                raise QueueFull(
                    max(1.0, backlog * self._avg_grade_s / self.jobs)
                )
            self._queued += 1
        self._slots.acquire()
        with self._lock:
            self._queued -= 1
            self._active += 1
        grade_started = time.monotonic()
        if stages is not None:
            stages["queue_wait"] = grade_started - admit_started
        try:
            remaining = deadline.remaining()
            if remaining <= 0.0:
                # The whole budget died waiting for a slot. Don't start a
                # solve that is already over — answer with a structured
                # timeout plus what we can still compute cheaply.
                record = self._queue_timeout_record(warm, source)
                self.breakers.record(breaker_keys, failure=True)
                return record, False
            # Hand over the *remaining* budget, not the requested one: the
            # config's shrunk timeout_s is the deadline's one travel form
            # (across the worker pipe monotonic instants mean nothing),
            # and the grading restarts its clock from it.
            config = self.config.override(engine, min(budget, remaining))
            try:
                record = self._executor.grade(
                    warm.name, source, config, request_id
                )
            except Exception as exc:
                # Executors return error records themselves; this catches
                # executor-machinery failures (a dead pool, say).
                record = error_record(warm.name, exc)
            self.breakers.record(
                breaker_keys,
                failure=record.get("status") in (TIMEOUT, ERROR),
            )
            cacheable = not (
                record.get("status") == TIMEOUT
                and remaining < budget - self._QUEUE_GRACE_S
            )
            return record, cacheable
        finally:
            elapsed = time.monotonic() - grade_started
            self._slots.release()
            with self._idle:
                self._active -= 1
                self._avg_grade_s = 0.8 * self._avg_grade_s + 0.2 * elapsed
                self._idle.notify_all()

    def _count_degraded(self, reason: str) -> None:
        if OBS.default():
            global_registry().counter(
                "repro_degraded_total",
                help="Requests short-circuited to degraded/partial "
                "feedback, by reason",
                labelnames=("reason",),
            ).labels(reason=reason).inc()

    def _degraded_fastfail(self, warm, source: str, blocked_key: str) -> dict:
        """The open-breaker answer: partial feedback, no solve.

        Failing tests of the submission *as written* over the verifier's
        canonical inputs — deterministic, bounded-fuel, and computed on
        the request thread (a few reference-table lookups plus at most a
        handful of candidate runs; nothing like a solve).
        """
        failing, note = submission_failing_tests(
            warm.spec, warm.verifier, source
        )
        self._count_degraded("breaker_open")
        return degraded_record(
            warm.name,
            reason=f"breaker_open:{blocked_key}",
            failing_tests=failing,
            detail=note
            or "circuit breaker open; served partial feedback without "
            "a solve",
        )

    def _queue_timeout_record(self, warm, source: str) -> dict:
        """The deadline-died-in-queue answer: structured timeout."""
        failing, note = submission_failing_tests(
            warm.spec, warm.verifier, source
        )
        self._count_degraded("deadline_exhausted_in_queue")
        return timeout_record(
            warm.name,
            reason="deadline_exhausted_in_queue",
            failing_tests=failing,
            detail=note
            or "request deadline expired before a grading slot freed",
        )

    def _count_status(self, record: dict, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1
            status = record.get("status", "?")
            self._by_status[status] = self._by_status.get(status, 0) + 1
            if status == ERROR:
                self._counters["errors"] += 1
