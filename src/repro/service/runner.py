"""Batch runner: a corpus graded through the serving path.

:class:`BatchRunner` sends every pending submission through
:meth:`FeedbackService.grade <repro.server.service.FeedbackService.grade>`,
the call ``serve`` answers requests with: cache keys, triage, the cache,
error records and the executors are the service's. Each
:meth:`BatchRunner.run` builds a service over the runner's own problem,
error model and verifier (by default the process-wide one corpus
generation fills), and closes it at the end. ``jobs > 1`` feeds
the served :class:`~repro.service.workers.ProcessExecutor` pool, forked
from that warm state, from up to ``jobs`` client threads, one worker
each, so a crashed or wedged worker costs one submission an ``error``
record. The runner adds what a batch has and a request does not:
job-store **resume** (a stored result serves a file only under the key
the file would be graded under now), results in **input order**, a
**progress callback** and :class:`BatchStats`.

Dedup tradeoff: a duplicate receives its *representative's* report
verbatim — status, cost and minimality are exact (α-renaming cannot
change them), but quoted identifiers, line numbers and ``fixed_source``
are phrased in terms of the representative's text. Such results are
flagged ``cached=True`` so callers needing letter-perfect feedback for
every copy can re-render; the classroom payoff (the one conceptual error
half the class shares is solved once) is why dedup is the default. The
representative is the first copy in input order at any ``jobs``: with
``jobs > 1`` the copies sharing a cache key go to one client thread,
first copy first, so the rest are cache hits that never hold a thread
while it grades, and the pool has no more workers than distinct keys
the cache cannot answer (with none, the run grades in-thread).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.api import TIMEOUT as TIMEOUT_STATUS
from repro.core.api import FeedbackReport, _verifier_cache
from repro.eml.rules import ErrorModel
from repro.problems.registry import Problem
from repro.service.cache import (
    DEFAULT_ENGINE,
    DEFAULT_TIMEOUT_S,
    GradingConfig,
    ResultCache,
    static_key,
)
from repro.service.canonical import canonicalize, model_digest
from repro.service.jobstore import JobStore
from repro.service.records import ERROR, record_to_report
from repro.service.workers import PROCESS, THREAD

# Not called here: the benchmark's per-layer tracer (perfbench/pb/trace.py)
# looks it up in this module and patches it where it is held.
from repro.core.api import generate_feedback  # noqa: F401

if TYPE_CHECKING:
    from repro.engines.verify import BoundedVerifier
    from repro.server.service import FeedbackService, GradeOutcome

#: Callback signature: (settled so far, total, the result that settled).
ProgressFn = Callable[[int, int, "BatchResult"], None]


@dataclass(frozen=True)
class BatchItem:
    """One submission in a batch."""

    sid: str
    source: str


@dataclass
class BatchResult:
    """The outcome for one submission."""

    sid: str
    report: FeedbackReport
    canonical: str
    #: True when the report came from the cache or from a duplicate
    #: submission graded by another item of this batch.
    cached: bool = False
    #: True when the report was loaded from the job store (resume).
    resumed: bool = False


@dataclass
class BatchStats:
    """Work accounting for one :meth:`BatchRunner.run`."""

    total: int = 0
    graded: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    resumed: int = 0
    wall_time: float = 0.0
    by_status: Dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Submissions the batch did not actually settle: solver timeouts
        and gradings that raised. ``no_fix``/``syntax_error`` are honest
        verdicts about the submission, not failures of the batch."""
        return self.by_status.get(TIMEOUT_STATUS, 0) + self.by_status.get(
            ERROR, 0
        )


class BatchRunner:
    """Grade a batch of submissions for one problem."""

    def __init__(
        self,
        problem: Problem,
        model: Optional[ErrorModel] = None,
        jobs: int = 1,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        engine: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        store: Optional[JobStore] = None,
        resume: bool = False,
        progress: Optional[ProgressFn] = None,
        verifier: Optional["BoundedVerifier"] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.problem = problem
        self.model = model if model is not None else problem.model
        self.jobs = jobs
        #: Built once here, so the resume keys and every run's gradings
        #: agree.
        self.config = GradingConfig(engine or DEFAULT_ENGINE, timeout_s)
        self.cache = cache if cache is not None else ResultCache()
        self.store = store
        self.resume = resume
        self.progress = progress
        #: The verifier for the problem's spec, reused by each run; by
        #: default the one corpus generation shares.
        self.verifier = (
            verifier if verifier is not None else _verifier_cache(problem.spec)
        )
        self.stats = BatchStats()
        self._model_digest = model_digest(self.model)

    def _keys(self, source: str) -> Tuple[str, str]:
        """The graded and the static key the service gives ``source``."""
        name = self.problem.name
        digest = canonicalize(source, self.problem.spec).digest
        return (
            self.config.key(name, self._model_digest, digest),
            static_key(name, self._model_digest, digest),
        )

    def run(
        self, items: Sequence[Union[BatchItem, str]]
    ) -> List[BatchResult]:
        """Grade ``items``; results are returned in input order."""
        started = time.monotonic()
        batch = [
            item
            if isinstance(item, BatchItem)
            else BatchItem(sid=f"s{index:04d}", source=item)
            for index, item in enumerate(items)
        ]
        results: Dict[int, BatchResult] = {}
        outcomes: Dict[int, "GradeOutcome"] = {}
        lock = threading.Lock()

        def settle(
            index: int, record: dict, key: str, outcome: Optional["GradeOutcome"]
        ) -> None:
            """File one result; ``outcome`` is None for a resumed one."""
            cached = outcome is None or outcome.cached
            report = record_to_report(record)
            result = BatchResult(batch[index].sid, report, key, cached, outcome is None)
            with lock:
                results[index] = result
                if outcome is not None:
                    outcomes[index] = outcome
                    # Error records are transient: a resume re-grades them.
                    if self.store is not None and record["status"] != ERROR:
                        self.store.append(result.sid, record, key=key)
                if self.progress is not None:
                    self.progress(len(results), len(batch), result)

        completed = self.store.load() if (self.store and self.resume) else {}
        pending: List[int] = []
        for index, item in enumerate(batch):
            entry = completed.get(item.sid)
            # A stored result resumes only under a key the service would
            # file this source under now: the same problem, model, engine
            # and budget (a triage verdict: the same model) and the same
            # submission up to α-renaming. Anything else, an edited file
            # or an edited error model, is re-graded.
            if entry is None or entry.get("key") not in self._keys(item.source):
                pending.append(index)
                continue
            # Seed the cache so still-pending duplicates of this
            # submission are served, not re-solved.
            if self.cache.peek(entry["key"]) is None:
                self.cache.put(entry["key"], entry["report"])
            settle(index, entry["report"], entry["key"], None)

        if pending:
            copies: Dict[str, List[int]] = {}
            unanswered: Set[str] = set()
            if self.jobs > 1:
                for index in pending:
                    graded, static = self._keys(batch[index].source)
                    copies.setdefault(graded, []).append(index)
                    if graded not in self.cache and static not in self.cache:
                        unanswered.add(graded)
            # A pool worker per distinct submission the cache cannot
            # answer, up to ``jobs``, and a client thread per worker: a
            # copy is a cache hit on its representative's thread. With
            # nothing to grade the run stays in-thread.
            workers = min(self.jobs, len(unanswered))
            service = self._service(workers)

            def grade(indices: List[int]) -> None:
                for index in indices:
                    outcome = service.grade(self.problem.name, batch[index].source)
                    settle(index, outcome.record, outcome.key, outcome)

            try:
                if not workers:
                    grade(pending)
                else:
                    clients = ThreadPoolExecutor(workers)
                    try:
                        list(clients.map(grade, copies.values()))
                    finally:
                        clients.shutdown(cancel_futures=True)
            finally:
                service.close()
        else:
            self.cache.flush()

        self.stats = _count(results, outcomes)
        self.stats.wall_time = time.monotonic() - started
        return [results[index] for index in range(len(batch))]

    def _service(self, workers: int) -> "FeedbackService":
        """The one-problem service a run grades through: a pool of
        ``workers`` processes, or the thread executor for none."""
        # Cycle break: repro.server imports this package.
        from repro.server.service import FeedbackService
        from repro.server.warm import Warmup, warm_problem

        warm = warm_problem(
            self.problem,
            self.config,
            model=self.model,
            verifier=self.verifier,
            prime=False,
        )
        return FeedbackService(
            warmup=Warmup(problems={self.problem.name: warm}),
            jobs=max(1, workers),
            queue_limit=0,  # at most ``jobs`` requests are ever in flight
            cache=self.cache,
            config=self.config,
            # Explicit, so REPRO_EXECUTOR cannot make a serial batch a pool.
            executor=PROCESS if workers else THREAD,
            # No breakers: a run of timeouts on one problem must not turn
            # the rest of a corpus into degraded records.
            breaker_threshold=0,
        )


def _count(
    results: Dict[int, BatchResult], outcomes: Dict[int, "GradeOutcome"]
) -> BatchStats:
    """Account a finished run.

    A cached outcome is a duplicate when another item of the run graded
    its key, else a cache hit.
    """
    served = [o for o in outcomes.values() if o.cached]
    graded_keys = {o.key for o in outcomes.values() if not o.cached}
    dedup_hits = sum(o.key in graded_keys for o in served)
    return BatchStats(
        total=len(results),
        graded=len(outcomes) - len(served),
        cache_hits=len(served) - dedup_hits,
        dedup_hits=dedup_hits,
        resumed=len(results) - len(outcomes),
        by_status=dict(Counter(r.report.status for r in results.values())),
    )
