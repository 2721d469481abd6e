"""Parallel batch runner: the service's execution core.

Grading a corpus decomposes into four stages, each of which removes work
from the next:

1. **resume** — submissions already in the JSONL job store are loaded,
   not re-graded;
2. **canonicalize** — every remaining submission is content-addressed;
   textual duplicates and α-renamed copies collapse to one address;
3. **cache** — addresses seen before (this run, or earlier runs through a
   :class:`~repro.service.store.StoreClient`) return their record
   instantly;
4. **grade** — the surviving *distinct* submissions fan out over a
   ``ProcessPoolExecutor`` (``jobs=1`` degrades to a serial in-process
   loop sharing one verifier), each with its own solver budget.

Results always come back in input order regardless of completion order,
and an optional progress callback fires as each submission settles.

Dedup tradeoff: a duplicate receives its *representative's* report
verbatim — status, cost and minimality are exact (α-renaming cannot
change them), but quoted identifiers, line numbers and ``fixed_source``
are phrased in terms of the representative's text. Such results are
flagged ``cached=True`` so callers needing letter-perfect feedback for
every copy can re-render; the classroom payoff (the one conceptual error
half the class shares is solved once) is why dedup is the default.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.config import resolve_analysis
from repro.compile import default_backend, using_backend
from repro.core.api import TIMEOUT as TIMEOUT_STATUS
from repro.core.api import FeedbackReport, generate_feedback
from repro.explore import resolve_explorer, using_explorer

if TYPE_CHECKING:
    from repro.engines.verify import BoundedVerifier
from repro.eml.rules import ErrorModel
from repro.engines.base import Engine
from repro.problems.registry import Problem
from repro.service.cache import ResultCache, cache_key, static_key
from repro.service.canonical import canonicalize, model_digest
from repro.service.jobstore import JobStore
from repro.service.records import (
    ERROR,
    STATIC,
    error_record,
    record_to_report,
    report_to_record,
)
from repro.service.workers import worker_grade, worker_init

DEFAULT_TIMEOUT_S = 45.0

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
    #: submission graded earlier in this batch.
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

    def count(self, status: str) -> None:
        self.by_status[status] = self.by_status.get(status, 0) + 1

    @property
    def failures(self) -> int:
        """Submissions the batch did not actually settle: solver timeouts
        and gradings that raised. ``no_fix``/``syntax_error`` are honest
        verdicts about the submission, not failures of the batch."""
        return self.by_status.get(TIMEOUT_STATUS, 0) + self.by_status.get(
            ERROR, 0
        )


def _make_engine(name: str) -> Engine:
    from repro.engines import engine_by_name

    return engine_by_name(name)


class BatchRunner:
    """Grade a batch of submissions for one problem."""

    def __init__(
        self,
        problem: Problem,
        model: Optional[ErrorModel] = None,
        jobs: int = 1,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        engine: Union[str, Engine, None] = None,
        cache: Optional[ResultCache] = None,
        store: Optional[JobStore] = None,
        resume: bool = False,
        progress: Optional[ProgressFn] = None,
        verifier: Optional["BoundedVerifier"] = None,
        backend: Optional[str] = None,
        explorer: Optional[bool] = None,
        analysis: Optional[bool] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if jobs > 1 and isinstance(engine, Engine):
            raise ValueError(
                "parallel batches need an engine name ('cegismin' or "
                "'enumerative'), not an engine instance"
            )
        self.problem = problem
        self.model = model if model is not None else problem.model
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.engine = engine or "cegismin"
        self.cache = cache if cache is not None else ResultCache()
        self.store = store
        self.resume = resume
        self.progress = progress
        #: Serial-only override; worker processes build their own verifier.
        self.verifier = verifier
        #: Execution substrate ("compiled" / "interp"); ``None`` defers to
        #: the process default at grading time.
        self.backend = backend
        #: Exploration-table blocking on/off, resolved once here (``None``
        #: = the process default *now*): the cache key below and the
        #: grading mode must come from the same resolution, or a default
        #: flipped between construction and run() would store results
        #: under the other configuration's key.
        self.explorer = resolve_explorer(explorer)
        #: Pre-grading triage on/off, resolved once for the same reason:
        #: a static record must be stored under the static key by the
        #: same run that produced it.
        self.analysis = resolve_analysis(analysis)
        self.stats = BatchStats()
        self._model_digest = model_digest(self.model)
        # An engine *instance* contributes its full configuration to the
        # key, not just its class: two differently-budgeted CegisMinEngines
        # used to share one label and replay each other's verdicts (a
        # no_fix found under max_cost=1 served to a max_cost=5 run).
        engine_name = (
            self.engine
            if isinstance(self.engine, str)
            else self.engine.config_label()
        )
        #: Everything identity-relevant except the submission itself; a
        #: stored result is only reusable under the same problem, model,
        #: engine and solver budget.
        self._key_prefix = cache_key(
            self.problem.name,
            self._model_digest,
            "",
            engine=engine_name,
            timeout_s=self.timeout_s,
            explorer=self.explorer,
        )
        #: Static-triage records live under their own engine-independent
        #: address, which keeps analysis-off runs blind to them entirely
        #: (byte-identity by construction).
        self._static_prefix = static_key(
            self.problem.name, self._model_digest, ""
        )

    def _key(self, canonical_digest: str) -> str:
        return self._key_prefix + canonical_digest

    def _static_key(self, canonical_digest: str) -> str:
        return self._static_prefix + canonical_digest

    # -- public API ---------------------------------------------------------

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
        self.stats = BatchStats(total=len(batch))
        results: Dict[int, BatchResult] = {}
        settled = 0

        def settle(index: int, result: BatchResult) -> None:
            nonlocal settled
            results[index] = result
            self.stats.count(result.report.status)
            settled += 1
            if self.progress is not None:
                self.progress(settled, len(batch), result)

        # Stage 1: resume from the job store. A stored entry only counts
        # when its key proves it was graded under this same problem,
        # model, engine and budget — the store drops stale entries at
        # load time, so resuming a job store written for a different
        # configuration (e.g. an edited error model) re-grades instead of
        # serving outdated reports.
        completed = (
            self.store.load(key_prefix=self._key_prefix)
            if (self.store and self.resume)
            else {}
        )
        pending: List[int] = []
        for index, item in enumerate(batch):
            entry = completed.get(item.sid)
            key = str(entry.get("key") or "") if entry is not None else ""
            if entry is not None and key.startswith(self._key_prefix):
                self.stats.resumed += 1
                # Seed the cache so still-pending duplicates of this
                # submission are served, not re-solved.
                if self.cache.peek(key) is None:
                    self.cache.put(key, entry["report"])
                settle(
                    index,
                    BatchResult(
                        sid=item.sid,
                        report=record_to_report(entry["report"]),
                        canonical=key,
                        cached=True,
                        resumed=True,
                    ),
                )
            else:
                pending.append(index)

        # Stage 2: canonicalize and collapse duplicates.
        keys: Dict[int, str] = {}
        digests: Dict[int, str] = {}
        by_key: Dict[str, List[int]] = {}
        for index in pending:
            form = canonicalize(batch[index].source, self.problem.spec)
            key = self._key(form.digest)
            keys[index] = key
            digests[index] = form.digest
            by_key.setdefault(key, []).append(index)

        # Stage 3: serve cache hits (every duplicate of a hit is a hit).
        # With analysis on, the static address is consulted too — a
        # triage verdict cached by any prior run (any engine, any budget)
        # answers this submission without a slot.
        to_grade: List[int] = []
        for key, indices in by_key.items():
            served_key = key
            record = None
            if self.analysis:
                static_key = self._static_key(digests[indices[0]])
                record = self.cache.get(static_key)
                if record is not None:
                    served_key = static_key
            if record is None:
                record = self.cache.get(key)
            if record is not None:
                self.stats.cache_hits += len(indices)
                for index in indices:
                    self._store_and_settle(
                        settle, batch, index, served_key, record, cached=True
                    )
            else:
                to_grade.append(indices[0])

        # Stage 4: grade one representative per distinct submission.
        for index, record in self._grade(batch, to_grade):
            key = keys[index]
            settle_key = key
            if record["status"] == STATIC:
                # Static records are filed under the dedicated address so
                # analysis-off runs (sharing this cache) never see them.
                settle_key = self._static_key(digests[index])
                self.cache.put(settle_key, record)
            elif record["status"] != ERROR:
                self.cache.put(key, record)
            clones = by_key[key]
            self.stats.graded += 1
            self.stats.dedup_hits += len(clones) - 1
            for clone in clones:
                self._store_and_settle(
                    settle, batch, clone, settle_key, record,
                    cached=clone != index,
                )

        self.stats.wall_time = time.monotonic() - started
        self.cache.flush()
        return [results[index] for index in range(len(batch))]

    # -- internals ----------------------------------------------------------

    def _store_and_settle(
        self,
        settle: Callable[[int, BatchResult], None],
        batch: List[BatchItem],
        index: int,
        key: str,
        record: dict,
        cached: bool,
    ) -> None:
        item = batch[index]
        if self.store is not None and record["status"] != ERROR:
            self.store.append(item.sid, record, key=key)
        settle(
            index,
            BatchResult(
                sid=item.sid,
                report=record_to_report(record),
                canonical=key,
                cached=cached,
            ),
        )

    def _grade(self, batch, indices):
        """Yield ``(index, record)`` for each representative, as graded."""
        if not indices:
            return
        if self.jobs == 1:
            yield from self._grade_serial(batch, indices)
        else:
            yield from self._grade_parallel(batch, indices)

    def _grade_serial(self, batch, indices):
        from repro.core.api import _verifier_cache

        spec = self.problem.spec
        engine = self.engine
        with using_backend(self.backend), using_explorer(self.explorer):
            verifier = self.verifier or _verifier_cache(spec)
            for index in indices:
                if self.analysis:
                    from repro.analysis.triage import triage_record

                    static = triage_record(
                        spec, self.model, verifier, batch[index].source
                    )
                    if static is not None:
                        yield index, static
                        continue
                try:
                    report = generate_feedback(
                        batch[index].source,
                        spec,
                        self.model,
                        engine=engine
                        if isinstance(engine, Engine)
                        else _make_engine(engine),
                        timeout_s=self.timeout_s,
                        verifier=verifier,
                    )
                except Exception as exc:
                    yield index, error_record(spec.name, exc)
                    continue
                yield index, report_to_record(report)

    def _grade_parallel(self, batch, indices):
        # The constructor rejects engine *instances* for jobs > 1, so the
        # engine is always a registry name here (a silent fallback would
        # grade under a different configuration than the cache key says).
        assert isinstance(self.engine, str), self.engine
        engine_name = self.engine
        workers = min(self.jobs, len(indices))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=worker_init,
            initargs=(
                self.problem.spec,
                self.model,
                engine_name,
                self.timeout_s,
                self.backend or default_backend(),
                self.explorer,
                self.analysis,
            ),
        ) as pool:
            futures = {
                pool.submit(worker_grade, batch[index].source): index
                for index in indices
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    yield futures[future], future.result()
