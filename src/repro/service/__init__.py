"""Batch grading service: the classroom-scale layer over the pipeline.

The paper's tool grades one submission at a time; its evaluation (and any
classroom deployment) is inherently batch: thousands of submissions per
problem, many of them near-duplicates — the paper found 260 of 541
evalPoly attempts sharing one conceptual error, and real corpora are full
of trivially-reformatted resubmissions. This package turns
:func:`repro.core.generate_feedback` into a service:

- :mod:`repro.service.canonical` — submission canonicalizer: normalized,
  α-renamed AST hashing so duplicate and renamed submissions coincide;
- :mod:`repro.service.cache` — the in-memory content-addressed result
  cache and :class:`~repro.service.cache.GradingConfig`, the one grading
  configuration (engine, budget) and the one place its keys are derived;
- :mod:`repro.service.records` — JSON-serializable feedback records;
- :mod:`repro.service.jobstore` — JSONL persistence with batch resume;
- :mod:`repro.service.store` — the only on-disk result format: one
  append-log of results that batch runs and backend processes write
  behind and read through, with WAL-style torn-tail recovery and
  background compaction;
- :mod:`repro.service.workers` — the grading executors: the one grading
  call, and the :class:`~repro.service.workers.ProcessExecutor` pool of
  grading workers forked from the parent's warm problems (each serving
  every problem, crash/timeout recycling) that scales cache misses
  across cores;
- :mod:`repro.service.runner` — the batch runner: it grades through the
  feedback server's grading call and adds job-store resume, input-order
  results and progress callbacks.
"""

from repro.service.cache import (
    DEFAULT_ENGINE,
    GradingConfig,
    ResultCache,
    cache_key,
    static_key,
)
from repro.service.canonical import CanonicalForm, canonicalize, model_digest
from repro.service.jobstore import JobStore
from repro.service.records import (
    comparable_record,
    error_record,
    record_to_report,
    report_to_record,
)
from repro.service.store import ResultStore, StoreClient
from repro.service.runner import (
    BatchItem,
    BatchResult,
    BatchRunner,
    BatchStats,
)
from repro.service.workers import (
    EXECUTOR,
    EXECUTORS,
    ProcessExecutor,
    default_executor,
)

__all__ = [
    "BatchItem",
    "BatchResult",
    "BatchRunner",
    "BatchStats",
    "CanonicalForm",
    "DEFAULT_ENGINE",
    "EXECUTOR",
    "EXECUTORS",
    "GradingConfig",
    "JobStore",
    "ProcessExecutor",
    "ResultCache",
    "ResultStore",
    "StoreClient",
    "default_executor",
    "cache_key",
    "canonicalize",
    "comparable_record",
    "error_record",
    "model_digest",
    "record_to_report",
    "report_to_record",
    "static_key",
]
