"""Persistent feedback server: warm problems, one process, many requests.

The batch layer (:mod:`repro.service`) made *one invocation* grade many
submissions; this package makes *one process* serve many invocations.
On startup every registry problem is preloaded into a
:class:`~repro.server.warm.WarmProblem` — parsed reference, parsed and
digested error model, fully materialized bounded-verification table,
and a priming grade that walks the entire pipeline — so a request never
recompiles anything. Batch runs grade through the same
:class:`~repro.server.service.FeedbackService`.

- :mod:`repro.server.warm` — per-problem warm artifacts + startup
  self-test (primed with the *serving* engine configuration);
- :mod:`repro.server.service` — transport-independent grading core:
  admission queue with backpressure, in-flight dedup, shared result
  cache (persisted through the result store), graceful drain, and a
  pluggable grading executor: ``thread`` grades on the request thread
  (GIL-bound), ``process`` fans cache misses out over a
  :class:`~repro.service.workers.ProcessExecutor` pool of worker
  processes forked from the warm, primed problems (each serving every
  problem, automatic recycling of crashed or wedged workers);
- :mod:`repro.server.http` — stdlib ``ThreadingHTTPServer`` JSON facade
  (``POST /grade``, ``GET /problems``, ``GET /healthz``, ``GET
  /stats``, ``GET /metrics`` Prometheus exposition, ``X-Request-Id``
  propagation) and the request handler base the fleet router shares;
- :mod:`repro.server.codec` — the request/response grammar both
  serving tiers share: the backend daemon and the fleet front router
  (:mod:`repro.fleet`) validate and encode with the same functions, so
  a client cannot tell which tier answered;
- :mod:`repro.server.client` — stdlib client used by benchmarks, CI
  and the fleet router's backend connections (speaks to either tier).

The transport names (``FeedbackHTTPServer``, ``FeedbackRequestHandler``,
``FeedbackClient``, ``ServerError``) load on first use, so a batch run
never imports ``http.server``, ``http.client`` or ``ssl``.

Telemetry (see :mod:`repro.obs`) is cross-layer: every grading is traced
per stage, the parent observes each record a worker process sends back,
and its registry — scraped at ``/metrics`` — covers the whole pool.

Start it with ``repro-feedback serve --port 8321 --jobs 4``;
``--executor process`` (four workers, one per job) is the default on a
multi-core box.
"""

import importlib

from repro.server import codec
from repro.server.service import (
    FeedbackService,
    GradeOutcome,
    QueueFull,
    ServiceClosed,
    ThreadExecutor,
    UnknownProblem,
)
from repro.service.workers import (
    EXECUTOR,
    EXECUTORS,
    ProcessExecutor,
    default_executor,
)
from repro.server.warm import (
    Warmup,
    WarmProblem,
    WarmupError,
    warm_problem,
    warm_registry,
)

_TRANSPORT = {"FeedbackClient": "client", "ServerError": "client",
              "FeedbackHTTPServer": "http", "FeedbackRequestHandler": "http"}


def __getattr__(name: str):
    if name not in _TRANSPORT:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_TRANSPORT[name]}"), name)


__all__ = [
    "EXECUTOR",
    "EXECUTORS",
    "codec",
    "FeedbackClient",
    "FeedbackHTTPServer",
    "FeedbackRequestHandler",
    "FeedbackService",
    "GradeOutcome",
    "ProcessExecutor",
    "QueueFull",
    "ServerError",
    "ServiceClosed",
    "ThreadExecutor",
    "UnknownProblem",
    "WarmProblem",
    "Warmup",
    "WarmupError",
    "default_executor",
    "warm_problem",
    "warm_registry",
]
