"""Cross-layer observability: metrics, traces, exposition, events.

The stdlib-only telemetry subsystem the serving stack records into:

- :mod:`repro.obs.registry` — process-local metrics registry (counters,
  gauges, fixed-bucket latency histograms) whose snapshots merge: the
  fleet router folds every backend's exposition into one scrape;
- :mod:`repro.obs.trace` — per-grading request ids and stage timers;
  :func:`observe_grading` is the single record → registry ingestion
  point all executors share, called in the serving process for every
  record a grading worker sends back;
- :mod:`repro.obs.prometheus` — ``GET /metrics`` text exposition;
- :mod:`repro.obs.events` — structured JSON event log with the
  slow-request threshold;
- :mod:`repro.obs.config` — the ``--obs on|off`` / ``REPRO_OBS`` knob
  (off = no registry writes, no ``metrics`` record key, no events — the
  overhead-ablation state) and ``--slow-ms`` / ``REPRO_SLOW_MS``.

Grading records stay byte-identical under :func:`~repro.service.records.
comparable_record` with telemetry on or off: everything this package
adds to a record lives under the stripped ``metrics`` key.
"""

from repro.obs.config import OBS, SLOW_MS
from repro.obs.prometheus import CONTENT_TYPE, render
from repro.obs.registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    quantile,
    reset_global_registry,
)
from repro.obs.trace import (
    ENGINE_COUNTERS,
    StageTimer,
    new_request_id,
    observe_grading,
    observe_stage,
)

#: Alias: ``obs.metrics()`` reads naturally at call sites.
metrics = global_registry

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "ENGINE_COUNTERS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "OBS",
    "SLOW_MS",
    "StageTimer",
    "global_registry",
    "metrics",
    "new_request_id",
    "observe_grading",
    "observe_stage",
    "quantile",
    "render",
    "reset_global_registry",
]
