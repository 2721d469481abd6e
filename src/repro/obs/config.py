"""Observability settings: telemetry on or off, and the slow threshold.

:data:`OBS` is set by the CLI's ``--obs`` flag or the ``REPRO_OBS``
environment variable (see :mod:`repro.settings`), and is **on** by
default. Off means no registry writes, no ``metrics`` key on grading
records, and no event emission — the knob the overhead contract test
(obs-on vs obs-off req/s) flips.

:data:`SLOW_MS` is the slow-request threshold (``--slow-ms`` /
``REPRO_SLOW_MS``): gradings at or past it are logged at WARNING
instead of INFO.
"""

from __future__ import annotations

from repro.settings import Setting, switch

#: Default slow-request threshold: a warm cache-miss grading sits in the
#: tens of milliseconds, so a full second is pathological whatever the
#: problem.
DEFAULT_SLOW_MS = 1000.0


def _slow_ms(value: object) -> float:
    try:
        threshold = float(value)  # type: ignore[arg-type]
        if threshold >= 0:
            return threshold
    except (TypeError, ValueError):
        pass
    raise ValueError(f"slow-ms threshold must be a number >= 0, not {value!r}")


OBS = Setting("REPRO_OBS", switch("obs"), True)
SLOW_MS = Setting("REPRO_SLOW_MS", _slow_ms, DEFAULT_SLOW_MS)
