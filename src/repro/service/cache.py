"""Content-addressed result cache.

Keys are ``problem:model-digest:engine[:budget]:canonical-hash``: a cached
report is valid exactly when the same problem, the same error model, the
same solver configuration, and a behaviorally identical submission come
back — which in classroom traffic is constantly (resubmissions, copied
solutions, the one conceptual error half the class shares). Every key is
derived here, by :func:`cache_key` and :func:`static_key`, so the batch
runner, the feedback server and the one-shot CLI all address the same
entries.

:class:`ResultCache` keeps results in memory only: a thread-safe dict
with hit/miss accounting, so one instance can back many server threads.
Persistence is the store tier's job: :class:`~repro.service.store.
StoreClient` is a ``ResultCache`` whose puts are written behind to an
append-only log shared across runs and processes.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

#: The engine a key with no explicit engine component means. ``engine=""``
#: and ``engine=DEFAULT_ENGINE`` describe the same work and must address
#: the same entry (distinct keys here caused spurious misses on identical
#: configurations).
DEFAULT_ENGINE = "cegismin"

#: The default per-submission solver budget, in seconds, of every grading
#: entry point: batch runs, the server, the fleet router and the harness.
DEFAULT_TIMEOUT_S = 45.0


def cache_key(
    problem: str,
    model_digest: str,
    canonical: str,
    engine: str = "",
    timeout_s: Optional[float] = None,
    explorer: bool = True,
) -> str:
    """The content address of one grading result.

    ``timeout_s`` is part of the address when given: a ``timeout`` record
    produced under a 5 s budget is *not* a valid answer for a 300 s run.
    Different engines may produce different (equally minimal) fixes, so
    the engine is always part of the address; an empty ``engine`` means
    :data:`DEFAULT_ENGINE`, *not* a distinct configuration. Explorer
    on/off yields equally minimal but possibly different fixes too, so
    the off state is suffixed ``+sweep``: the ablation is never served
    results from the default configuration, or vice versa.
    """
    label = engine or DEFAULT_ENGINE
    if not explorer:
        label += "+sweep"
    extra = f":{label}"
    if timeout_s is not None:
        extra += f":t{timeout_s:g}"
    return f"{problem}:{model_digest}{extra}:{canonical}"


def static_key(problem: str, model_digest: str, canonical: str) -> str:
    """The address of a static-triage verdict.

    Engine- and budget-independent: a proof that no candidate fixes a
    submission answers every engine and timeout variant of the request.
    The dedicated ``static`` component keeps analysis-off configurations
    blind to these records.
    """
    return cache_key(problem, model_digest, canonical, engine="static")


class ResultCache:
    """Thread-safe in-memory result cache with hit/miss accounting."""

    def __init__(self) -> None:
        self._entries: Dict[str, dict] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        """The cached record for ``key``, counting the hit or miss."""
        with self._lock:
            record = self._entries.get(key)
            if record is None:
                self.misses += 1
                return None
            self.hits += 1
            return record

    def peek(self, key: str) -> Optional[dict]:
        """Like :meth:`get` but without touching the statistics."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, record: dict) -> None:
        with self._lock:
            self._entries[key] = record

    def flush(self) -> int:
        """Persist buffered puts; returns lines written.

        A no-op here — nothing outlives the process. Callers flush at
        their natural checkpoints (the end of a batch, service shutdown)
        so a :class:`~repro.service.store.StoreClient` in this place
        pushes its write-behind buffer there.
        """
        return 0

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
