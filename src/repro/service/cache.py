"""Content-addressed result cache.

Keys are ``problem:model-digest:engine[:budget]:canonical-hash``: a cached
report is valid exactly when the same problem, the same error model, the
same solver configuration, and a behaviorally identical submission come
back — which in classroom traffic is constantly (resubmissions, copied
solutions, the one conceptual error half the class shares). That
configuration is a :class:`GradingConfig`, and every graded key is
derived by it over the format of :func:`cache_key`; a triage verdict
answers every configuration, under :func:`static_key`. So the batch
runner, the feedback server and the fleet address the same entries.

:class:`ResultCache` keeps results in memory only: a thread-safe dict
with hit/miss accounting, so one instance can back many server threads.
Persistence is the store tier's job: :class:`~repro.service.store.
StoreClient` is a ``ResultCache`` whose puts are written behind to an
append-only log shared across runs and processes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.engines import DEFAULT_ENGINE, DEFAULT_TIMEOUT_S, ENGINES
from repro.resilience.deadline import budget


def cache_key(
    problem: str,
    model_digest: str,
    canonical: str,
    engine: str = "",
    timeout_s: Optional[float] = None,
) -> str:
    """The content address of one grading result.

    ``timeout_s`` is part of the address when given: a ``timeout`` record
    produced under a 5 s budget is *not* a valid answer for a 300 s run.
    Different engines may produce different (equally minimal) fixes, so
    the engine is always part of the address; an empty ``engine`` means
    ``DEFAULT_ENGINE`` and addresses the same entry, *not* a distinct
    configuration (distinct keys here once caused spurious misses on
    identical configurations).
    """
    extra = f":{engine or DEFAULT_ENGINE}"
    if timeout_s is not None:
        extra += f":t{timeout_s:g}"
    return f"{problem}:{model_digest}{extra}:{canonical}"


def static_key(problem: str, model_digest: str, canonical: str) -> str:
    """The address of a static-triage verdict.

    Engine- and budget-independent: a proof that no candidate fixes a
    submission answers every engine and timeout variant of the request.
    """
    return cache_key(problem, model_digest, canonical, engine="static")


@dataclass(frozen=True)
class GradingConfig:
    """What fixes a verdict besides the problem and the submission: the
    engine, and the solve budget, held to a request's bound
    (:func:`~repro.resilience.deadline.budget`). The execution backend
    is a process setting, not a field: it changes no verdict and no key.
    """

    engine: str = DEFAULT_ENGINE
    timeout_s: float = DEFAULT_TIMEOUT_S

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        object.__setattr__(self, "timeout_s", budget(self.timeout_s))

    def key(
        self, problem: str, model_digest: str, canonical: str,
        engine: Optional[str] = None, timeout_s: Optional[float] = None,
    ) -> str:
        """A grading's address; a request's own engine and budget, when
        given, replace this config's."""
        if timeout_s is None:
            timeout_s = self.timeout_s
        return cache_key(
            problem, model_digest, canonical, engine or self.engine, timeout_s
        )

    def override(self, engine: Optional[str], timeout_s: float) -> "GradingConfig":
        """This config under a request's budget and its own engine, if any."""
        return replace(self, engine=engine or self.engine, timeout_s=timeout_s)


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
