"""Fleet-scale serving: front router, sharded backends, shared store.

One box caps cache-miss grading at ``cpu_count`` concurrent solves; the
paper's deployment target — MOOC-scale grading of thousands of
near-duplicate submissions per assignment (Table 1) — needs a fleet.
This package is the third serving tier, over the batch layer
(:mod:`repro.service`) and the single-node daemon (:mod:`repro.server`):

- :mod:`repro.fleet.ring` — the consistent hash ring that places each
  ``(problem, canonical hash)`` routing key on a backend node, moving
  only ~1/N of the key space when a node joins or dies;
- :mod:`repro.fleet.router` — a thin threaded HTTP front on the
  backends' own stack (the shared request handler of
  :mod:`repro.server.http`, pooled :class:`~repro.server.client.
  FeedbackClient` connections to each backend) that proxies
  ``POST /grade`` to the ring-chosen backend with deadline propagation,
  fails over along the ring under per-backend circuit breakers
  (:mod:`repro.resilience.breaker`), honors node draining, and
  aggregates ``/healthz``, ``/stats`` and ``/metrics`` across the
  fleet (backend expositions parsed and merged via
  :func:`repro.obs.prometheus.parse`);
- :mod:`repro.fleet.launch` — the supervisor behind ``repro-feedback
  serve --fleet N``: forks N backend server processes, waits for their
  warmup self-tests, and fronts them with one router.

Routing by canonical hash means the same submission (however renamed or
reformatted) always lands on the same backend — in-flight dedup and the
per-node result cache keep their single-node hit rates at fleet scale —
while a shared persistent store tier (:mod:`repro.service.store`)
makes every backend's verdicts visible to all of them.
"""

from repro.fleet.launch import BackendProcess, Fleet, free_port, start_fleet
from repro.fleet.ring import HashRing, routing_key
from repro.fleet.router import FleetRouter

__all__ = [
    "BackendProcess",
    "Fleet",
    "FleetRouter",
    "HashRing",
    "free_port",
    "routing_key",
    "start_fleet",
]
