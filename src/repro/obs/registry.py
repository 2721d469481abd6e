"""A process-local metrics registry with mergeable snapshots.

Three instrument kinds, Prometheus-shaped (stdlib only):

- :class:`Counter` — monotonically increasing totals, optionally
  labeled (``requests_total{problem="x", outcome="cache_hit"}``);
- :class:`Gauge` — last-write-wins point-in-time values (queue depth,
  workers ready);
- :class:`Histogram` — fixed-bucket latency distributions with
  ``sum``/``count``, from which :func:`quantile` interpolates p50/p95/
  p99 without storing samples.

The registry's unit of exchange is the **snapshot**: a plain picklable
dict of everything observed so far. :meth:`MetricsRegistry.merge` folds
a snapshot into live instruments (counters and histogram cells add,
gauges take the incoming value), which is how the fleet router turns
every backend's exposition into one fleet-wide scrape.

Instruments are get-or-create by name, so independent modules can record
into one shared registry without coordination; re-declaring a name with
a different shape (labels, buckets) is a programming error and raises.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond cache hits through
#: multi-second solver timeouts. ``+Inf`` is implicit.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class _Instrument:
    """Shared name/labels machinery; values keyed by label-value tuples."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002 - prometheus field name
        labelnames: Sequence[str],
        lock: threading.Lock,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._values: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        # Same length + every declared name present == same name set.
        names = self.labelnames
        try:
            if len(labels) == len(names):
                if len(names) == 1:  # the per-request common case
                    return (str(labels[names[0]]),)
                return tuple(str(labels[name]) for name in names)
        except KeyError:
            pass
        raise ValueError(
            f"metric {self.name!r} takes labels {self.labelnames}, "
            f"got {sorted(labels)}"
        )


class _BoundCounter:
    """A counter cell with its label key pre-resolved (hot-path view)."""

    __slots__ = ("_instrument", "_labelkey")

    def __init__(self, instrument: "Counter", labelkey: Tuple[str, ...]):
        self._instrument = instrument
        self._labelkey = labelkey

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        instrument = self._instrument
        with instrument._lock:
            values = instrument._values
            values[self._labelkey] = (
                values.get(self._labelkey, 0.0) + amount
            )


class _BoundHistogram:
    """A histogram cell with its label key pre-resolved (hot-path view)."""

    __slots__ = ("_instrument", "_labelkey")

    def __init__(self, instrument: "Histogram", labelkey: Tuple[str, ...]):
        self._instrument = instrument
        self._labelkey = labelkey

    def observe(self, value: float) -> None:
        instrument = self._instrument
        index = bisect.bisect_left(instrument.buckets, value)
        with instrument._lock:
            cell = instrument._values.get(self._labelkey)
            if cell is None:
                cell = instrument._values[self._labelkey] = _HistogramCell(
                    len(instrument.buckets)
                )
            cell.counts[index] += 1
            cell.sum += value
            cell.count += 1


class Counter(_Instrument):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))

    def labels(self, **labels) -> _BoundCounter:
        """Pre-resolve one label set for repeated cheap ``inc`` calls."""
        return _BoundCounter(self, self._key(labels))


class Gauge(_Instrument):
    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))


class _HistogramCell:
    """Per-label-set histogram state: bucket counts + sum + count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets):  # noqa: A002
        super().__init__(name, help, labelnames, lock)
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        self.buckets = ordered

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            cell = self._values.get(key)
            if cell is None:
                cell = self._values[key] = _HistogramCell(len(self.buckets))
            cell.counts[index] += 1
            cell.sum += value
            cell.count += 1

    def cell(self, **labels):
        with self._lock:
            return self._values.get(self._key(labels))

    def labels(self, **labels) -> _BoundHistogram:
        """Pre-resolve one label set for repeated cheap ``observe`` calls."""
        return _BoundHistogram(self, self._key(labels))


def quantile(
    q: float, bucket_bounds: Sequence[float], counts: Sequence[int]
) -> Optional[float]:
    """Estimate the ``q``-quantile of a bucketed distribution.

    Linear interpolation inside the target bucket (Prometheus
    ``histogram_quantile`` semantics). Values landing in the ``+Inf``
    bucket clamp to the highest finite bound. ``None`` when empty.
    """
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            if index >= len(bucket_bounds):  # the +Inf bucket
                return float(bucket_bounds[-1])
            lower = bucket_bounds[index - 1] if index > 0 else 0.0
            upper = bucket_bounds[index]
            return lower + (upper - lower) * max(0.0, rank - seen) / count
        seen += count
    return float(bucket_bounds[-1])


class MetricsRegistry:
    """Thread-safe, snapshot-able collection of named instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    # -- declaration (get-or-create) ----------------------------------------

    def _declare(self, cls, name, help, labelnames, **kwargs):  # noqa: A002
        # Lock-free fast path: instruments are never removed, so a plain
        # dict read either finds the (immutable-shaped) instrument or
        # falls through to the locked get-or-create. This is the
        # per-request path — every stage observation re-resolves its
        # instrument by name.
        existing = self._instruments.get(name)
        if (
            existing is not None
            and type(existing) is cls
            and existing.labelnames == tuple(labelnames)
        ):
            return existing
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != (
                    tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already declared with a "
                        "different type or label set"
                    )
                return existing
            instrument = cls(name, help, labelnames, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:  # noqa: A002
        return self._declare(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:  # noqa: A002
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._declare(
            Histogram, name, help, labelnames, buckets=tuple(buckets)
        )

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything observed so far, as one plain picklable dict."""
        out: dict = {}
        with self._lock:
            for name, instrument in self._instruments.items():
                entry = {
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "labelnames": instrument.labelnames,
                }
                if instrument.kind == "histogram":
                    entry["buckets"] = instrument.buckets
                    entry["values"] = {
                        key: {
                            "counts": list(cell.counts),
                            "sum": cell.sum,
                            "count": cell.count,
                        }
                        for key, cell in instrument._values.items()
                    }
                else:
                    entry["values"] = dict(instrument._values)
                out[name] = entry
        return out

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold a snapshot into this registry.

        Counters and histogram cells add; gauges take the incoming value.
        Unknown instruments are declared on the fly, so the merging side
        needs no advance knowledge of what the other side measures.
        """
        if not snapshot:
            return
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            labelnames = tuple(entry.get("labelnames", ()))
            if kind == "counter":
                instrument = self._declare(
                    Counter, name, entry.get("help", ""), labelnames
                )
            elif kind == "gauge":
                instrument = self._declare(
                    Gauge, name, entry.get("help", ""), labelnames
                )
            elif kind == "histogram":
                instrument = self._declare(
                    Histogram,
                    name,
                    entry.get("help", ""),
                    labelnames,
                    buckets=tuple(entry.get("buckets", LATENCY_BUCKETS)),
                )
            else:
                continue
            with self._lock:
                values = instrument._values
                for key, incoming in entry.get("values", {}).items():
                    key = tuple(key)
                    if kind == "counter":
                        values[key] = values.get(key, 0.0) + incoming
                    elif kind == "gauge":
                        values[key] = float(incoming)
                    else:
                        cell = values.get(key)
                        if cell is None:
                            cell = values[key] = _HistogramCell(
                                len(instrument.buckets)
                            )
                        counts = incoming["counts"]
                        if len(counts) != len(cell.counts):
                            raise ValueError(
                                f"histogram {name!r} bucket mismatch"
                            )
                        for index, count in enumerate(counts):
                            cell.counts[index] += count
                        cell.sum += incoming["sum"]
                        cell.count += incoming["count"]

    # -- summaries -----------------------------------------------------------

    def histogram_summary(
        self,
        name: str,
        quantiles: Iterable[float] = (0.5, 0.95, 0.99),
    ) -> Dict[str, dict]:
        """Per-label-set quantiles of one histogram (``/stats`` payload).

        Keys are the joined label values (``"solve"``; ``"x|fixed"`` for
        multi-label instruments); each value carries ``count``, ``sum``
        and one ``pNN`` entry per requested quantile.
        """
        with self._lock:
            instrument = self._instruments.get(name)
            if not isinstance(instrument, Histogram):
                return {}
            cells = list(instrument._values.items())
            bounds = instrument.buckets
        out: Dict[str, dict] = {}
        for key, cell in cells:
            row = {"count": cell.count, "sum": round(cell.sum, 6)}
            for q in quantiles:
                value = quantile(q, bounds, cell.counts)
                row[f"p{int(q * 100)}"] = (
                    round(value, 6) if value is not None else None
                )
            out["|".join(key) if key else ""] = row
        return out


#: The process-global registry every layer records into. A pool worker's
#: gradings are observed here, in the parent, from the records it sends
#: back — so in-process reads (``/metrics``, ``/stats``) always see the
#: whole pool.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _GLOBAL


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh process-global registry (tests, forked workers)."""
    global _GLOBAL
    _GLOBAL = MetricsRegistry()
    return _GLOBAL

