"""Pure statistics for the benchmark: percentiles, the tail rule and
span self time. No program imports, so the tests and the load-generator
process can use it freely."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(
    values: Iterable[float], preferred: float, min_beyond: int = MIN_BEYOND
) -> Tuple[float, float, int]:
    """``(q, value, n)``: the workload's fixed tail percentile
    ``preferred`` when at least ``min_beyond`` of the ``n`` samples lie
    beyond it, else the highest percentile that leaves that many. Raises
    when there are too few samples for any tail."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(f"{n} samples leave none beyond {min_beyond}")
    rank = max(1, math.ceil(preferred * n))
    if n - rank >= min_beyond:
        return preferred, ordered[rank - 1], n
    rank = n - min_beyond
    return rank / n, ordered[rank - 1], n


# -- spans --------------------------------------------------------------------

#: One recorded span: ``(id, parent id or None, name, start, end, request
#: id, attributes or None)``; ids are unique within one process.
Span = Tuple[int, Optional[int], str, float, float, str, Optional[dict]]


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → self time: its duration minus the part of it that its
    children cover (children may nest, overlap each other, or spill past
    the parent's end; each instant is subtracted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3])
        - covered(children.get(span[0], []), span[3], span[4])
        for span in spans
    }
