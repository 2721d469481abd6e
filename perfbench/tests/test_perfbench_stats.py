"""The benchmark's own statistics: the tail rule and span self time."""

import pytest

from pb import stats


def test_tail_keeps_the_workload_percentile_when_ten_samples_lie_beyond():
    values = list(range(1, 1001))
    assert stats.tail(values, 0.99) == (0.99, 990, 1000)


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    values = list(range(100, 0, -1))  # unsorted input
    q, value, n = stats.tail(values, 0.95)
    assert (q, value, n) == (0.9, 90, 100)
    assert sum(1 for v in values if v > value) == 10


def test_tail_with_ten_or_fewer_samples_has_no_tail():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10, 0.9)


def test_percentile_is_nearest_rank():
    assert stats.percentile([1, 2, 3, 4], 0.5) == 2
    assert stats.percentile([1, 2, 3, 4, 5], 0.5) == 3


def span(span_id, parent, start, end, name="x"):
    return (span_id, parent, name, start, end, "", None)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),  # grandchild: already inside span 2
        span(4, 1, 6.0, 7.0),
    ]
    selves = stats.self_times(spans)
    assert selves[1] == pytest.approx(6.0)
    assert selves[2] == pytest.approx(2.0)
    assert selves[3] == pytest.approx(1.0)
    assert selves[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 5.0),
        span(3, 1, 3.0, 7.0),  # overlaps span 2 (another thread)
        span(4, 1, 8.0, 12.0),  # runs past the parent's end
    ]
    assert stats.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 2.0)

