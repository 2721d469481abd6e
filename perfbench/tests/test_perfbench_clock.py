"""The speed-corrected clock: virtual time from loop samples."""

import pytest

from pb import clock
from pb.clock import REFERENCE_S, Clock


def samples(start, end, loop_s, period=0.05):
    count = round((end - start) / period)
    return [(start + i * period, loop_s) for i in range(count)]


def test_a_box_at_reference_speed_keeps_wall_time():
    c = Clock(samples(0.0, 10.0, REFERENCE_S))
    assert c.span(1.0, 4.0) == pytest.approx(3.0)


def test_a_box_at_half_speed_reads_half_the_wall_time():
    c = Clock(samples(0.0, 10.0, 2 * REFERENCE_S))
    assert c.span(2.0, 6.0) == pytest.approx(2.0)
    assert c.scale(2.0, 6.0) == pytest.approx(0.5)


def test_same_work_reads_the_same_across_a_change_of_speed():
    # Work that takes 2 s at reference speed: 1 s of it at full speed,
    # the rest at half speed (2 s of wall time).
    c = Clock(samples(0.0, 5.0, REFERENCE_S) + samples(5.0, 10.0, 2 * REFERENCE_S))
    assert c.span(4.0, 7.0) == pytest.approx(2.0, rel=0.02)


def test_one_slow_sample_does_not_move_the_clock():
    steady = samples(0.0, 10.0, REFERENCE_S)
    steady[100] = (steady[100][0], 50 * REFERENCE_S)  # an interrupt landed in it
    assert Clock(steady).span(4.0, 6.0) == pytest.approx(2.0)


def test_times_outside_the_samples_extrapolate_at_the_edge_speed():
    c = Clock(samples(1.0, 2.0, 2 * REFERENCE_S))
    assert c.span(0.0, 3.0) == pytest.approx(1.5, rel=0.02)


def test_probe_times_the_fixed_loop():
    assert 0.0 < clock.probe() < 1.0
