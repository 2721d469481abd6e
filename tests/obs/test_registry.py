"""Unit tests for the metrics registry, snapshot algebra and exposition."""

import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    StageTimer,
    new_request_id,
    quantile,
    render,
)


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("problem",))
        counter.inc(problem="a")
        counter.inc(2.0, problem="a")
        counter.inc(problem="b")
        assert counter.value(problem="a") == 3.0
        assert counter.value(problem="b") == 1.0
        assert counter.value(problem="never") == 0.0

    def test_counter_rejects_negative_and_bad_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("problem",))
        with pytest.raises(ValueError):
            counter.inc(-1.0, problem="a")
        with pytest.raises(ValueError):
            counter.inc(wrong="a")

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value() == 3.0

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        cell = hist.cell()
        assert cell.counts == [1, 2, 1]  # <=0.1, <=1.0, +Inf
        assert cell.count == 4
        assert cell.sum == pytest.approx(6.05)

    def test_declare_is_get_or_create_and_shape_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", labelnames=("x",))
        assert registry.counter("c_total", labelnames=("x",)) is first
        with pytest.raises(ValueError):
            registry.counter("c_total", labelnames=("y",))
        with pytest.raises(ValueError):
            registry.gauge("c_total", labelnames=("x",))

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000.0


class TestQuantile:
    def test_empty_is_none(self):
        assert quantile(0.5, (1.0, 2.0), [0, 0, 0]) is None

    def test_interpolates_within_bucket(self):
        # 10 observations in (0, 1]: p50 lands mid-bucket.
        assert quantile(0.5, (1.0, 2.0), [10, 0, 0]) == pytest.approx(0.5)

    def test_inf_bucket_clamps_to_highest_bound(self):
        assert quantile(0.99, (1.0, 2.0), [0, 0, 5]) == 2.0

    def test_registry_summary_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", labelnames=("stage",))
        for _ in range(20):
            hist.observe(0.003, stage="solve")
        summary = registry.histogram_summary("h")
        row = summary["solve"]
        assert row["count"] == 20
        assert set(row) == {"count", "sum", "p50", "p95", "p99"}
        assert 0.0025 <= row["p50"] <= 0.005
        assert registry.histogram_summary("missing") == {}


class TestSnapshotAlgebra:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("k",)).inc(5, k="a")
        registry.gauge("g").set(2)
        registry.histogram("h").observe(0.01)
        return registry

    def test_merging_a_copy_doubles_counters_and_histograms(self):
        # The router sums backend expositions this way.
        registry = self._populated()
        copy = MetricsRegistry()
        copy.merge(registry.snapshot())
        copy.merge(registry.snapshot())
        assert copy.counter("c_total", labelnames=("k",)).value(k="a") == 10
        assert copy.histogram("h").cell().count == 2
        assert copy.gauge("g").value() == 2

    def test_merge_declares_unknown_instruments(self):
        registry = self._populated()
        empty = MetricsRegistry()
        empty.merge(registry.snapshot())
        assert empty.snapshot() == registry.snapshot()

    def test_snapshot_is_picklable_plain_data(self):
        import pickle

        snap = self._populated().snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestExposition:
    def test_render_counter_gauge_histogram(self):
        registry = self._registry()
        text = render(registry.snapshot())
        lines = text.splitlines()
        assert "# TYPE req_total counter" in lines
        assert 'req_total{problem="p",status="fixed"} 2' in lines
        assert "# TYPE depth gauge" in lines
        assert "depth 4" in lines
        assert "# TYPE lat_seconds histogram" in lines
        # Cumulative buckets end with +Inf == _count.
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "lat_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_every_sample_line_is_well_formed(self):
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
            r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
            r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
            r" -?[0-9.+eEinf]+$"
        )
        for line in render(self._registry().snapshot()).splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert sample.match(line), line

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("d",)).inc(d='a"b\\c\nd')
        text = render(registry.snapshot())
        assert 'd="a\\"b\\\\c\\nd"' in text

    @staticmethod
    def _registry():
        registry = MetricsRegistry()
        registry.counter(
            "req_total", help="requests", labelnames=("problem", "status")
        ).inc(2, problem="p", status="fixed")
        registry.gauge("depth").set(4)
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 3.0):
            hist.observe(value)
        return registry


class TestTraceHelpers:
    def test_request_ids_unique_and_compact(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(rid) == 16 for rid in ids)

    def test_stage_timer_accumulates(self):
        timer = StageTimer()
        timer.add("solve", 0.25)
        timer.add("solve", 0.25)
        timer.start()
        timer.stop("parse")
        stages = timer.rounded()
        assert stages["solve"] == 0.5
        assert stages["parse"] >= 0.0

