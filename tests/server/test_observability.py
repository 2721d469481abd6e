"""Cross-layer telemetry tests: traces, registry aggregation, exposition.

Covers the observability contract end to end: per-grading stage traces
summing to the record's wall time, worker-process metric deltas merged
into the parent registry, the ``/metrics`` exposition format, the
histogram-backed ``/stats`` latency section under both executors,
request-id propagation, and the byte-identity of graded records with
telemetry on versus off.
"""

import logging
import re

import pytest

from repro.obs import OBS, SLOW_MS, global_registry, render, reset_global_registry
from repro.problems import get_problem
from repro.server import (
    FeedbackClient,
    FeedbackHTTPServer,
    FeedbackService,
    warm_registry,
)
from repro.service import GradingConfig
from repro.service.records import comparable_record

PROBLEM = get_problem("iterPower-6.00x")

BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""

#: A structurally different bug: distinct canonical form, distinct
#: cache key — forces a second real grading.
BUGGY_OTHER = """def iterPower(base, exp):
    result = base
    for i in range(exp):
        result = result * base
    return result
"""


@pytest.fixture(scope="module")
def warmup():
    return warm_registry(names=["iterPower-6.00x"])


@pytest.fixture(autouse=True)
def fresh_registry():
    """Each test reads a registry only its own requests wrote."""
    reset_global_registry()
    yield
    reset_global_registry()


def make_service(warmup, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("queue_limit", 4)
    kwargs.setdefault("config", GradingConfig(timeout_s=20.0))
    return FeedbackService(warmup=warmup, **kwargs)


def parse_exposition(text):
    """Strict-ish exposition parse: returns {name: (type, {sample: value})}.

    Asserts the structural invariants of format 0.0.4 along the way:
    well-formed sample lines, TYPE before samples, cumulative histogram
    buckets ending in ``+Inf`` equal to ``_count``.
    """
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(\{[^{}]*\})?"
        r" (-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$"
    )
    families = {}
    types = {}
    for line in text.splitlines():
        assert line.strip() == line and line, f"stray whitespace: {line!r}"
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), line
            continue
        match = sample_re.match(line)
        assert match, f"malformed sample line: {line!r}"
        name, labels, value = match.group(1), match.group(2), match.group(3)
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        family = base if base in types else name
        assert family in types, f"sample before TYPE: {line!r}"
        families.setdefault(family, {})[f"{name}{labels or ''}"] = float(
            value
        )
    for name, kind in types.items():
        if kind != "histogram":
            continue
        samples = families.get(name, {})
        by_labels = {}
        for key, value in samples.items():
            if f"{name}_bucket" not in key:
                continue
            prefix = re.sub(r'le="[^"]*",?', "", key).replace(",}", "}")
            by_labels.setdefault(prefix, []).append((key, value))
        for prefix, buckets in by_labels.items():
            values = [v for _, v in buckets]
            assert values == sorted(values), f"non-cumulative: {prefix}"
            inf = [v for k, v in buckets if 'le="+Inf"' in k]
            count_key = prefix.replace(f"{name}_bucket", f"{name}_count")
            count_key = count_key.rstrip("{}").replace('{,', "{")
            matching_counts = [
                v
                for k, v in samples.items()
                if k.startswith(f"{name}_count")
            ]
            assert inf and inf[0] in matching_counts
    return types, families


class TestTraces:
    def test_stage_timings_sum_to_wall_time(self, warmup):
        """A cache-miss grading's stages account for its wall time."""
        service = make_service(warmup, executor="thread")
        try:
            outcome = service.grade("iterPower-6.00x", BUGGY)
        finally:
            service.close()
        assert not outcome.cached
        metrics = outcome.record["metrics"]
        stages = metrics["stages"]
        assert set(stages) >= {"parse", "rewrite", "solve"}
        total = sum(stages.values())
        wall = outcome.record["wall_time"]
        # Everything generate_feedback does is inside a booked stage
        # except microseconds of glue; the sum can neither exceed the
        # wall time nor miss a meaningful fraction of it.
        assert total <= wall * 1.001
        assert total >= wall * 0.8
        engine = metrics["engine"]
        assert engine["engine"] == "cegismin"
        assert engine["sat_calls"] >= 1
        assert engine["candidate_runs"] >= 0
        assert engine["sat_conflicts"] >= 0

    def test_request_id_generated_and_unique(self, warmup):
        service = make_service(warmup, executor="thread")
        try:
            first = service.grade("iterPower-6.00x", BUGGY)
            again = service.grade("iterPower-6.00x", BUGGY)
            pinned = service.grade(
                "iterPower-6.00x", BUGGY, request_id="trace-me"
            )
        finally:
            service.close()
        assert first.request_id and again.request_id
        assert first.request_id != again.request_id
        assert pinned.request_id == "trace-me"

    def test_slow_grading_logged_at_warning(self, warmup, caplog):
        # The service reads the threshold once, at construction.
        with SLOW_MS.using(0.0001):
            service = make_service(warmup, executor="thread")
        logger = logging.getLogger("repro.obs")
        saved = logger.propagate
        logger.propagate = True
        try:
            with caplog.at_level(logging.INFO, logger="repro.obs"):
                service.grade("iterPower-6.00x", BUGGY)
        finally:
            logger.propagate = saved
            service.close()
        slow = [
            r
            for r in caplog.records
            if r.levelno == logging.WARNING and '"slow": true' in r.message
        ]
        assert slow, "no slow-grading WARNING event emitted"
        assert '"event": "grading"' in slow[0].message


class TestRecordIdentity:
    def test_records_byte_identical_with_obs_on_and_off(self, warmup):
        """Telemetry must never leak into the comparable record view."""
        on_service = make_service(warmup, executor="thread")
        try:
            with OBS.using(True):
                on = on_service.grade("iterPower-6.00x", BUGGY)
        finally:
            on_service.close()
        off_service = make_service(warmup, executor="thread")
        try:
            with OBS.using(False):
                off = off_service.grade("iterPower-6.00x", BUGGY)
        finally:
            off_service.close()
        assert "metrics" in on.record
        assert "metrics" not in off.record
        assert comparable_record(on.record) == comparable_record(off.record)
        assert "wall_time" not in comparable_record(on.record)
        assert off.request_id == ""

    def test_obs_off_writes_nothing(self, warmup):
        service = make_service(warmup, executor="thread")
        try:
            with OBS.using(False):
                service.grade("iterPower-6.00x", BUGGY)
        finally:
            service.close()
        snapshot = global_registry().snapshot()
        assert "repro_gradings_total" not in snapshot
        assert "repro_requests_total" not in snapshot


class TestStatsShape:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_latency_section_under_both_executors(self, warmup, executor):
        service = make_service(warmup, executor=executor)
        try:
            service.grade("iterPower-6.00x", BUGGY)
            service.grade("iterPower-6.00x", BUGGY)  # cache hit
            stats = service.stats()
        finally:
            service.close()
        latency = stats["latency"]
        assert set(latency) == {
            "request_seconds",
            "grading_seconds",
            "stage_seconds",
        }
        graded = latency["request_seconds"]["graded"]
        assert graded["count"] == 1
        assert {"count", "sum", "p50", "p95", "p99"} <= set(graded)
        assert latency["request_seconds"]["cache_hit"]["count"] == 1
        # Grading-side stages arrive whichever process graded; the
        # parent-side stages are always recorded in-process.
        assert "solve" in latency["stage_seconds"]
        assert "canonicalize" in latency["stage_seconds"]
        assert "queue_wait" in latency["stage_seconds"]
        assert latency["grading_seconds"]["iterPower-6.00x"]["count"] == 1


class TestCanonicalMemo:
    def test_a_repeated_grading_hits_the_memo(self, warmup):
        service = make_service(warmup, executor="thread")
        try:
            service.grade("iterPower-6.00x", BUGGY)
            before = service.stats()["canonical"]
            service.grade("iterPower-6.00x", BUGGY)
            after = service.stats()["canonical"]
            text = service.metrics_text()
        finally:
            service.close()
        assert set(after) == {
            "memo_hits", "memo_misses", "memo_entries", "memo_capacity"
        }
        # The counts are process-wide, so only the delta is this test's.
        assert after["memo_hits"] >= before["memo_hits"] + 1
        assert 1 <= after["memo_entries"] <= after["memo_capacity"]
        types, families = parse_exposition(text)
        for key in ("hits", "misses", "entries"):
            assert types[f"repro_canonical_memo_{key}"] == "gauge"
        hits = families["repro_canonical_memo_hits"]
        assert hits["repro_canonical_memo_hits"] >= after["memo_hits"]


class TestWorkerAggregation:
    def test_worker_gradings_are_counted_in_the_parent(self, warmup):
        """N cache-miss gradings in worker processes → N counted here."""
        service = make_service(warmup, executor="process")
        try:
            one = service.grade("iterPower-6.00x", BUGGY)
            two = service.grade("iterPower-6.00x", BUGGY_OTHER)
        finally:
            service.close()
        assert not one.cached and not two.cached
        registry = global_registry()
        gradings = registry.counter(
            "repro_gradings_total", labelnames=("problem", "status")
        )
        merged = sum(
            gradings.value(problem="iterPower-6.00x", status=status)
            for status in ("fixed", "no_fix", "timeout")
        )
        assert merged == 2.0
        # Engine-depth counters did their work worker-side and still
        # reached this process's registry, observed from the records.
        snapshot = registry.snapshot()
        assert "repro_sat_calls_total" in snapshot
        assert "repro_candidate_runs_total" in snapshot
        solve = registry.histogram(
            "repro_grading_stage_seconds", labelnames=("stage",)
        ).cell(stage="solve")
        assert solve is not None and solve.count == 2

    def test_healthz_reports_worker_readiness(self, warmup):
        service = make_service(warmup, executor="process")
        try:
            health = service.healthz()
        finally:
            service.close()
        # A forked worker has nothing to start: the pool reports its
        # size and its recycles, and nothing about readiness.
        assert {key for key in health if key.startswith("workers")} == {
            "workers", "workers_recycled",
        }
        assert health["workers"] == 2
        assert health["workers_recycled"] == 0


class TestExpositionEndpoint:
    def test_metrics_endpoint_parses_and_covers_layers(self, warmup):
        service = make_service(warmup, executor="thread")
        server = FeedbackHTTPServer(service, port=0)
        server.serve_in_thread()
        client = FeedbackClient(port=server.port)
        try:
            graded = client.grade("iterPower-6.00x", BUGGY)
            assert graded["request_id"]
            # Its solve replays one forker path it has already run.
            client.grade("iterPower-6.00x", BUGGY_OTHER)
            text = client.metrics()
        finally:
            client.close()
            server.shutdown_gracefully()
        types, families = parse_exposition(text)
        assert types["repro_requests_total"] == "counter"
        assert types["repro_gradings_total"] == "counter"
        assert types["repro_request_seconds"] == "histogram"
        assert types["repro_grading_seconds"] == "histogram"
        assert types["repro_grading_stage_seconds"] == "histogram"
        assert types["repro_sat_conflicts_total"] == "counter"
        # Forker runs executed and forker leaves served from the trie.
        for key in ("forker_runs", "forker_reused"):
            family = f"repro_{key}_total"
            assert types[family] == "counter"
            assert families[family][f'{family}{{engine="cegismin"}}'] >= 1
        assert types["repro_queue_depth"] == "gauge"
        assert types["repro_cache_entries"] == "gauge"
        count = families["repro_gradings_total"]
        assert any("iterPower" in key for key in count)

    def test_metrics_content_type_and_text_shape(self, warmup):
        from tests.server.test_http import raw_request

        service = make_service(warmup, executor="thread")
        server = FeedbackHTTPServer(service, port=0)
        server.serve_in_thread()
        try:
            status, headers, body = raw_request(
                server.port, "GET", "/metrics"
            )
        finally:
            server.shutdown_gracefully()
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert body.decode("utf-8").endswith("\n")

    def test_request_id_header_roundtrip(self, warmup):
        from tests.server.test_http import raw_request
        import json

        service = make_service(warmup, executor="thread")
        server = FeedbackHTTPServer(service, port=0)
        server.serve_in_thread()
        try:
            payload = json.dumps(
                {"problem": "iterPower-6.00x", "source": BUGGY}
            )
            status, headers, body = raw_request(
                server.port,
                "POST",
                "/grade",
                body=payload,
                headers={
                    "Content-Type": "application/json",
                    "Content-Length": str(len(payload)),
                    "X-Request-Id": "abc-123",
                },
            )
        finally:
            server.shutdown_gracefully()
        assert status == 200
        assert headers["X-Request-Id"] == "abc-123"
        assert json.loads(body)["request_id"] == "abc-123"


class TestRenderRoundTrip:
    def test_service_render_matches_registry_render(self, warmup):
        """metrics_text() is render(snapshot) — no hidden state."""
        service = make_service(warmup, executor="thread")
        try:
            service.grade("iterPower-6.00x", BUGGY)
            text = service.metrics_text()
        finally:
            service.close()
        again = render(global_registry().snapshot())
        assert text == again
