"""Result cache, cache key and record serialization tests."""

import dataclasses
import pickle
import threading

import pytest

from repro.core.api import FeedbackReport
from repro.core.feedback import FeedbackItem
from repro.problems import get_problem
from repro.server import FeedbackService, Warmup, warm_problem
from repro.service import (
    BatchRunner,
    GradingConfig,
    ResultCache,
    cache_key,
    canonicalize,
    model_digest,
    record_to_report,
    report_to_record,
    static_key,
)


def _record(status="fixed", cost=1):
    return report_to_record(
        FeedbackReport(
            status=status,
            problem="iterPower-6.00x",
            items=[
                FeedbackItem(
                    line=2,
                    rule="INITR",
                    kind="expression",
                    original="result = 0",
                    replacement="result = 1",
                    message="In line 2, the accumulator is initialized incorrectly.",
                )
            ],
            cost=cost,
            minimal=True,
            fixed_source="def iterPower(base, exp):\n    return base ** exp\n",
            wall_time=0.5,
        )
    )


class TestRecords:
    def test_roundtrip(self):
        report = record_to_report(_record())
        assert report.status == "fixed"
        assert report.cost == 1
        assert report.minimal
        assert report.items[0].rule == "INITR"
        assert "return base ** exp" in report.fixed_source
        assert "1 change" in report.render()

    def test_version_mismatch_rejected(self):
        bad = _record()
        bad["v"] = 999
        with pytest.raises(ValueError):
            record_to_report(bad)


class TestResultCache:
    def test_hit_and_miss_accounting(self):
        cache = ResultCache()
        key = cache_key("p", "m", "c")
        assert cache.get(key) is None
        cache.put(key, _record())
        assert cache.get(key)["status"] == "fixed"
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1 and key in cache
        assert cache.flush() == 0  # memory-only: nothing to write

    def test_concurrent_threads_keep_exact_accounting(self):
        """One instance backs every server thread: no lost puts, and
        every get is counted exactly once as a hit or a miss."""
        cache = ResultCache()
        threads, rounds = 8, 200
        start = threading.Barrier(threads)
        wrong = []

        def hammer(worker):
            start.wait()
            for i in range(rounds):
                key = cache_key("p", "m", f"w{worker}-{i}")
                cache.get(key)  # always a miss: nobody else writes it
                cache.put(key, _record(cost=worker))
                if cache.get(key)["cost"] != worker:
                    wrong.append(key)

        pool = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not wrong
        assert cache.stats == {
            "entries": threads * rounds,
            "hits": threads * rounds,
            "misses": threads * rounds,
        }


class TestKeyNormalization:
    def test_empty_engine_is_the_default_engine(self):
        # Equivalent configurations must share one address: the default
        # engine spelled implicitly and explicitly used to produce
        # distinct keys, turning identical work into cache misses.
        assert cache_key("p", "m", "c") == cache_key("p", "m", "c", engine="cegismin")
        assert cache_key("p", "m", "c", timeout_s=45.0) == cache_key(
            "p", "m", "c", engine="cegismin", timeout_s=45.0
        )

    def test_distinct_engines_stay_distinct(self):
        assert cache_key("p", "m", "c", engine="enumerative") != cache_key(
            "p", "m", "c"
        )


#: One fixed submission and its exact cache keys. Store files on disk
#: hold keys spelled this way, so any change to them turns every stored
#: verdict into a miss.
BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""
_PINNED_PREFIX = "iterPower-6.00x:c02c523bbb0b9426"
_PINNED_DIGEST = (
    "a97022e1ad0c8d37c9ff06b21358e0fb12debcf8ed383b6a716ec90a00a87c30"
)
PINNED = {
    "default": f"{_PINNED_PREFIX}:cegismin:t45:{_PINNED_DIGEST}",
    "enumerative": f"{_PINNED_PREFIX}:enumerative:t45:{_PINNED_DIGEST}",
    "static": f"{_PINNED_PREFIX}:static:{_PINNED_DIGEST}",
}


class TestPinnedKeys:
    @pytest.fixture(scope="class")
    def parts(self):
        problem = get_problem("iterPower-6.00x")
        return (
            problem.name,
            model_digest(problem.model),
            canonicalize(BUGGY, problem.spec).digest,
        )

    def test_cache_key_strings(self, parts):
        assert cache_key(*parts, timeout_s=45.0) == PINNED["default"]
        assert (
            cache_key(*parts, engine="enumerative", timeout_s=45.0)
            == PINNED["enumerative"]
        )
        assert static_key(*parts) == PINNED["static"]
        # The same strings, derived by the one grading config.
        config = GradingConfig(timeout_s=45.0)
        assert config.key(*parts) == PINNED["default"]
        assert (
            GradingConfig("enumerative", 45.0).key(*parts)
            == PINNED["enumerative"]
        )
        # A request's own engine and budget, passed as arguments.
        assert config.key(*parts, "enumerative", 45.0) == PINNED["enumerative"]
        assert GradingConfig(timeout_s=9.0).key(*parts, timeout_s=45.0) == (
            PINNED["default"]
        )

    def test_grading_config_value_semantics(self):
        config = GradingConfig("enumerative", 12.0)
        assert pickle.loads(pickle.dumps(config)) == config
        assert config.override(None, 12.0) == config
        assert config.override(None, 3.0) == GradingConfig("enumerative", 3.0)
        assert config.override("cegismin", 3.0).engine == "cegismin"
        with pytest.raises(ValueError):
            GradingConfig(engine="magic")

    def test_grading_config_is_engine_and_budget(self):
        assert [f.name for f in dataclasses.fields(GradingConfig)] == [
            "engine", "timeout_s",
        ]

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan"), 1e7])
    def test_grading_config_refuses_a_budget_out_of_bounds(self, timeout_s):
        # The bound a request and --timeout are held to: a config built
        # in code cannot carry a budget the pool's watchdog cannot wait.
        with pytest.raises(ValueError, match="solve budget"):
            GradingConfig(timeout_s=timeout_s)
        with pytest.raises(ValueError, match="solve budget"):
            GradingConfig().override(None, timeout_s)

    @pytest.mark.parametrize("var", ["REPRO_EXPLORER", "REPRO_ANALYSIS"])
    def test_retired_env_vars_are_inert(self, parts, monkeypatch, var):
        # Nothing reads them any more: even a value their settings used
        # to refuse leaves the config and its keys as they are.
        monkeypatch.setenv(var, "maybe")
        config = GradingConfig(timeout_s=45.0)
        assert config.key(*parts) == PINNED["default"]

    def test_service_key_matches_the_batch_runner(self):
        problem = get_problem("iterPower-6.00x")
        config = GradingConfig("enumerative", 45.0)
        service = FeedbackService(
            warmup=Warmup({problem.name: warm_problem(problem, config, prime=False)}),
            config=config,
            executor="thread",
        )
        try:
            key = service.key(problem.name, BUGGY)
        finally:
            service.close()
        runner = BatchRunner(problem, timeout_s=45.0, engine="enumerative")
        (result,) = runner.run([BUGGY])
        assert key == result.canonical

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_runner_derives_the_same_keys(self, jobs):
        # At jobs=2 the grading runs in a pool worker, so the config
        # crosses the worker pipe.
        problem = get_problem("iterPower-6.00x")
        for config, engine in (
            ("default", None),
            ("enumerative", "enumerative"),
        ):
            runner = BatchRunner(
                problem, jobs=jobs, timeout_s=45.0, engine=engine
            )
            (result,) = runner.run([BUGGY])
            assert result.report.status == "fixed"
            assert result.canonical == PINNED[config]
