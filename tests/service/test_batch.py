"""Batch runner, job store resume, and CLI ``batch`` smoke tests.

Uses the cheapest problems (iterPower / prodBySum with 3–4-bit spaces)
so the whole module stays in the seconds range.
"""

import json

import pytest

from repro.cli import main
from repro.engines import CegisMinEngine
from repro.problems import get_problem
from repro.service import BatchItem, BatchRunner, JobStore, ResultCache
from repro.service.store import ResultStore, StoreClient

PROBLEM = get_problem("iterPower-6.00x")

BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""

#: BUGGY with locals renamed: same canonical form, must not be re-solved.
BUGGY_RENAMED = """def iterPower(b, e):
    acc = 0
    for j in range(e):
        acc = acc * b
    return acc
"""

CORRECT = """def iterPower(base, exp):
    result = 1
    for i in range(exp):
        result = result * base
    return result
"""

BROKEN = "def iterPower(base, exp:\n    return\n"

ITEMS = [
    BatchItem("alice.py", BUGGY),
    BatchItem("bob.py", BUGGY_RENAMED),
    BatchItem("carol.py", CORRECT),
    BatchItem("dave.py", BUGGY),
    BatchItem("eve.py", BROKEN),
]

EXPECTED = ["fixed", "fixed", "already_correct", "fixed", "syntax_error"]


class TestBatchRunner:
    def test_serial_batch_dedups_and_orders(self):
        runner = BatchRunner(PROBLEM, jobs=1, timeout_s=20)
        results = runner.run(ITEMS)
        assert [r.sid for r in results] == [i.sid for i in ITEMS]
        assert [r.report.status for r in results] == EXPECTED
        # alice/bob/dave collapse to one canonical submission.
        assert runner.stats.graded == 3
        assert runner.stats.dedup_hits == 2
        assert not results[0].cached and results[1].cached and results[3].cached

    def test_shared_cache_second_run_grades_nothing(self):
        cache = ResultCache()
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, cache=cache).run(ITEMS)
        rerun = BatchRunner(PROBLEM, jobs=1, timeout_s=20, cache=cache)
        results = rerun.run(ITEMS)
        assert rerun.stats.graded == 0
        assert rerun.stats.cache_hits == len(ITEMS)
        assert all(r.cached for r in results)
        assert [r.report.status for r in results] == EXPECTED

    def test_run_flushes_a_store_client_cache(self, tmp_path):
        path = tmp_path / "results.store.jsonl"
        cache = StoreClient(path, flush_every=10_000, background=False)
        runner = BatchRunner(PROBLEM, jobs=1, timeout_s=20, cache=cache)
        runner.run(ITEMS)
        # No close(): the end of the run is itself a flush point, so the
        # three graded verdicts are on disk for the next process.
        assert len(ResultStore(path).entries()) == runner.stats.graded == 3
        assert cache.stats["pending_writes"] == 0

    def test_different_model_misses_cache(self):
        cache = ResultCache()
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, cache=cache).run(
            [ITEMS[0]]
        )
        pruned = BatchRunner(
            PROBLEM,
            model=PROBLEM.model.prefix(0, name="E0"),
            jobs=1,
            timeout_s=20,
            cache=cache,
        )
        results = pruned.run([ITEMS[0]])
        assert pruned.stats.cache_hits == 0
        assert results[0].report.status == "no_fix"

    def test_progress_callback_fires_per_item(self):
        seen = []
        runner = BatchRunner(
            PROBLEM,
            jobs=1,
            timeout_s=20,
            progress=lambda done, total, result: seen.append(
                (done, total, result.sid)
            ),
        )
        runner.run(ITEMS)
        assert len(seen) == len(ITEMS)
        assert [s[0] for s in seen] == list(range(1, len(ITEMS) + 1))
        assert all(s[1] == len(ITEMS) for s in seen)

    def test_engine_instance_serial_only(self):
        runner = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, engine=CegisMinEngine()
        )
        assert runner.run([ITEMS[0]])[0].report.status == "fixed"
        with pytest.raises(ValueError):
            BatchRunner(PROBLEM, jobs=2, engine=CegisMinEngine())

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchRunner(PROBLEM, jobs=0)

    def test_parallel_matches_serial(self):
        serial = BatchRunner(PROBLEM, jobs=1, timeout_s=20).run(ITEMS)
        parallel = BatchRunner(PROBLEM, jobs=2, timeout_s=20).run(ITEMS)
        assert [r.report.status for r in parallel] == [
            r.report.status for r in serial
        ]
        assert [r.sid for r in parallel] == [r.sid for r in serial]


class TestEngineInstanceCacheKeys:
    def test_differently_configured_engines_do_not_share_entries(self):
        # Regression: keys used to be derived from type(engine).__name__,
        # so CegisMinEngine(max_cost=0) and CegisMinEngine() shared cache
        # entries — the tight budget's no_fix was replayed verbatim to
        # the generous run.
        cache = ResultCache()
        tight = BatchRunner(
            PROBLEM,
            jobs=1,
            timeout_s=20,
            engine=CegisMinEngine(max_cost=0),
            cache=cache,
        )
        assert tight.run([ITEMS[0]])[0].report.status == "no_fix"
        generous = BatchRunner(
            PROBLEM,
            jobs=1,
            timeout_s=20,
            engine=CegisMinEngine(),
            cache=cache,
        )
        results = generous.run([ITEMS[0]])
        assert results[0].report.status == "fixed"
        assert not results[0].cached  # the no_fix entry was never offered
        assert generous.stats.cache_hits == 0

    def test_config_label_distinguishes_and_defaults_collapse(self):
        cache = ResultCache()
        by_instance = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, engine=CegisMinEngine(), cache=cache
        )
        by_name = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, engine="cegismin", cache=cache
        )
        # A default-constructed instance is the named configuration: the
        # two runners must share entries...
        assert by_instance._key_prefix == by_name._key_prefix
        # ...while any non-default parameter forks the address.
        tight = BatchRunner(
            PROBLEM,
            jobs=1,
            timeout_s=20,
            engine=CegisMinEngine(max_cost=1),
            cache=cache,
        )
        assert tight._key_prefix != by_name._key_prefix
        assert "max_cost=1" in tight._key_prefix


class TestJobStoreResume:
    def test_resume_skips_completed(self, tmp_path):
        store = JobStore(tmp_path / "results.jsonl")
        first = BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store)
        first.run(ITEMS)
        assert len(store.load()) == len(ITEMS)

        resumed = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, store=store, resume=True
        )
        results = resumed.run(ITEMS)
        assert resumed.stats.graded == 0
        assert resumed.stats.resumed == len(ITEMS)
        assert all(r.resumed for r in results)
        assert [r.report.status for r in results] == EXPECTED

    def test_partial_resume_grades_remainder(self, tmp_path):
        store = JobStore(tmp_path / "results.jsonl")
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run(ITEMS[:2])
        resumed = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, store=store, resume=True
        )
        results = resumed.run(ITEMS)
        assert resumed.stats.resumed == 2
        assert [r.report.status for r in results] == EXPECTED
        # The store now covers everything for a third, no-op resume.
        assert len(store.load()) == len(ITEMS)

    def test_corrupt_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = JobStore(path)
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run(ITEMS[:1])
        with path.open("a") as handle:
            handle.write('{"id": "crash')  # interrupted mid-write
        assert len(store.load()) == 1

    def test_resume_rejects_other_configuration(self, tmp_path):
        # A store written under a different error model (or problem,
        # engine, budget) must be re-graded, not served as-is.
        store = JobStore(tmp_path / "results.jsonl")
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run(ITEMS[:1])
        pruned = BatchRunner(
            PROBLEM,
            model=PROBLEM.model.prefix(0, name="E0"),
            jobs=1,
            timeout_s=20,
            store=store,
            resume=True,
        )
        results = pruned.run(ITEMS[:1])
        assert pruned.stats.resumed == 0
        assert pruned.stats.graded == 1
        assert results[0].report.status == "no_fix"

    def test_resume_seeds_cache_for_pending_duplicates(self, tmp_path):
        # alice completed before the interruption; dave (identical
        # source) arrives on resume and must be served from her record.
        store = JobStore(tmp_path / "results.jsonl")
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run(
            [ITEMS[0]]
        )
        resumed = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, store=store, resume=True
        )
        results = resumed.run([ITEMS[0], BatchItem("dave.py", BUGGY)])
        assert resumed.stats.resumed == 1
        assert resumed.stats.graded == 0
        assert resumed.stats.cache_hits == 1
        assert results[1].report.status == "fixed"

    def test_timeout_budget_is_part_of_the_key(self):
        cache = ResultCache()
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, cache=cache).run(
            [ITEMS[0]]
        )
        bigger = BatchRunner(PROBLEM, jobs=1, timeout_s=30, cache=cache)
        bigger.run([ITEMS[0]])
        assert bigger.stats.cache_hits == 0
        assert bigger.stats.graded == 1


class TestCliBatch:
    @pytest.fixture
    def inbox(self, tmp_path):
        directory = tmp_path / "inbox"
        directory.mkdir()
        (directory / "a.py").write_text(BUGGY)
        (directory / "b.py").write_text(BUGGY_RENAMED)
        (directory / "c.py").write_text(CORRECT)
        return directory

    def test_batch_writes_jsonl_and_summary(self, inbox, capsys):
        code = main(
            [
                "batch",
                str(inbox),
                "--problem",
                PROBLEM.name,
                "--timeout",
                "20",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "batch summary" in out
        assert "1 duplicates" in out
        lines = (inbox / "results.jsonl").read_text().splitlines()
        entries = {json.loads(line)["id"] for line in lines}
        assert entries == {"a.py", "b.py", "c.py"}

    def test_batch_resume_regrades_nothing(self, inbox, capsys):
        main(["batch", str(inbox), "--problem", PROBLEM.name, "--timeout", "20"])
        capsys.readouterr()
        code = main(
            [
                "batch",
                str(inbox),
                "--problem",
                PROBLEM.name,
                "--timeout",
                "20",
                "--resume",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 graded" in out
        assert "3 resumed" in out

    def test_batch_empty_directory_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["batch", str(empty), "--problem", PROBLEM.name])

    def test_batch_cache_is_a_store_log_across_runs(
        self, inbox, tmp_path, capsys
    ):
        log = tmp_path / "grading.store.jsonl"
        argv = ["batch", str(inbox), "--problem", PROBLEM.name,
                "--timeout", "20", "--cache", str(log)]
        assert main(argv + ["--out", str(tmp_path / "first.jsonl")]) == 0
        assert len(ResultStore(log).entries()) == 2  # buggy + correct
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "second.jsonl")]) == 0
        assert "3 submissions: 0 graded, 3 cache hits" in capsys.readouterr().out

    def test_batch_cache_refuses_a_file_that_is_not_a_store_log(
        self, inbox, tmp_path
    ):
        blob = tmp_path / "cache.json"
        blob.write_text(json.dumps({"version": 1, "entries": {}}))
        with pytest.raises(SystemExit, match="not a result-store log"):
            main(["batch", str(inbox), "--problem", PROBLEM.name,
                  "--cache", str(blob)])
        assert not (inbox / "results.jsonl").exists()  # nothing graded


class TestStaleResume:
    def test_load_key_prefix_drops_stale_entries(self, tmp_path):
        store = JobStore(tmp_path / "results.jsonl")
        store.append("alice.py", _RECORD, key="p:aa:cegismin:t20:" + "1" * 64)
        store.append("bob.py", _RECORD, key="p:bb:cegismin:t20:" + "2" * 64)
        store.append("carol.py", _RECORD, key=None)
        assert len(store.load()) == 3
        kept = store.load(key_prefix="p:aa:cegismin:t20:")
        assert set(kept) == {"alice.py"}

    def test_resume_after_model_change_regrades(self, tmp_path):
        # The stale-resume bug: a job store written under one model
        # digest must not satisfy a resume under another. The store-level
        # filter (not just the runner's own check) drops the entries.
        store = JobStore(tmp_path / "results.jsonl")
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run([ITEMS[0]])
        entry = next(iter(store.load().values()))
        stale_prefix = entry["key"].rsplit(":", 1)[0].replace(
            entry["key"].split(":")[1], "f" * 16
        )
        assert store.load(key_prefix=stale_prefix + ":") == {}


class TestErrorRecords:
    def test_serial_grading_exception_becomes_error_record(self, monkeypatch):
        from repro.service import runner as runner_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(runner_mod, "generate_feedback", boom)
        cache = ResultCache()
        runner = BatchRunner(PROBLEM, jobs=1, timeout_s=20, cache=cache)
        results = runner.run([ITEMS[0]])
        assert results[0].report.status == "error"
        assert "engine exploded" in results[0].report.detail
        assert runner.stats.by_status == {"error": 1}
        assert runner.stats.failures == 1
        # Error records are transient: never cached, so a retry re-grades.
        assert len(cache) == 0

    def test_error_records_not_persisted_to_store(self, monkeypatch, tmp_path):
        from repro.service import runner as runner_mod

        monkeypatch.setattr(
            runner_mod,
            "generate_feedback",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        store = JobStore(tmp_path / "results.jsonl")
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run([ITEMS[0]])
        assert store.load() == {}

    def test_worker_grade_exception_becomes_error_record(self, monkeypatch):
        from repro.service import workers as workers_mod

        workers_mod.worker_init(
            PROBLEM.spec, PROBLEM.model, "cegismin", 20.0, "compiled", True
        )
        monkeypatch.setattr(
            workers_mod,
            "generate_feedback",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("worker boom")),
        )
        record = workers_mod.worker_grade(BUGGY)
        assert record["status"] == "error"
        assert "worker boom" in record["detail"]


class TestBatchExitCode:
    @pytest.fixture
    def inbox(self, tmp_path):
        directory = tmp_path / "inbox"
        directory.mkdir()
        (directory / "a.py").write_text(BUGGY)
        (directory / "b.py").write_text(BUGGY_RENAMED)
        return directory

    def test_timeouts_exit_nonzero_with_summary(self, inbox, capsys):
        code = main(
            [
                "batch",
                str(inbox),
                "--problem",
                PROBLEM.name,
                "--timeout",
                "0.000001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert "timeout" in out

    def test_clean_batch_exits_zero(self, inbox, capsys):
        code = main(
            ["batch", str(inbox), "--problem", PROBLEM.name, "--timeout", "20"]
        )
        capsys.readouterr()
        assert code == 0


_RECORD = {
    "v": 1,
    "status": "fixed",
    "problem": "p",
    "cost": 1,
    "minimal": True,
    "fixed_source": None,
    "wall_time": 0.1,
    "detail": "",
    "items": [],
}
