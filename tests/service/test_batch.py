"""Batch runner, job store resume, and CLI ``batch`` smoke tests.

Uses the cheapest problems (iterPower / prodBySum with 3–4-bit spaces)
so the whole module stays in the seconds range.
"""

import json
import sys
import threading

import pytest

from repro.cli import main
from repro.problems import get_problem
from repro.resilience import faults
from repro.server import service as service_mod
from repro.server.service import FeedbackService
from repro.service import BatchItem, BatchRunner, JobStore, ResultCache
from repro.service.records import comparable_record, report_to_record
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

    def test_runs_reuse_the_process_wide_verifier(self, monkeypatch):
        # Corpus generation fills the process-wide verifier; a run that
        # is handed none warms on it instead of building its own table.
        from repro.core.api import _verifier_cache
        from repro.server import warm

        handed = []
        real = warm.warm_problem

        def spy(*args, **kwargs):
            handed.append(kwargs["verifier"])
            return real(*args, **kwargs)

        monkeypatch.setattr(warm, "warm_problem", spy)
        BatchRunner(PROBLEM, timeout_s=20).run([CORRECT])
        (verifier,) = handed
        assert verifier is _verifier_cache(PROBLEM.spec)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchRunner(PROBLEM, jobs=0)

    @pytest.mark.parametrize("timeout_s", [0, float("nan"), 1e7])
    def test_a_budget_out_of_bounds_is_refused(self, timeout_s):
        # The bound of --timeout and of a request, checked when the
        # runner is built: 1e7 s is past what a pool's watchdog can wait.
        with pytest.raises(ValueError, match="solve budget"):
            BatchRunner(PROBLEM, jobs=2, timeout_s=timeout_s)

    def test_parallel_matches_serial(self):
        serial = BatchRunner(PROBLEM, jobs=1, timeout_s=20)
        parallel = BatchRunner(PROBLEM, jobs=2, timeout_s=20)
        serial_rows, parallel_rows = serial.run(ITEMS), parallel.run(ITEMS)
        assert [r.sid for r in parallel_rows] == [r.sid for r in serial_rows]
        assert [r.canonical for r in parallel_rows] == [
            r.canonical for r in serial_rows
        ]
        counts = ("total", "graded", "cache_hits", "dedup_hits", "resumed")
        assert [getattr(parallel.stats, name) for name in counts] == [
            getattr(serial.stats, name) for name in counts
        ]
        assert parallel.stats.by_status == serial.stats.by_status
        # The first copy in input order is graded at any jobs, so bob
        # quotes alice's identifiers in both runs.
        assert [r.cached for r in parallel_rows] == [
            r.cached for r in serial_rows
        ]
        assert records(parallel_rows) == records(serial_rows)


def records(rows):
    return [comparable_record(report_to_record(r.report)) for r in rows]


class TestParallelBatchAccounting:
    def test_copies_of_one_submission_never_grade_together(
        self, monkeypatch
    ):
        # alice, bob and dave share a key. Sent to the service together,
        # two of them would hold client threads waiting on the first.
        grade = FeedbackService.grade
        copies = {BUGGY, BUGGY_RENAMED}
        active, overlaps = [0], []
        lock = threading.Lock()

        def tracked(service, problem, source, *args, **kwargs):
            copy = source in copies
            with lock:
                active[0] += copy
                if active[0] > 1:
                    overlaps.append(source)
            try:
                return grade(service, problem, source, *args, **kwargs)
            finally:
                with lock:
                    active[0] -= copy

        monkeypatch.setattr(FeedbackService, "grade", tracked)
        runner = BatchRunner(PROBLEM, jobs=2, timeout_s=20)
        results = runner.run(ITEMS)
        assert overlaps == []
        assert [r.report.status for r in results] == EXPECTED
        assert runner.stats.dedup_hits == 2

    def test_the_pool_has_a_worker_per_distinct_submission_at_most(
        self, monkeypatch
    ):
        # Four copies of one submission: one grading, three duplicates,
        # so a second worker would serve no client.
        sizes = []
        build = BatchRunner._service

        def spying(runner, jobs):
            service = build(runner, jobs)
            sizes.append(service.stats()["executor"]["workers"])
            return service

        monkeypatch.setattr(BatchRunner, "_service", spying)
        runner = BatchRunner(PROBLEM, jobs=2, timeout_s=20)
        runner.run([BUGGY] * 4)
        assert sizes == [1]
        assert runner.stats.graded == 1
        assert runner.stats.dedup_hits == 3

    def test_a_batch_the_cache_answers_forks_no_pool(self, monkeypatch):
        # Every distinct submission is in the cache, by its graded key
        # (BUGGY) or by its static key (UNBOUND, triaged under another
        # engine): nothing is left to grade, so no worker is forked.
        cache = ResultCache()
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, cache=cache).run([BUGGY])
        BatchRunner(ODD, jobs=1, timeout_s=20, cache=cache).run([UNBOUND])

        def refuse(*args, **kwargs):
            raise AssertionError("a ProcessExecutor was built")

        monkeypatch.setattr(service_mod, "ProcessExecutor", refuse)
        rerun = BatchRunner(PROBLEM, jobs=2, timeout_s=20, cache=cache)
        results = rerun.run([BUGGY, BUGGY_RENAMED])
        assert [r.report.status for r in results] == ["fixed", "fixed"]
        assert (rerun.stats.graded, rerun.stats.cache_hits) == (0, 2)
        triaged = BatchRunner(
            ODD, jobs=2, timeout_s=20, engine="enumerative", cache=cache
        )
        results = triaged.run([UNBOUND, UNBOUND])
        assert [r.report.status for r in results] == ["static", "static"]
        assert triaged.stats.graded == 0

    def test_client_threads_lose_no_update(self, tmp_path):
        # More client threads than cores, switching as often as the
        # interpreter allows: every item still settles exactly once, in
        # input order, and the ledger balances.
        items = [
            BatchItem(f"s{index:02d}.py", item.source)
            for index, item in enumerate(ITEMS * 3)
        ]
        seen = []
        store = JobStore(tmp_path / "results.jsonl")
        runner = BatchRunner(
            PROBLEM,
            jobs=4,
            timeout_s=20,
            store=store,
            progress=lambda done, total, result: seen.append(
                (done, result.sid)
            ),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = runner.run(items)
        finally:
            sys.setswitchinterval(interval)
        assert [r.sid for r in results] == [item.sid for item in items]
        assert [r.report.status for r in results] == EXPECTED * 3
        assert sorted(done for done, _ in seen) == list(
            range(1, len(items) + 1)
        )
        assert sorted(sid for _, sid in seen) == sorted(
            item.sid for item in items
        )
        stats = runner.stats
        assert stats.total == len(items)
        assert stats.graded + stats.cache_hits + stats.dedup_hits == len(items)
        assert sum(stats.by_status.values()) == len(items)
        assert len(store.load()) == len(items)


#: Distinct iterPower submissions: four canonical forms, four gradings.
DISTINCT = [
    BatchItem("alice.py", BUGGY),
    BatchItem("carol.py", CORRECT),
    BatchItem("eve.py", BROKEN),
    BatchItem(
        "frank.py",
        CORRECT.replace("range(exp)", "range(exp - 1)"),
    ),
]


class TestParallelBatchChaos:
    def test_worker_crash_costs_one_item_and_resume_regrades_it(
        self, tmp_path
    ):
        cache = ResultCache()
        store = JobStore(tmp_path / "results.jsonl")
        faults.configure("worker.crash:n=1")
        try:
            runner = BatchRunner(
                PROBLEM, jobs=2, timeout_s=20, cache=cache, store=store
            )
            results = runner.run(DISTINCT)
        finally:
            faults.reset()
        assert [r.sid for r in results] == [item.sid for item in DISTINCT]
        errors = [r for r in results if r.report.status == "error"]
        assert len(errors) == 1
        assert "died mid-request" in errors[0].report.detail
        assert runner.stats.failures == 1
        # The lost grading is neither cached nor stored...
        assert cache.peek(errors[0].canonical) is None
        assert errors[0].sid not in store.load()
        assert len(store.load()) == len(DISTINCT) - 1
        # ...so a clean resume grades exactly that one submission.
        resumed = BatchRunner(
            PROBLEM, jobs=2, timeout_s=20, store=store, resume=True
        )
        again = resumed.run(DISTINCT)
        assert resumed.stats.graded == 1
        assert resumed.stats.resumed == len(DISTINCT) - 1
        assert resumed.stats.failures == 0
        serial = BatchRunner(PROBLEM, jobs=1, timeout_s=20).run(DISTINCT)
        assert records(again) == records(serial)


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


ODD = get_problem("oddTuples-6.00")

#: Triage proves this unfixable (an unbound name): a ``static`` record,
#: filed under the engine-independent static key.
UNBOUND = """def oddTuples(aTup):
  result = len(resutl)
  return aTup
"""


class TestTriagedResume:
    @pytest.fixture
    def inbox(self, tmp_path):
        directory = tmp_path / "inbox"
        directory.mkdir()
        (directory / "reference.py").write_text(ODD.spec.reference_source)
        (directory / "unbound.py").write_text(UNBOUND)
        return directory

    def test_cli_resume_serves_triaged_files(self, inbox, capsys):
        argv = ["batch", str(inbox), "--problem", ODD.name, "--timeout", "20"]
        assert main(argv) == 0
        assert "static" in capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 graded" in out
        assert "2 resumed" in out
        assert len((inbox / "results.jsonl").read_text().splitlines()) == 2


class TestStaleResume:
    def test_resume_after_model_change_regrades(self, tmp_path):
        # The stale-resume bug: a job store written under one model
        # digest must not satisfy a resume under another.
        path = tmp_path / "results.jsonl"
        store = JobStore(path)
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run([ITEMS[0]])
        digest = next(iter(store.load().values()))["key"].split(":")[1]
        path.write_text(path.read_text().replace(digest, "f" * len(digest)))
        resumed = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, store=store, resume=True
        )
        (result,) = resumed.run([ITEMS[0]])
        assert not result.resumed
        assert resumed.stats.graded == 1

    def test_resume_regrades_an_edited_file(self, tmp_path):
        # The stored record answers the file as it was: once a.py is
        # replaced by the reference, it is graded again. An α-renamed
        # copy has the stored key, so it still resumes.
        store = JobStore(tmp_path / "results.jsonl")
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run(
            [BatchItem("a.py", BUGGY), BatchItem("b.py", BUGGY)]
        )
        resumed = BatchRunner(
            PROBLEM, jobs=1, timeout_s=20, store=store, resume=True
        )
        edited, renamed = resumed.run(
            [
                BatchItem("a.py", PROBLEM.spec.reference_source),
                BatchItem("b.py", BUGGY_RENAMED),
            ]
        )
        assert not edited.resumed
        assert edited.report.status == "already_correct"
        assert renamed.resumed
        assert renamed.report.status == "fixed"


class TestErrorRecords:
    def _grading_exception_becomes_error_record(self, monkeypatch, jobs):
        from repro.service import workers as workers_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        # The one grading call: a pool forks after the patch, so its
        # workers raise too.
        monkeypatch.setattr(workers_mod, "generate_feedback", boom)
        cache = ResultCache()
        runner = BatchRunner(PROBLEM, jobs=jobs, timeout_s=20, cache=cache)
        results = runner.run([ITEMS[0]])
        assert results[0].report.status == "error"
        assert "engine exploded" in results[0].report.detail
        assert runner.stats.by_status == {"error": 1}
        assert runner.stats.failures == 1
        # Error records are transient: never cached, so a retry re-grades.
        assert len(cache) == 0

    def test_serial_grading_exception_becomes_error_record(self, monkeypatch):
        self._grading_exception_becomes_error_record(monkeypatch, jobs=1)

    def test_parallel_grading_exception_becomes_error_record(
        self, monkeypatch
    ):
        self._grading_exception_becomes_error_record(monkeypatch, jobs=2)

    def test_error_records_not_persisted_to_store(self, monkeypatch, tmp_path):
        from repro.service import workers as workers_mod

        monkeypatch.setattr(
            workers_mod,
            "generate_feedback",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        store = JobStore(tmp_path / "results.jsonl")
        BatchRunner(PROBLEM, jobs=1, timeout_s=20, store=store).run([ITEMS[0]])
        assert store.load() == {}


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
