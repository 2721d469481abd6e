"""The result store: WAL recovery, convergence, read-through.

The acceptance bar: the log survives byte-level truncation at *every*
offset (losing at most the torn entries, never the file), concurrent
multi-client and multi-process writes converge to the union, and a file
that is not a store log is never written to.
"""

import json
import logging
import multiprocessing
import os
import threading

import pytest

from repro.cli import main
from repro.obs import OBS, global_registry, reset_global_registry
from repro.resilience import faults
from repro.service.jobstore import JobStore
from repro.service.records import RECORD_VERSION
from repro.service.store import (
    DEFAULT_FLUSH_EVERY,
    ResultStore,
    StoreClient,
)


def record(tag):
    return {"v": RECORD_VERSION, "status": "fixed", "tag": tag}


@pytest.fixture()
def log_path(tmp_path):
    return tmp_path / "results.store.jsonl"


# -- ResultStore: the log itself ------------------------------------------


def test_append_then_read_round_trips(log_path):
    store = ResultStore(log_path)
    store.append("k1", record(1))
    store.append_many([("k2", record(2)), ("k3", record(3))])
    entries = store.entries()
    assert sorted(entries) == ["k1", "k2", "k3"]
    assert entries["k2"]["tag"] == 2


def test_log_is_versioned_jsonl(log_path):
    ResultStore(log_path).append_many([("k1", record(1)), ("k2", record(2))])
    lines = log_path.read_text().splitlines()
    assert json.loads(lines[0]) == {"version": 1, "kind": "store", "generation": 0}
    assert [json.loads(line) for line in lines[1:]] == [
        {"key": "k1", "record": record(1)},
        {"key": "k2", "record": record(2)},
    ]


def test_reads_and_extends_a_bare_version_header_file(log_path):
    """The ``{"version": 1}`` header plus ``{"key", "record"}`` lines is
    a log too: such files keep answering and keep growing."""
    log_path.write_text(
        json.dumps({"version": 1})
        + "\n"
        + json.dumps({"key": "old", "record": record("old")})
        + "\n"
    )
    client = StoreClient(log_path, flush_every=1, background=False)
    assert client.get("old") == record("old")
    client.put("new", record("new"))
    assert sorted(ResultStore(log_path).entries()) == ["new", "old"]


def test_later_appends_supersede_earlier_ones(log_path):
    store = ResultStore(log_path)
    store.append("k", record("old"))
    store.append("k", record("new"))
    assert store.entries()["k"]["tag"] == "new"
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["log_lines"] == 2
    assert stats["dead_lines"] == 1


def test_survives_truncation_at_every_byte_offset(log_path):
    """The WAL contract, exhaustively: chop the log after any prefix and
    every entry whose line survived intact is still served."""
    store = ResultStore(log_path)
    for i in range(6):
        store.append(f"k{i}", record(i))
    pristine = log_path.read_bytes()
    line_ends = [
        i + 1 for i, byte in enumerate(pristine) if byte == ord("\n")
    ]
    for cut in range(len(pristine) + 1):
        log_path.write_bytes(pristine[:cut])
        entries = ResultStore(log_path).entries()
        intact_lines = sum(1 for end in line_ends if end <= cut)
        expected = max(0, intact_lines - 1)  # minus the header line
        assert len(entries) == expected, f"cut at byte {cut}"
        for key, value in entries.items():
            assert value == record(int(key[1:]))  # never corrupted data
    log_path.write_bytes(pristine)


def test_append_after_torn_tail_seals_the_damage(log_path):
    store = ResultStore(log_path)
    store.append("ok", record(0))
    store.append("torn", record(1))
    with open(log_path, "r+b") as handle:
        handle.truncate(os.path.getsize(log_path) - 5)
    store.append("fresh", record(2))
    entries = store.entries()
    # The torn entry is gone; the sealed write is intact.
    assert sorted(entries) == ["fresh", "ok"]


def test_garbage_line_in_the_middle_is_skipped(log_path):
    store = ResultStore(log_path)
    store.append("a", record(1))
    with open(log_path, "a") as handle:
        handle.write("{not json at all\n")
        handle.write(json.dumps({"key": 7, "record": record(1)}) + "\n")
    store.append("b", record(2))
    assert sorted(store.entries()) == ["a", "b"]


def test_torn_fresh_header_is_a_log_with_no_entries(log_path):
    header = json.dumps({"version": 1, "kind": "store", "generation": 0})
    log_path.write_text(header[:17])  # the creator died mid-write
    store = ResultStore(log_path)
    assert store.entries() == {}
    store.append("k", record(1))
    assert store.entries() == {"k": record(1)}


def test_empty_existing_file_is_a_fresh_log(log_path):
    log_path.touch()  # e.g. created by a deploy script ahead of the server
    client = StoreClient(log_path, flush_every=1, background=False)
    client.put("k", record(1))
    lines = log_path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "store"
    assert ResultStore(log_path).entries() == {"k": record(1)}


# -- refusing files that are not store logs ---------------------------------


def _put_through_a_client(path):
    StoreClient(path, flush_every=1, background=False).put("k", record(1))


def _compact_from_the_cli(path):
    main(["cache", "compact", str(path)])


@pytest.mark.parametrize(
    "action", [_put_through_a_client, _compact_from_the_cli],
    ids=["append", "compact"],
)
def test_jobstore_file_stays_byte_identical(tmp_path, action):
    path = tmp_path / "results.jsonl"
    jobs = JobStore(path)
    jobs.append("alice.py", record("a"), key="p:m:cegismin:t45:aa")
    jobs.append("bob.py", record("b"), key="p:m:cegismin:t45:bb")
    before = path.read_bytes()
    refused = None
    try:
        action(path)
    except (ValueError, SystemExit) as exc:
        refused = str(exc)
    assert path.read_bytes() == before
    assert len(JobStore(path).load()) == 2
    assert refused is not None and f"{path} is not a result-store log" in refused


@pytest.mark.parametrize(
    "contents",
    [
        # A pre-JSONL cache blob: one JSON object, no trailing newline.
        json.dumps({"version": 1, "entries": {"k": record(1)}}),
        json.dumps({"version": 99})
        + "\n"
        + json.dumps({"key": "k", "record": record(1)})
        + "\n",
    ],
    ids=["legacy_blob", "unknown_version"],
)
def test_file_that_is_not_a_log_is_refused(log_path, contents):
    log_path.write_text(contents)
    with pytest.raises(ValueError, match="not a result-store log"):
        StoreClient(log_path, background=False)
    assert log_path.read_text() == contents


def test_compact_drops_dead_lines_and_bumps_generation(log_path):
    store = ResultStore(log_path)
    for i in range(20):
        store.append("hot", record(i))
    store.append("cold", record("x"))
    assert store.stats()["dead_lines"] == 19
    stats = store.compact()
    assert stats["dead_lines"] == 0
    assert stats["log_lines"] == 2
    assert stats["generation"] == 1
    entries = store.entries()
    assert entries["hot"]["tag"] == 19
    assert entries["cold"]["tag"] == "x"


def test_concurrent_appenders_converge_to_the_union(log_path):
    """Many threads (each its own ResultStore handle — distinct clients
    in one process share nothing but the file) write disjoint keys; the
    log must end up holding every one of them."""
    writers, per_writer = 8, 25
    errors = []

    def write(writer):
        try:
            store = ResultStore(log_path)
            for i in range(per_writer):
                store.append(f"w{writer}-k{i}", record(writer))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=write, args=(w,)) for w in range(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    entries = ResultStore(log_path).entries()
    assert len(entries) == writers * per_writer
    for writer in range(writers):
        for i in range(per_writer):
            assert entries[f"w{writer}-k{i}"]["tag"] == writer


# -- StoreClient: the per-backend view ------------------------------------


def test_write_behind_flushes_by_count(log_path):
    client = StoreClient(log_path, flush_every=4, background=False)
    for i in range(3):
        client.put(f"k{i}", record(i))
    assert ResultStore(log_path).entries() == {}  # still buffered
    assert client.peek("k0") is not None  # but served locally
    client.put("k3", record(3))  # 4th put crosses the threshold
    assert len(ResultStore(log_path).entries()) == 4
    assert client.stats["pending_writes"] == 0


def test_read_through_sees_other_clients_appends(log_path):
    writer = StoreClient(log_path, background=False)
    reader = StoreClient(log_path, background=False)
    assert reader.get("shared") is None
    writer.put("shared", record("w"))
    writer.flush()
    # The miss path tail-reads the log before answering.
    hit = reader.get("shared")
    assert hit == record("w")
    assert reader.stats["hits"] >= 1


def test_refresh_prefers_newer_log_lines_over_stale_memory(log_path):
    stale = StoreClient(log_path, flush_every=1, background=False)
    stale.put("k", record("old"))
    fresh = StoreClient(log_path, flush_every=1, background=False)
    fresh.put("k", record("new"))
    assert stale.get("k") == record("old")  # a memory hit reads nothing
    stale.refresh()
    assert stale.peek("k") == record("new")
    assert StoreClient(log_path, background=False).peek("k") == record("new")


def test_refresh_keeps_own_unflushed_puts_over_the_log(log_path):
    mine = StoreClient(log_path, flush_every=100, background=False)
    mine.put("k", record("mine"))  # buffered, not yet in the log
    other = StoreClient(log_path, flush_every=1, background=False)
    other.put("k", record("other"))
    mine.refresh()
    assert mine.peek("k") == record("mine")
    mine.flush()  # appended after the other line, so it supersedes it
    assert ResultStore(log_path).entries()["k"] == record("mine")


def test_concurrent_clients_converge_to_the_union(log_path):
    clients = [
        StoreClient(log_path, flush_every=5, background=False)
        for _ in range(4)
    ]
    for index, client in enumerate(clients):
        for i in range(20):
            client.put(f"c{index}-k{i}", record(index))
    for client in clients:
        client.close()
    final = ResultStore(log_path).entries()
    assert len(final) == 80
    late = StoreClient(log_path, background=False)
    assert len(late._entries) == 80


def test_spawned_processes_converge_to_the_union(log_path):
    workers, entries_each = 4, 8
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(workers)
    procs = [
        ctx.Process(
            target=_hammer_store,
            args=(str(log_path), worker, entries_each, barrier),
        )
        for worker in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    final = ResultStore(log_path).entries()
    for worker in range(workers):
        for index in range(entries_each):
            assert final[f"w{worker}e{index}"] == record(worker), (worker, index)


def _hammer_store(path, worker, entries_each, barrier):
    """Child-process body for the multi-process stress test (module level
    so the spawn start method can pickle it)."""
    client = StoreClient(path, flush_every=1, background=False)
    barrier.wait()
    for index in range(entries_each):
        client.put(f"w{worker}e{index}", record(worker))
    client.close()


def test_failed_flush_keeps_the_buffer_and_does_not_raise(log_path):
    client = StoreClient(log_path, flush_every=1, background=False)
    faults.arm("cache.write", count=1)
    try:
        client.put("k", record(1))  # the triggered flush fails
    finally:
        faults.reset()
    assert client.peek("k") == record(1)  # still served
    assert client.stats["pending_writes"] == 1
    assert ResultStore(log_path).entries() == {}
    assert client.flush() == 1  # retried, and written this time
    assert ResultStore(log_path).entries() == {"k": record(1)}


def test_failed_flush_is_reported_as_an_event_and_a_counter(log_path, caplog):
    client = StoreClient(log_path, flush_every=1, background=False)
    reset_global_registry()
    logger = logging.getLogger("repro.obs")
    saved = logger.propagate
    logger.propagate = True  # the serve CLI may have turned it off
    faults.arm("cache.write", count=1)
    try:
        with OBS.using(True), caplog.at_level(
            logging.ERROR, logger="repro.obs"
        ):
            client.put("k", record(1))
    finally:
        faults.reset()
        logger.propagate = saved
    events = [json.loads(r.getMessage()) for r in caplog.records]
    assert [e["event"] for e in events] == ["cache_persist_failed"]
    assert events[0]["path"] == str(log_path)
    assert "injected cache.write fault" in events[0]["error"]
    assert _persist_failures() == 1
    reset_global_registry()


def _persist_failures():
    snapshot = global_registry().snapshot()
    counter = snapshot.get("repro_cache_persist_failures_total")
    return sum(counter["values"].values()) if counter else 0


def test_close_absorbs_a_failed_final_flush(log_path):
    client = StoreClient(log_path, flush_every=100, background=False)
    client.put("k", record(1))
    faults.arm("cache.write", count=1)
    try:
        client.close()  # must not raise out of shutdown
    finally:
        faults.reset()
    assert ResultStore(log_path).entries() == {}
    assert client.stats["pending_writes"] == 1
    client.close()  # idempotent: the retry persists the kept buffer
    assert ResultStore(log_path).entries() == {"k": record(1)}


def test_background_flush_failure_is_retried(log_path):
    reset_global_registry()
    client = StoreClient(log_path, flush_every=10_000, flush_interval_s=0.1)
    faults.arm("cache.write", count=1)
    try:
        with OBS.using(True):
            client.put("k", record(1))
            for _ in range(50):
                if "k" in ResultStore(log_path).entries():
                    break
                threading.Event().wait(0.1)
        # The thread survived its failed flush and wrote on a later tick.
        assert _persist_failures() == 1
        assert ResultStore(log_path).entries() == {"k": record(1)}
    finally:
        faults.reset()
        client.close()
        reset_global_registry()


def test_rotation_detection_after_foreign_compaction(log_path):
    client = StoreClient(log_path, flush_every=1, background=False)
    for i in range(10):
        client.put("same-key", record(i))
    other = ResultStore(log_path)
    other.compact()
    other.append("post-compact", record("new"))
    assert client.refresh() >= 1
    assert client.peek("post-compact") == record("new")
    assert client.peek("same-key") == record(9)
    assert client._generation == 1


def test_auto_compaction_when_dead_ratio_exceeded(log_path):
    client = StoreClient(
        log_path,
        flush_every=1,
        compact_ratio=0.5,
        compact_min_bytes=0,
        background=False,
    )
    for i in range(30):
        client.put("churner", record(i))
    assert client.compactions >= 1
    stats = ResultStore(log_path).stats()
    assert stats["generation"] >= 1
    assert stats["dead_ratio"] <= 0.5
    assert client.peek("churner") == record(29)


def test_background_thread_flushes_by_age(log_path):
    client = StoreClient(
        log_path, flush_every=10_000, flush_interval_s=0.1
    )
    try:
        client.put("aged", record(1))
        deadline = 50
        while deadline and "aged" not in ResultStore(log_path).entries():
            deadline -= 1
            threading.Event().wait(0.1)
        assert "aged" in ResultStore(log_path).entries()
    finally:
        client.close()


def test_default_flush_threshold_is_sane():
    assert 1 <= DEFAULT_FLUSH_EVERY <= 256
