"""Crash-torn persistence recovery: a write cut at *any* byte must cost
at most the damaged trailing record, never the file.

Both stores are swept the same way: write a known-good file, then
truncate it at every byte offset inside the last record and assert every
earlier entry still loads (with a recovery event, not an exception). The
result store is swept through a :class:`StoreClient`, which must also
seal the torn tail on its next write; the raw log gets a sweep over
*every* byte in ``tests/service/test_store.py``.
"""

import json
import logging

import pytest

from repro.service.jobstore import JobStore
from repro.service.records import RECORD_VERSION
from repro.service.store import StoreClient


def make_record(status="fixed", detail=""):
    return {
        "v": RECORD_VERSION,
        "status": status,
        "problem": "p",
        "detail": detail,
        "items": [],
    }


KEYS = ["key-a", "key-b", "key-c"]


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "results.store.jsonl"
    client = StoreClient(path, background=False)
    for key in KEYS:
        client.put(key, make_record(detail=key))
    client.close()
    return path


class TestResultStoreRecovery:
    def test_round_trip(self, log_file):
        client = StoreClient(log_file, background=False)
        assert len(client) == 3
        assert client.peek("key-b")["detail"] == "key-b"

    def test_truncation_at_every_byte_of_the_last_record(
        self, log_file, caplog
    ):
        data = log_file.read_bytes()
        assert data.endswith(b"\n")
        last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
        last_line = data[last_start:].rstrip(b"\n")
        last_key = json.loads(last_line)["key"]
        others = [key for key in KEYS if key != last_key]
        for cut in range(last_start, len(data)):
            log_file.write_bytes(data[:cut])
            client = StoreClient(log_file, flush_every=1, background=False)
            # Every entry before the torn line survives, always; the last
            # one waits for its newline.
            for key in others:
                assert client.peek(key) is not None, f"lost {key} at cut {cut}"
            assert client.peek(last_key) is None
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                client.put("fresh", make_record(detail="fresh"))
                reopened = StoreClient(log_file, background=False)
            # The write sealed the tail instead of merging into it.
            for key in others + ["fresh"]:
                assert reopened.peek(key) is not None, f"lost {key} at cut {cut}"
            # Only a line that lost nothing but its newline comes back.
            intact = cut >= last_start + len(last_line)
            assert (reopened.peek(last_key) is not None) == intact
            if cut > last_start and not intact:
                assert "store_recovered" in caplog.text
            caplog.clear()

    def test_invalid_entry_lines_are_dropped_not_fatal(self, tmp_path, caplog):
        path = tmp_path / "mixed.store.jsonl"
        path.write_text(
            json.dumps({"version": 1})
            + "\n"
            + json.dumps({"key": "good", "record": make_record()})
            + "\n"
            + json.dumps({"key": "bad-shape", "record": {"not": "a record"}})
            + "\n"
            + "{torn garbage\n"
        )
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            client = StoreClient(path, background=False)
        assert len(client) == 1
        assert client.peek("good") is not None
        events = [json.loads(r.getMessage()) for r in caplog.records]
        assert [(e["event"], e["dropped_lines"]) for e in events] == [
            ("store_recovered", 2)
        ]


class TestJobStoreRecovery:
    @pytest.fixture
    def store_file(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        for index, key in enumerate(KEYS):
            store.append(f"sub-{index}", make_record(detail=key), key=key)
        return path

    def test_round_trip(self, store_file):
        completed = JobStore(store_file).load()
        assert sorted(completed) == ["sub-0", "sub-1", "sub-2"]

    def test_truncation_at_every_byte_of_the_last_record(
        self, store_file, caplog
    ):
        data = store_file.read_bytes()
        last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
        last_len = len(data[last_start:].rstrip(b"\n"))
        for cut in range(last_start, len(data)):
            store_file.write_bytes(data[:cut])
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                completed = JobStore(store_file).load()
            assert "sub-0" in completed and "sub-1" in completed
            torn = "sub-2" not in completed
            assert torn != (cut >= last_start + last_len)
            if torn and cut > last_start:
                assert "jobstore_recovered" in caplog.text
            caplog.clear()
            # The next append (a resumed batch's first result) seals the
            # torn tail instead of merging into it.
            store = JobStore(store_file)
            store.append("fresh", make_record(detail="fresh"), key="fresh")
            reloaded = store.load()
            assert "fresh" in reloaded, f"lost the new entry at cut {cut}"
            assert ("sub-2" in reloaded) == (not torn)

    def test_later_lines_supersede_earlier_ones(self, store_file):
        store = JobStore(store_file)
        store.append("sub-0", make_record(status="no_fix"), key="key-a")
        completed = store.load()
        assert completed["sub-0"]["report"]["status"] == "no_fix"
