"""The result store: one append-log on disk, one client per process.

This is the only on-disk result format. Every persistent cache — ``batch
--cache``, ``coverage --cache``, ``serve --store`` and a fleet's shared
log — is a :class:`StoreClient` over one log file:

- :class:`ResultStore` owns one **append-only JSONL log**: a version-1
  header line, then one ``{"key", "record"}`` line per put. Appends are
  O(new entries) under an inter-process ``flock``, torn tails (a writer
  crash mid-line) are sealed on the next append and skipped on read —
  WAL-style recovery: damage costs at most the torn entry, never the
  log. Background :meth:`ResultStore.compact` rewrites the log without
  superseded duplicate keys and bumps the header ``generation``, which
  is how readers detect rotation. Opening a file whose first line is
  not a version-1 header (a batch's ``results.jsonl``, a pre-JSONL cache
  blob) raises ``ValueError`` instead of appending to it.
- :class:`StoreClient` is the per-process view, a
  :class:`~repro.service.cache.ResultCache`: reads are served from
  memory, misses **read through** (tail-read the log from the last
  consumed offset — other processes' verdicts appear without a
  restart), puts are **written behind** (buffered, appended in batches
  by count, by age, and on ``flush()``/``close()``). A failed append is
  absorbed: grading never fails because the disk did.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs import OBS, global_registry
from repro.obs.events import emit
from repro.resilience import faults
from repro.service.cache import ResultCache
from repro.service.records import is_record

_FORMAT_VERSION = 1

#: Buffered puts that trigger a write-behind flush.
DEFAULT_FLUSH_EVERY = 16

#: Maximum age of a buffered put before the background thread flushes.
DEFAULT_FLUSH_INTERVAL_S = 2.0

#: Superseded-line fraction above which a flush triggers compaction.
DEFAULT_COMPACT_RATIO = 0.5

#: Logs smaller than this never auto-compact (churn without payoff).
DEFAULT_COMPACT_MIN_BYTES = 256 * 1024


def _store_header(generation: int) -> str:
    return json.dumps(
        {"version": _FORMAT_VERSION, "kind": "store", "generation": generation}
    )


def _header_generation(line: bytes) -> Optional[int]:
    """The generation a complete version-1 header line declares.

    ``None`` for anything else, a torn line included: a pre-JSONL cache
    blob is one ``{"version": 1, "entries": ...}`` object with no
    trailing newline, and must not pass for a log.
    """
    if not line.endswith(b"\n"):
        return None
    try:
        header = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(header, dict) or header.get("version") != _FORMAT_VERSION:
        return None
    generation = header.get("generation", 0)
    return generation if isinstance(generation, int) else 0


@contextmanager
def _locked(target: Path, timeout_s: float = 10.0) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``target``'s sidecar ``.lock`` file.

    The kernel releases the lock when its holder dies, so a crashed writer
    can never deadlock later ones. The lock file is deliberately *never
    unlinked*: removing a flocked path while a waiter holds a descriptor
    to the old inode would let two holders in.
    """
    lock_path = target.with_name(target.name + ".lock")
    fd = os.open(str(lock_path), os.O_CREAT | os.O_RDWR)
    try:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not acquire store lock {lock_path}"
                    ) from None
                time.sleep(0.01)
        yield
    finally:
        os.close(fd)  # releases the flock


class ResultStore:
    """One shared append-log of grading results on disk.

    Every mutating method takes the sidecar file lock, so any number of
    backend processes may append and compact concurrently; readers never
    lock (they tolerate a torn tail instead — see :meth:`read_from`).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        # Judge an existing file once, before anything appends to or
        # compacts it: a file that is not a store log is refused, never
        # rewritten. A torn prefix of a fresh header (its creator died
        # mid-write) is still a log, one with no entries yet.
        first = self._first_line()
        fresh = (_store_header(0) + "\n").encode()
        if _header_generation(first) is None and not fresh.startswith(first):
            raise ValueError(
                f"{self.path} is not a result-store log (its first line "
                "is not a version-1 store header); refusing to write to it"
            )

    # -- header -------------------------------------------------------------

    def _first_line(self) -> bytes:
        try:
            with open(self.path, "rb") as handle:
                return handle.readline()
        except OSError:
            return b""

    def _ensure_file(self) -> None:
        """Start the log with a header (caller holds the lock).

        A file holding only a torn header starts over: no entry can
        follow a header line that never finished.
        """
        if self._first_line().endswith(b"\n"):
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as handle:
            handle.write(_store_header(0) + "\n")

    # -- writing ------------------------------------------------------------

    def append(self, key: str, record: dict) -> None:
        self.append_many([(key, record)])

    def append_many(self, entries: List[Tuple[str, dict]]) -> int:
        """Append entries under the file lock; returns lines written.

        Before writing, a missing trailing newline — the signature of a
        writer that died mid-append — is sealed with one ``\\n``, so the
        torn line stays *one* unparseable line instead of swallowing the
        first new entry too.
        """
        if not entries:
            return 0
        if faults.enabled():
            faults.inject("cache.write", OSError("injected cache.write fault"))
        with _locked(self.path):
            self._ensure_file()
            with open(self.path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                payload = "".join(
                    json.dumps({"key": key, "record": record}) + "\n"
                    for key, record in entries
                )
                handle.write(payload.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
        return len(entries)

    # -- reading ------------------------------------------------------------

    def read_from(self, offset: int = 0) -> Tuple[Dict[str, dict], int, int]:
        """(entries, next-offset, generation) from ``offset`` onward.

        Lock-free tail read: only byte-complete lines (newline-
        terminated) are consumed — a torn tail is left for the next call,
        after the appender seals it. Malformed complete lines are
        skipped (crash damage), counted into one recovery event.
        ``offset`` 0 means "from the top" and skips the header line.
        """
        if faults.enabled():
            faults.inject("cache.read", OSError("injected cache.read fault"))
        try:
            with open(self.path, "rb") as handle:
                generation = _header_generation(handle.readline())
                if generation is None:
                    return {}, 0, 0
                consumed = max(offset, handle.tell())
                handle.seek(consumed)
                entries: Dict[str, dict] = {}
                dropped = 0
                while True:
                    line = handle.readline()
                    if not line or not line.endswith(b"\n"):
                        break  # EOF or torn tail: stop before it
                    consumed += len(line)
                    if not line.strip():
                        continue
                    try:
                        entry = json.loads(line)
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        dropped += 1
                        continue
                    if (
                        isinstance(entry, dict)
                        and isinstance(entry.get("key"), str)
                        and is_record(entry.get("record"))
                    ):
                        entries[entry["key"]] = entry["record"]
                    else:
                        dropped += 1
        except OSError:
            return {}, offset, 0
        if dropped:
            emit(
                "store_recovered",
                level=logging.WARNING,
                path=str(self.path),
                entries=len(entries),
                dropped_lines=dropped,
            )
        return entries, consumed, generation

    def entries(self) -> Dict[str, dict]:
        """Every live entry (later lines supersede earlier ones)."""
        return self.read_from(0)[0]

    # -- maintenance --------------------------------------------------------

    def stats(self) -> dict:
        """Log health: live entries vs total lines, size, generation."""
        entries, consumed, generation = self.read_from(0)
        lines = 0
        try:
            size = self.path.stat().st_size
            with open(self.path, "rb") as handle:
                handle.readline()  # header
                for line in handle:
                    if line.endswith(b"\n") and line.strip():
                        lines += 1
        except OSError:
            size = 0
        dead = max(0, lines - len(entries))
        return {
            "path": str(self.path),
            "entries": len(entries),
            "log_lines": lines,
            "dead_lines": dead,
            "dead_ratio": round(dead / lines, 4) if lines else 0.0,
            "size_bytes": size,
            "generation": generation,
        }

    def compact(self) -> dict:
        """Rewrite the log without superseded lines; bump the generation.

        Atomic (tmp + replace) under the file lock, so appenders queue
        behind it and readers see either the old inode or the complete
        new one. Returns the post-compaction :meth:`stats`.
        """
        with _locked(self.path):
            entries, _, generation = self.read_from(0)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent),
                prefix=self.path.name,
                suffix=".tmp",
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(_store_header(generation + 1) + "\n")
                    for key, record in entries.items():
                        handle.write(
                            json.dumps({"key": key, "record": record}) + "\n"
                        )
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        emit(
            "store_compacted",
            path=str(self.path),
            entries=len(entries),
            generation=generation + 1,
        )
        return self.stats()


class StoreClient(ResultCache):
    """A process's read-through / write-behind view of one store log.

    A :class:`~repro.service.cache.ResultCache`: the batch runner and
    the service keep calling ``get``/``put``/``flush`` and never learn
    the cache is a log shared across processes. Differences are all
    behavioral:

    - **miss → read-through**: a ``get`` miss tail-reads the log before
      answering, so a verdict another backend computed moments ago is a
      hit here (the whole point of the shared tier);
    - **put → write-behind**: puts land in memory immediately and in a
      buffer that flushes by count (``flush_every``), by age (the
      background thread), on ``flush()``, and on ``close()``;
    - **rotation detection**: a generation bump or inode change (another
      client compacted) triggers a full reload instead of a tail read.
    """

    def __init__(
        self,
        path: Union[str, Path],
        flush_every: int = DEFAULT_FLUSH_EVERY,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
        compact_ratio: float = DEFAULT_COMPACT_RATIO,
        compact_min_bytes: int = DEFAULT_COMPACT_MIN_BYTES,
        background: bool = True,
    ):
        super().__init__()
        self.store = ResultStore(path)
        self.flush_every = flush_every
        self.flush_interval_s = flush_interval_s
        self.compact_ratio = compact_ratio
        self.compact_min_bytes = compact_min_bytes
        self._pending: Dict[str, dict] = {}
        self._offset = 0
        self._generation = 0
        self._inode: Optional[int] = None
        self._flushed_at = time.monotonic()
        self.flushes = 0
        self.refreshes = 0
        self.compactions = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.refresh()
        if background:
            self._thread = threading.Thread(
                target=self._background_loop,
                name="repro-store-client",
                daemon=True,
            )
            self._thread.start()

    # -- read path ----------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        record = super().get(key)
        if record is not None:
            return record
        # Read-through: another backend may have appended this verdict
        # since our last look at the log.
        if self.refresh():
            record = self.peek(key)
            if record is not None:
                with self._lock:
                    self.hits += 1
                    self.misses -= 1
                return record
        return None

    def refresh(self) -> int:
        """Absorb log lines appended since the last read.

        Detects rotation (compaction replaced the inode or bumped the
        generation, or the file shrank) and falls back to a full reload.
        Returns how many entries were absorbed. Never raises: the log
        being briefly unreadable degrades freshness, not serving.
        """
        try:
            stat = self.store.path.stat()
        except OSError:
            return 0
        rotated = (
            (self._inode is not None and stat.st_ino != self._inode)
            or stat.st_size < self._offset
        )
        offset = 0 if rotated else self._offset
        try:
            entries, consumed, generation = self.store.read_from(offset)
        except OSError:
            return 0
        if not rotated and offset and generation != self._generation:
            # Same inode but a new generation header: re-read from the top.
            entries, consumed, generation = self.store.read_from(0)
        self._offset = consumed
        self._generation = generation
        self._inode = stat.st_ino
        if entries:
            with self._lock:
                # Our own unflushed puts are newest; everything else from
                # the log wins over stale memory.
                pending = self._pending
                for key, record in entries.items():
                    if key not in pending:
                        self._entries[key] = record
            self.refreshes += 1
        return len(entries)

    # -- write path ---------------------------------------------------------

    def put(self, key: str, record: dict) -> None:
        with self._lock:
            self._entries[key] = record
            self._pending[key] = record
            backlog = len(self._pending)
        if backlog >= self.flush_every:
            self.flush()

    def flush(self) -> int:
        """Append every buffered put to the log; returns lines written.

        The one place a write can fail, and it never raises: a full disk,
        a lock timeout or the ``cache.write`` fault keeps the buffer for
        the next flush and is reported as ``cache_persist_failed`` — so
        whichever trigger ran it (a put crossing the count, the
        background thread, ``close()``), persistence degrades and the
        grading that triggered it does not.
        """
        with self._lock:
            if not self._pending:
                self._flushed_at = time.monotonic()
                return 0
            batch = list(self._pending.items())
        try:
            self.store.append_many(batch)
        except OSError as exc:
            self._persist_failed(exc)
            return 0
        finally:
            self._flushed_at = time.monotonic()
        with self._lock:
            for key, record in batch:
                if self._pending.get(key) is record:
                    del self._pending[key]
        self.flushes += 1
        self._maybe_compact()
        return len(batch)

    def _persist_failed(self, exc: OSError) -> None:
        emit(
            "cache_persist_failed",
            level=logging.ERROR,
            path=str(self.store.path),
            error=f"{type(exc).__name__}: {exc}",
        )
        if OBS.default():
            global_registry().counter(
                "repro_cache_persist_failures_total",
                help="Result-store writes that failed with an IO error "
                "(entries stay resident and buffered)",
            ).inc()

    def _maybe_compact(self) -> None:
        try:
            if self.store.path.stat().st_size < self.compact_min_bytes:
                return
            stats = self.store.stats()
            if stats["dead_ratio"] >= self.compact_ratio and stats["dead_lines"]:
                self.store.compact()
                self.compactions += 1
                self.refresh()
        except OSError as exc:
            self._persist_failed(exc)

    # -- background ---------------------------------------------------------

    def _background_loop(self) -> None:
        interval = max(0.05, self.flush_interval_s / 2.0)
        while not self._stop.wait(interval):
            try:
                age = time.monotonic() - self._flushed_at
                with self._lock:
                    backlog = len(self._pending)
                if backlog and age >= self.flush_interval_s:
                    self.flush()
                else:
                    self.refresh()
            except Exception:  # pragma: no cover - keep the thread alive
                emit(
                    "store_background_error",
                    level=logging.WARNING,
                    path=str(self.store.path),
                )

    def close(self) -> None:
        """Flush and stop the background thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.flush()

    @property
    def stats(self) -> dict:
        with self._lock:
            base = super().stats
            pending = len(self._pending)
        base.update(
            kind="store",
            path=str(self.store.path),
            pending_writes=pending,
            flushes=self.flushes,
            refreshes=self.refreshes,
            compactions=self.compactions,
            generation=self._generation,
        )
        return base
