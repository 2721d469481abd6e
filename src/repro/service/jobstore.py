"""JSONL job store: durable per-submission results with batch resume.

Each line is one graded submission::

    {"id": "hw3/alice.py", "key": "<cache key>", "report": {...record...}}

Append-only JSONL means an interrupted batch (Ctrl-C, OOM-killed worker,
machine reboot) loses at most the in-flight submissions: every append is
flushed *and* fsynced before returning, so a completed line survives both
the process dying and the machine dying. Rerunning with ``resume`` loads
the completed ids and grades only the remainder. Corrupt trailing lines —
the signature of a crash mid-write — are ignored on load. Each entry
keeps the cache key it was graded under, so a resuming
:class:`~repro.service.runner.BatchRunner` serves it only when the
submission would get that key now: an edited file, or a store written
under an edited error model, is re-graded, not served as a stale report.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.events import emit
from repro.service.records import is_record


class JobStore:
    """Append-only JSONL persistence for one batch job."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Dict[str, dict]:
        """Completed entries keyed by submission id.

        Later lines win (a re-graded submission supersedes its earlier
        record); malformed lines are skipped.
        """
        completed: Dict[str, dict] = {}
        if not self.path.exists():
            return completed
        corrupt = 0
        with self.path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    corrupt += 1
                    continue
                if not (
                    isinstance(entry, dict)
                    and isinstance(entry.get("id"), str)
                    and is_record(entry.get("report"))
                ):
                    corrupt += 1
                    continue
                completed[entry["id"]] = entry
        if corrupt:
            # Almost always one torn trailing line from a crash mid-
            # append; the event makes silent data loss visible without
            # failing the resume.
            emit(
                "jobstore_recovered",
                level=logging.WARNING,
                path=str(self.path),
                entries=len(completed),
                dropped_lines=corrupt,
            )
        return completed

    def append(
        self, submission_id: str, record: dict, key: Optional[str] = None
    ) -> None:
        """Persist one result, flushed and fsynced so a crash cannot lose it."""
        entry = {"id": submission_id, "key": key, "report": record}
        line = json.dumps(entry).encode("utf-8") + b"\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as handle:
            # Seal a torn tail first, as ResultStore.append_many does: a
            # line a crash left unfinished must not swallow this one.
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
