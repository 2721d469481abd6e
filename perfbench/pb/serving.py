"""Driving a ``repro-feedback serve`` process from outside: start it,
time it to ready, send it closed-loop load, read its CPU and memory
from ``/proc``, and stop it. Standard library only; this runs in the
load-generator process, which never imports the program."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_SERVING = re.compile(r"serving on http://[^:]+:(\d+)")


class Server:
    """One program server process and its forked grading workers."""

    def __init__(self, argv: List[str], env: dict):
        self._drain: Optional[threading.Thread] = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.output: List[str] = []
        try:
            self.port = self._await_port()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        #: ``perf_counter`` times of the process start and of the first
        #: ``/healthz`` answer.
        self.setup_at = (started, time.perf_counter())

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)
            match = _SERVING.search(line)
            if match:
                # Keep reading so the server never blocks on a full pipe.
                self._drain = threading.Thread(
                    target=self.output.extend, args=(self.proc.stdout,)
                )
                self._drain.start()
                return int(match.group(1))
        self.proc.wait()
        raise RuntimeError(
            f"server exited with {self.proc.returncode} during start-up: "
            + "".join(self.output[-5:])
        )

    def _await_health(self, limit_s: float = 60.0) -> None:
        deadline = time.perf_counter() + limit_s
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)

    def pids(self) -> List[int]:
        """The server process and its live children (grading workers)."""
        found = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                found.append(int(entry))
        return found

    def cpu_s(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_kb(pid) for pid in self.pids()) / 1024.0

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGINT (the CLI drains and stops its workers), then the whole
        session by force if it is still there."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        if self._drain is not None:
            self._drain.join()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in kB."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def server_argv(problems, traced: Optional[dict] = None, store=None) -> List[str]:
    """``repro-feedback serve`` with the CLI defaults (process executor,
    2 jobs on this box), an ephemeral port and the workload's problems.
    ``traced`` = ``{"inputs": path, "trace": dir}`` runs it through the
    benchmark's tracing launcher instead."""
    args = ["--port", "0", "--only", *problems]
    if store:
        args += ["--store", store]
    if traced is None:
        return [sys.executable, "-m", "repro.cli", "serve", *args]
    return [
        sys.executable, "-m", "pb.program", "serve",
        "--inputs", traced["inputs"], "--trace", traced["trace"], *args,
    ]


# -- load ---------------------------------------------------------------------


class Reply:
    """One answered (or refused) grade request; ``started`` and
    ``latency_s`` on ``perf_counter``."""

    __slots__ = ("rid", "sid", "started", "latency_s", "status", "body")

    def __init__(self, rid, sid, started, latency_s, status, body):
        self.rid = rid
        self.sid = sid
        self.started = started
        self.latency_s = latency_s
        self.status = status
        self.body = body


def closed_loop(
    port: int,
    next_request: Callable[[], Optional[tuple]],
    answered: Callable[[Reply], None],
    clients: int,
) -> None:
    """Run ``clients`` threads (at most the box's 2 vCPUs), each with
    one keep-alive connection, each sending its next request only after
    its previous reply. ``next_request()`` returns ``(request id, sid,
    body bytes)`` or ``None`` when the stream is over; ``answered``
    receives every reply (called from the client threads)."""
    errors: List[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                request = next_request()
                if request is None:
                    return
                rid, sid, body = request
                started = time.perf_counter()
                conn.request(
                    "POST",
                    "/grade",
                    body=body,
                    headers={
                        "Content-Type": "application/json",
                        "X-Request-Id": rid,
                    },
                )
                response = conn.getresponse()
                payload = response.read()
                latency = time.perf_counter() - started
                answered(Reply(rid, sid, started, latency, response.status, payload))
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def grade_body(problem: str, source: str, budget_s: float) -> bytes:
    return json.dumps(
        {"problem": problem, "source": source, "timeout_s": budget_s}
    ).encode("utf-8")


def histogram_mean_ms(metrics_text: str, name: str, labels: Dict[str, str]) -> float:
    """Mean of one Prometheus histogram series, in ms (0 if unobserved)."""
    selector = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    total = count = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(f"{name}_sum{{") and selector in line:
            total = float(line.rsplit(" ", 1)[1])
        elif line.startswith(f"{name}_count{{") and selector in line:
            count = float(line.rsplit(" ", 1)[1])
    return 1000.0 * total / count if count else 0.0
