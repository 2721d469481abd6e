"""Fleet supervision: fork N backend servers, front them with a router.

This is the machinery behind ``repro-feedback serve --fleet N``: each
backend is a full ``repro-feedback serve`` *process* (own interpreter,
own GIL, own warm registry — real multi-core scaling, unlike threads),
launched with a stable ``--node-id`` and optionally a shared
``--store`` path, health-polled until its warmup self-test passes, then
placed on the router's hash ring.

Every backend grades under the launcher's
:class:`~repro.service.cache.GradingConfig` and settings, so every node
derives the keys the launcher would: the launcher's ``--backend`` and
``--obs`` precede ``serve`` on its command line, and the config's
``--engine``/``--timeout`` follow it.

The same pieces serve the tests and benchmarks: :func:`start_fleet`
returns a :class:`Fleet` handle exposing the router address, the
backend processes (killable mid-run — the chaos smoke does exactly
that), and one ``stop()`` that drains everything in order: router
first (no new routed work), then SIGINT to each backend (the serve
loop's graceful drain path).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import IO, Deque, List, Optional, Sequence

import repro
from repro.compile import BACKEND
from repro.fleet.router import FleetRouter
from repro.obs import OBS
from repro.server.client import FeedbackClient
from repro.service.cache import GradingConfig

#: Output lines kept from a backend started without a log file: enough
#: to show why it died during warmup.
LOG_TAIL_LINES = 40

#: How long one backend may take to warm and pass its health check.
#: A backend warms and primes every problem it serves before it forks
#: its workers; on a loaded CI core that is minutes, not seconds.
DEFAULT_WARMUP_TIMEOUT_S = 600.0


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port, released before return.

    Inherently racy (another process may grab it before our backend
    binds), but the window is milliseconds and backends fail loudly on
    bind — good enough for tests and the fleet launcher.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _src_pythonpath() -> str:
    """A PYTHONPATH that resolves :mod:`repro` in the child, prepended
    to whatever the parent already had."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH")
    return src if not existing else src + os.pathsep + existing


class BackendProcess:
    """One ``repro-feedback serve`` child process."""

    def __init__(
        self,
        host: str,
        port: int,
        node_id: str,
        *,
        jobs: int = 2,
        queue: int = 16,
        executor: Optional[str] = None,
        only: Optional[Sequence[str]] = None,
        store: Optional[str] = None,
        config: GradingConfig,
        no_prime: bool = False,
        extra_args: Sequence[str] = (),
        log_path: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.node_id = node_id
        self.log_path = log_path
        command: List[str] = [
            sys.executable,
            "-m",
            "repro.cli",
            "--backend", BACKEND.default(),
            "--obs", "on" if OBS.default() else "off",
            "serve",
            "--host",
            host,
            "--port",
            str(port),
            "--jobs",
            str(jobs),
            "--queue",
            str(queue),
            "--node-id",
            node_id,
            "--engine", config.engine,
            "--timeout", str(config.timeout_s),
        ]
        if executor:
            command += ["--executor", executor]
        if only:
            command += ["--only", *only]
        if store:
            command += ["--store", store]
        if no_prime:
            command.append("--no-prime")
        command += list(extra_args)
        self.command = command
        env = dict(os.environ, PYTHONPATH=_src_pythonpath())
        self._log: Optional[IO[bytes]] = None
        self._tail: Deque[bytes] = deque(maxlen=LOG_TAIL_LINES)
        self._drain: Optional[threading.Thread] = None
        if log_path:
            self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            command,
            stdout=self._log or subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        if self._log is None:
            # Without a log file, keep the last lines in memory: the
            # backend logs a line per grading, so the pipe must always
            # be read, and a warmup death must still say why.
            self._drain = threading.Thread(
                target=self._read_output,
                name=f"repro-fleet-{node_id}-output",
                daemon=True,
            )
            self._drain.start()

    def _read_output(self) -> None:
        with self.process.stdout:
            self._tail.extend(self.process.stdout)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.process.poll() is None

    def log_tail(self, lines: int = LOG_TAIL_LINES) -> str:
        """The backend's last lines of output."""
        if self._drain is None:
            with open(str(self.log_path), "rb") as handle:
                output = handle.read()
        else:
            if not self.alive():
                self._drain.join(timeout=1.0)  # let the last lines in
            output = b"".join(self._tail)
        text = output.decode("utf-8", "replace")
        return "\n".join(text.splitlines()[-lines:])

    def wait_healthy(
        self, timeout_s: float = DEFAULT_WARMUP_TIMEOUT_S
    ) -> dict:
        """Poll ``/healthz`` until the backend reports ``ok``.

        Raises ``RuntimeError`` (with the backend's last output lines) if
        the process dies first or the deadline passes — a fleet with a
        half-warmed backend must never start serving.
        """
        deadline = time.monotonic() + timeout_s
        client = FeedbackClient(self.host, self.port, timeout_s=5.0)
        last = "not reachable yet"
        try:
            while time.monotonic() < deadline:
                if not self.alive():
                    raise RuntimeError(
                        f"backend {self.node_id} ({self.address}) exited "
                        f"with {self.process.returncode} during warmup\n"
                        + self.log_tail()
                    )
                try:
                    health = client.healthz()
                except (OSError, ValueError):
                    time.sleep(0.2)
                    continue
                if health.get("status") == "ok":
                    return health
                last = f"status={health.get('status')!r}"
                time.sleep(0.2)
        finally:
            client.close()
        raise RuntimeError(
            f"backend {self.node_id} ({self.address}) not healthy after "
            f"{timeout_s:.0f}s ({last})\n" + self.log_tail()
        )

    def stop(self, grace_s: float = 15.0) -> None:
        """Graceful stop: SIGINT (the serve loop's drain path), escalate
        to terminate/kill only if the grace period passes."""
        if self.alive():
            try:
                self.process.send_signal(signal.SIGINT)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                self.process.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self.process.terminate()
                try:
                    self.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        if self._log is not None:
            self._log.close()
            self._log = None

    def kill(self) -> None:
        """Immediate SIGKILL — the chaos path (no drain, no goodbye)."""
        if self.alive():
            self.process.kill()
            self.process.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


class Fleet:
    """A running fleet: one router fronting N backend processes."""

    def __init__(self, router: FleetRouter, backends: List[BackendProcess]):
        self.router = router
        self.backends = backends

    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> int:
        return self.router.port

    @property
    def address(self) -> str:
        return f"{self.router.host}:{self.router.port}"

    def client(self, timeout_s: float = 300.0) -> FeedbackClient:
        return FeedbackClient(self.host, self.port, timeout_s=timeout_s)

    def stop(self) -> None:
        self.router.close()
        for backend in self.backends:
            backend.stop()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_fleet(
    n: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 2,
    queue: int = 16,
    executor: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    store: Optional[str] = None,
    config: Optional[GradingConfig] = None,
    no_prime: bool = False,
    warmup_timeout_s: float = DEFAULT_WARMUP_TIMEOUT_S,
    log_dir: Optional[str] = None,
    breaker_threshold: int = 3,
    breaker_reset_s: float = 5.0,
    extra_args: Sequence[str] = (),
    progress=None,
) -> Fleet:
    """Launch N backends, wait until all are healthy, front with a router.

    Every backend grades under ``config`` (the process defaults when
    ``None``), and the router assumes its budget for a request that
    names none; ``extra_args`` are further ``serve`` flags for each.
    Backends are started concurrently (their warmups overlap), then
    health-polled sequentially. Any failure tears down everything
    already started — no half-fleets.
    """
    if n < 1:
        raise ValueError("a fleet needs at least one backend")
    if config is None:
        config = GradingConfig()
    backends: List[BackendProcess] = []
    try:
        for index in range(n):
            node_port = free_port(host)
            node_id = f"node-{index}"
            log_path = (
                str(Path(log_dir) / f"{node_id}.log") if log_dir else None
            )
            backends.append(
                BackendProcess(
                    host,
                    node_port,
                    node_id,
                    jobs=jobs,
                    queue=queue,
                    executor=executor,
                    only=only,
                    store=store,
                    config=config,
                    no_prime=no_prime,
                    extra_args=extra_args,
                    log_path=log_path,
                )
            )
        for backend in backends:
            if progress:
                progress(f"waiting for {backend.node_id} ({backend.address})")
            backend.wait_healthy(timeout_s=warmup_timeout_s)
        router = FleetRouter(
            [backend.address for backend in backends],
            host=host,
            port=port,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            default_timeout_s=config.timeout_s,
            problems=only,
        )
        router.serve_in_thread()
    except BaseException:
        for backend in backends:
            backend.kill()
        raise
    return Fleet(router, backends)
