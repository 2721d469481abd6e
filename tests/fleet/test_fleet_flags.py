"""``serve --fleet`` starts every backend under the operator's flags.

The launcher used to forward only a hand-picked subset of them, so a
backend could grade under a configuration the operator never chose.
This drives the real CLI in a subprocess and asks each backend's
``/stats``, through the router, what it was started with.
"""

import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.engines import DEFAULT_TIMEOUT_S
from repro.fleet import launch
from repro.server import FeedbackClient
from repro.service import GradingConfig

PROBLEM = "iterPower-6.00x"
BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""

COMMAND = [
    "--backend", "interp",
    "serve", "--fleet", "1", "--executor", "process", "--jobs", "1",
    "--breaker-threshold", "2", "--breaker-reset", "9",
    "--engine", "enumerative", "--timeout", "12", "--only", PROBLEM,
    "--no-prime", "--port", "0",
]

#: Starting the router and one backend (no priming) takes seconds; the
#: bound only guards against a hung start.
START_TIMEOUT_S = 300.0


def _pythonpath() -> str:
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH")
    return src if not existing else src + os.pathsep + existing


def _router_port(lines: "queue.Queue[str]", process) -> int:
    seen = []
    while True:
        try:
            line = lines.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            raise AssertionError(f"no routing line; output so far: {seen}")
        if not line:
            raise AssertionError(
                f"fleet exited with {process.poll()}; output: {seen}"
            )
        seen.append(line)
        if line.startswith("routing on http://"):
            address = line.split()[2][len("http://"):]
            return int(address.rsplit(":", 1)[1])


def test_fleet_backends_run_under_the_operators_flags():
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", *COMMAND],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=_pythonpath()),
        start_new_session=True,
    )
    lines: "queue.Queue[str]" = queue.Queue()

    def pump():
        for line in process.stdout:
            lines.put(line.strip())
        lines.put("")

    threading.Thread(target=pump, daemon=True).start()
    try:
        port = _router_port(lines, process)
        client = FeedbackClient(port=port, timeout_s=120.0)
        try:
            (node,) = client.stats()["nodes"].values()
            assert node["backend"] == "interp"
            assert node["jobs"] == 1
            assert node["executor"]["workers"] == 1
            assert node["breakers"]["threshold"] == 2
            assert node["breakers"]["reset_s"] == 9.0
            reply = client.grade(PROBLEM, BUGGY)
            assert ":enumerative:t12:" in reply["key"]
        finally:
            client.close()
    finally:
        os.killpg(process.pid, signal.SIGINT)
        try:
            process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def test_the_router_assumes_the_fleets_budget(monkeypatch):
    # A request without timeout_s must get the budget the backends grade
    # under; the router's built-in 45 s would give up on a 120 s grading
    # and count it against the backend's breaker.
    class StubBackend:
        def __init__(self, host, port, node_id, **options):
            self.address, self.node_id = f"{host}:{port}", node_id

        def wait_healthy(self, timeout_s):
            return {"status": "ok"}

        def kill(self):
            pass

        stop = kill

    monkeypatch.setattr(launch, "BackendProcess", StubBackend)
    fleet = launch.start_fleet(
        1, only=[PROBLEM], config=GradingConfig(timeout_s=120.0)
    )
    try:
        assert fleet.router.default_timeout_s == 120.0
    finally:
        fleet.stop()


@pytest.mark.parametrize(
    "flags, budget", [([], DEFAULT_TIMEOUT_S), (["--timeout", "120"], 120.0)]
)
def test_route_assumes_the_budget_it_is_given(monkeypatch, flags, budget):
    # The same rule for a router started on its own, in front of backends
    # started with serve --timeout: --timeout takes the same default.
    seen = []

    def run(self):
        seen.append(self.default_timeout_s)
        self.close()

    monkeypatch.setattr("repro.fleet.FleetRouter.run", run)
    assert main(["route", "127.0.0.1:9", "--port", "0", *flags]) == 0
    assert seen == [budget]


def test_a_backend_that_dies_in_warmup_says_why():
    # Started without --fleet-logs: the reason must still reach the error.
    with pytest.raises(RuntimeError, match="unknown fault point 'nonsense'"):
        launch.start_fleet(
            1, only=[PROBLEM], no_prime=True, extra_args=["--faults", "nonsense"]
        )
