"""HTTP facade tests: endpoints, error mapping, backpressure headers."""

import http.client
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.problems import get_problem
from repro.server import (
    FeedbackClient,
    FeedbackHTTPServer,
    FeedbackService,
    ServerError,
    warm_registry,
)
from repro.service import GradingConfig
from repro.service import workers as workers_mod

PROBLEM = get_problem("iterPower-6.00x")

BUGGY = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""


@pytest.fixture(scope="module")
def warmup():
    return warm_registry(names=["iterPower-6.00x"])


@pytest.fixture
def served(warmup):
    service = FeedbackService(
        warmup=warmup, jobs=2, queue_limit=4, config=GradingConfig(timeout_s=20.0)
    )
    server = FeedbackHTTPServer(service, port=0)
    server.serve_in_thread()
    client = FeedbackClient(port=server.port)
    yield server, client
    client.close()
    server.shutdown_gracefully()


def raw_request(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, served):
        _, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["problems"] == 1

    def test_problems_table(self, served):
        _, client = served
        rows = client.problems()
        assert [row["name"] for row in rows] == ["iterPower-6.00x"]
        assert rows[0]["primed"] is True
        assert rows[0]["inputs"] > 0
        assert rows[0]["backend"] == "compiled"

    def test_grade_roundtrip_and_cache(self, served):
        _, client = served
        first = client.grade("iterPower-6.00x", BUGGY)
        assert first["record"]["status"] == "fixed"
        assert first["cached"] is False
        again = client.grade("iterPower-6.00x", BUGGY)
        assert again["cached"] is True
        assert again["record"] == first["record"]
        assert again["key"] == first["key"]

    def test_stats_endpoint(self, served):
        _, client = served
        client.grade("iterPower-6.00x", BUGGY)
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["jobs"] == 2
        assert "cache" in stats and "entries" in stats["cache"]


class TestErrorMapping:
    def test_unknown_path_404(self, served):
        server, _ = served
        status, _, body = raw_request(server.port, "GET", "/nope")
        assert status == 404
        assert b"unknown path" in body

    def test_unknown_problem_404_lists_known(self, served):
        _, client = served
        with pytest.raises(ServerError) as err:
            client.grade("not-a-problem", BUGGY)
        assert err.value.status == 404
        assert err.value.payload["known"] == ["iterPower-6.00x"]

    def test_malformed_json_400(self, served):
        server, _ = served
        status, _, body = raw_request(
            server.port, "POST", "/grade", body=b"{ not json"
        )
        assert status == 400
        assert b"not JSON" in body

    def test_missing_fields_400(self, served):
        server, _ = served
        status, _, _ = raw_request(
            server.port, "POST", "/grade", body=json.dumps({"problem": "x"}).encode()
        )
        assert status == 400

    def test_unknown_fields_400(self, served):
        server, _ = served
        body = json.dumps(
            {"problem": "iterPower-6.00x", "source": BUGGY, "mystery": 1}
        ).encode()
        status, _, payload = raw_request(server.port, "POST", "/grade", body=body)
        assert status == 400
        assert b"mystery" in payload

    def test_bad_engine_400(self, served):
        _, client = served
        with pytest.raises(ServerError) as err:
            client.grade("iterPower-6.00x", BUGGY, engine="magic")
        assert err.value.status == 400


class TestBackpressure:
    def test_queue_full_429_with_retry_after_header(self, warmup, monkeypatch):
        release = threading.Event()
        entered = threading.Semaphore(0)

        def slow(source, spec, model, **kwargs):
            entered.release()
            assert release.wait(timeout=30)
            from repro.core.api import FeedbackReport

            return FeedbackReport(status="no_fix", problem=spec.name)

        monkeypatch.setattr(workers_mod, "generate_feedback", slow)
        # The fake grader lives in this process: pin the in-thread
        # executor (a worker process would never see the monkeypatch).
        service = FeedbackService(
            warmup=warmup, jobs=1, queue_limit=0, executor="thread"
        )
        server = FeedbackHTTPServer(service, port=0)
        server.serve_in_thread()
        try:
            blocked = FeedbackClient(port=server.port)
            waiter = threading.Thread(
                target=blocked.grade, args=("iterPower-6.00x", BUGGY)
            )
            waiter.start()
            assert entered.acquire(timeout=10)
            status, headers, body = raw_request(
                server.port,
                "POST",
                "/grade",
                body=json.dumps(
                    {"problem": "iterPower-6.00x", "source": "def f():\n    return 1\n"}
                ).encode(),
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert json.loads(body)["retry_after_s"] >= 1
            release.set()
            waiter.join(timeout=30)
            blocked.close()
        finally:
            release.set()
            server.shutdown_gracefully()


class TestGracefulShutdown:
    def test_shutdown_drains_and_then_refuses(self, warmup):
        service = FeedbackService(
            warmup=warmup, jobs=2, queue_limit=4, config=GradingConfig(timeout_s=20.0)
        )
        server = FeedbackHTTPServer(service, port=0)
        server.serve_in_thread()
        client = FeedbackClient(port=server.port)
        assert client.grade("iterPower-6.00x", BUGGY)["record"]["status"]
        client.close()
        server.shutdown_gracefully(drain=True)
        from repro.server import ServiceClosed

        with pytest.raises(ServiceClosed):
            service.grade("iterPower-6.00x", BUGGY)


class TestCliServe:
    def test_serve_command_boots_warms_and_drains(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.server import http as http_mod

        # Run the real warmup + server construction, then "Ctrl-C"
        # immediately instead of serving forever. The real serve_forever
        # sets BaseServer's is-shut-down event in its finally block (what
        # lets the subsequent shutdown() return); the fake must too.
        def interrupted(self):
            self._BaseServer__is_shut_down.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(
            http_mod.FeedbackHTTPServer, "serve_forever", interrupted
        )
        code = main(
            ["serve", "--port", "0", "--only", "iterPower-6.00x", "--jobs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "warm iterPower-6.00x" in out
        assert "serving on http://127.0.0.1:" in out
        assert "bye" in out

    def test_serve_rejects_bad_flags(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--jobs", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--queue", "-1"])


class TestKeepAliveHygiene:
    def test_unread_body_errors_close_the_connection(self, served):
        # A 400 sent while the request body is still unread must carry
        # Connection: close — replying mid-stream on a keep-alive
        # connection would desync every subsequent request on it.
        server, _ = served
        huge = b"x" * ((1 << 20) + 1)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/grade", body=huge)
            response = conn.getresponse()
            assert response.status == 400
            assert response.headers.get("Connection") == "close"
            response.read()
        finally:
            conn.close()

    def test_client_recovers_after_oversized_request(self, served):
        _, client = served
        with pytest.raises(ServerError) as err:
            client.grade("iterPower-6.00x", "x" * ((1 << 20) + 1))
        assert err.value.status == 400
        # The same client object reconnects and serves normally.
        assert client.grade("iterPower-6.00x", BUGGY)["record"]["status"]


class TestLazyTransport:
    def test_grading_imports_no_http_transport(self):
        # A batch process grades through FeedbackService; the HTTP
        # transport loads only when a transport name is used.
        script = (
            "import sys\n"
            "import repro.service.runner, repro.server.service\n"
            "print(sorted({'http.server', 'http.client', 'ssl'} & set(sys.modules)))\n"
            "from repro.server import FeedbackClient, FeedbackHTTPServer\n"
            "print(FeedbackHTTPServer.__module__, FeedbackClient.__module__)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        ).stdout.splitlines()
        assert out == ["[]", "repro.server.http repro.server.client"]
