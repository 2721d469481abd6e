"""HTTP facade tests: endpoints, error mapping, backpressure headers,
and the request framing against the stdlib's as a reference."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler
from types import SimpleNamespace

import pytest

from repro.problems import get_problem
from repro.server import (
    FeedbackClient,
    FeedbackHTTPServer,
    FeedbackService,
    ServerError,
    UnknownProblem,
    warm_registry,
)
from repro.server.http import JSON_CONTENT_TYPE, FeedbackRequestHandler
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

    def test_serve_gives_the_event_logger_back(self, capsys, monkeypatch):
        # While serving, events go to stderr only; afterwards repro.obs
        # must not stay bound to this test's (soon closed) stderr, nor
        # stop propagating to the caplog tests that run after it.
        from repro.cli import main
        from repro.obs.events import logger
        from repro.server import http as http_mod

        during = []

        def interrupted(self):
            during.append((len(logger.handlers), logger.propagate))
            self._BaseServer__is_shut_down.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(
            http_mod.FeedbackHTTPServer, "serve_forever", interrupted
        )
        before = (list(logger.handlers), logger.level, logger.propagate)
        code = main(
            ["serve", "--port", "0", "--only", "iterPower-6.00x",
             "--jobs", "1", "--no-prime"]
        )
        assert code == 0
        assert during == [(len(before[0]) + 1, False)]
        assert (list(logger.handlers), logger.level, logger.propagate) == (
            before
        )

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


# -- request framing ------------------------------------------------------


class ScriptedService:
    """A stand-in for :class:`FeedbackService` whose answers carry no
    clock and no random id: the framing is under test, not grading."""

    warmup = SimpleNamespace(problems={"iterPower-6.00x": None})

    def healthz(self):
        return {"status": "ok"}

    def problems_info(self):
        return [{"name": "iterPower-6.00x"}]

    def stats(self):
        return {"requests": 0}

    def metrics_text(self):
        return "# TYPE repro_requests_total counter\n"

    def grade(self, problem, source, request_id=None, **options):
        if problem not in self.warmup.problems:
            raise UnknownProblem(problem)
        return SimpleNamespace(
            record={"status": "fixed", "source_bytes": len(source)},
            key=f"{problem}:{len(source)}",
            cached=False,
            deduped=False,
            wall_time=0.0,
            request_id=request_id or "generated",
        )

    def close(self, drain=True):
        pass


class StdlibFramingHandler(FeedbackRequestHandler):
    """The framing :class:`JSONRequestHandler` replaced, kept as the
    reference: the stdlib's ``parse_request`` (and its header parser),
    and a response written through ``send_response``/``send_header``,
    header block and body apart. Errors are the handler's JSON ones."""

    parse_request = BaseHTTPRequestHandler.parse_request

    def send_bytes(
        self, status, body, content_type=JSON_CONTENT_TYPE, headers=(), close=False
    ):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


def _scripted_server(handler=None):
    server = FeedbackHTTPServer(ScriptedService(), port=0)
    if handler is not None:
        server.RequestHandlerClass = handler
    server.serve_in_thread()
    return server


@pytest.fixture(scope="module")
def framing_ports():
    """``{"lean": port, "stdlib": port}``: the same scripted service
    behind :class:`FeedbackRequestHandler` and behind the reference
    framing."""
    servers = {
        "lean": _scripted_server(),
        "stdlib": _scripted_server(StdlibFramingHandler),
    }
    yield {name: server.port for name, server in servers.items()}
    for server in servers.values():
        server.shutdown_gracefully()


def read_response(reader):
    """One response off a socket's reader: ``(status, [(name, value),
    ...], body)``, or ``None`` if the server closed first."""
    try:
        status_line = reader.readline()
    except ConnectionError:
        return None
    if not status_line:
        return None
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = []
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers.append((name, value.strip()))
    length = int(dict(headers).get("Content-Length", 0))
    return status, headers, reader.read(length)


PROBE = b"GET /healthz HTTP/1.1\r\n\r\n"


def exchange(port, payload, replies=1, timeout=10.0):
    """Send ``payload`` raw, read ``replies`` responses, then tell
    whether the server closed the connection: a keep-alive socket still
    answers a probe request, a closed one reads EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        got = [read_response(reader) for _ in range(replies)]
        try:
            sock.sendall(PROBE)
            closed = read_response(reader) is None
        except ConnectionError:
            closed = True
    return got, closed


def grade_request(path="/grade", version="HTTP/1.1", fields=(), body=None):
    body = body if body is not None else json.dumps(
        {"problem": "iterPower-6.00x", "source": BUGGY}
    ).encode()
    head = [f"POST {path} {version}", f"Content-Length: {len(body)}", *fields]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def get_request(path="/healthz", version="HTTP/1.1", fields=()):
    head = [f"GET {path} {version}", *fields]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")


def long_request_line(size):
    """A GET whose request line is exactly ``size`` bytes, CRLF included."""
    path = "/" + "a" * (size - len("GET / HTTP/1.1\r\n"))
    return get_request(path=path)


def pad_field(size):
    """One header line of exactly ``size`` bytes, its CRLF included."""
    return "X-Pad: " + "a" * (size - len("X-Pad: ") - 2)


_BODY = json.dumps({"problem": "iterPower-6.00x", "source": BUGGY}).encode()

#: ``(id, raw request bytes, responses it gets)``.
FRAMING_TABLE = [
    ("grade", grade_request(), 1),
    (
        "mixed_case_names",
        f"POST /grade HTTP/1.1\r\ncOnTeNt-lEnGtH: {len(_BODY)}\r\n"
        "x-rEqUeSt-iD: mixed\r\ncontent-TYPE: application/json\r\n\r\n"
        .encode() + _BODY,
        1,
    ),
    (
        "repeated_request_id",
        grade_request(fields=("X-Request-Id: first", "X-Request-Id: second")),
        1,
    ),
    ("connection_close", get_request(fields=("Connection: close",)), 1),
    ("http10", get_request(version="HTTP/1.0"), 1),
    (
        "http10_keep_alive",
        get_request(version="HTTP/1.0", fields=("Connection: keep-alive",)),
        1,
    ),
    (
        "expect_100_continue",
        grade_request(fields=("Expect: 100-continue",)),
        2,
    ),
    (
        "expect_on_http10",
        grade_request(version="HTTP/1.0", fields=("Expect: 100-continue",)),
        1,
    ),
    ("header_line_65536", get_request(fields=(pad_field(65536),)), 1),
    ("header_line_65537", get_request(fields=(pad_field(65537),)), 1),
    ("request_line_65536", long_request_line(65536), 1),
    ("request_line_65537", long_request_line(65537), 1),
    ("headers_99", get_request(fields=[f"X-H{i}: v" for i in range(99)]), 1),
    ("headers_100", get_request(fields=[f"X-H{i}: v" for i in range(100)]), 1),
    ("headers_101", get_request(fields=[f"X-H{i}: v" for i in range(101)]), 1),
    ("double_slash_path", grade_request(path="//grade"), 1),
    ("unknown_path", grade_request(path="/nope"), 1),
    ("unknown_problem", grade_request(body=b'{"problem": "x", "source": "y"}'), 1),
    ("malformed_body", grade_request(body=b"{ not json"), 1),
    (
        "equal_content_lengths",
        grade_request(fields=(f"Content-Length: {len(_BODY)}",)),
        1,
    ),
    (
        "three_keep_alive_requests",
        get_request()
        + grade_request(fields=("X-Request-Id: two",))
        + get_request("/problems"),
        3,
    ),
]


class TestFramingDifferential:
    """Both framings answer every row alike: status, header names and
    values in order (``Date`` aside), body bytes, and whether the
    connection stays open."""

    @pytest.mark.parametrize(
        "payload, replies",
        [row[1:] for row in FRAMING_TABLE],
        ids=[row[0] for row in FRAMING_TABLE],
    )
    def test_same_answers_as_the_stdlib_framing(self, framing_ports, payload, replies):
        answers = {}
        for name, port in framing_ports.items():
            got, closed = exchange(port, payload, replies)
            assert None not in got, (name, got)
            answers[name] = (
                [
                    (status, [h for h in headers if h[0] != "Date"], body)
                    for status, headers, body in got
                ],
                closed,
            )
        assert answers["lean"] == answers["stdlib"]

    def test_the_table_covers_each_outcome(self, framing_ports):
        # Guards the table itself: it must reach every status it claims.
        statuses = set()
        for _, payload, replies in FRAMING_TABLE:
            got, _ = exchange(framing_ports["lean"], payload, replies)
            statuses.update(status for status, _, _ in got)
        assert statuses == {100, 200, 400, 404, 414, 431}

    def test_each_response_is_one_write(self, framing_ports, monkeypatch):
        writes = []
        real = socket.socket.sendall

        def counted(sock, data, *args):
            writes.append(bytes(data))
            return real(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        with socket.create_connection(("127.0.0.1", framing_ports["lean"])) as sock:
            real(sock, grade_request())
            status, _, body = read_response(sock.makefile("rb"))
        served = [data for data in writes if data.startswith(b"HTTP/1.1 ")]
        assert status == 200
        assert len(served) == 1 and served[0].endswith(body)


class TestStricterFraming:
    """Where the framing is stricter than the stdlib: each case is a
    400 that closes the connection, where the stdlib waits or quietly
    reads something else."""

    def _refused(self, port, payload):
        [(status, headers, body)], closed = exchange(port, payload)
        assert status == 400, (status, body)
        assert ("Connection", "close") in headers
        assert closed
        return json.loads(body)["error"]

    def test_a_two_word_request_line(self, framing_ports):
        # The stdlib reads "GET /healthz" as HTTP/0.9 and waits for its
        # header block; the connection would hang until the client
        # gave up.
        error = self._refused(framing_ports["lean"], b"GET /healthz\r\n")
        assert "Bad request syntax" in error
        with socket.create_connection(
            ("127.0.0.1", framing_ports["stdlib"]), timeout=0.3
        ) as sock:
            sock.sendall(b"GET /healthz\r\n")
            with pytest.raises(socket.timeout):
                sock.recv(1)

    def test_a_header_line_with_no_colon(self, framing_ports):
        payload = get_request(fields=("X-A: 1", "no colon here", "Connection: close"))
        error = self._refused(framing_ports["lean"], payload)
        assert "Bad header line" in error
        # The stdlib ends the header block at that line: the
        # Connection: close after it is dropped and the socket stays up.
        [(status, _, _)], closed = exchange(framing_ports["stdlib"], payload)
        assert (status, closed) == (200, False)

    def test_an_obs_fold_continuation_line(self, framing_ports):
        payload = grade_request(fields=("X-Request-Id: folded", " continued"))
        error = self._refused(framing_ports["lean"], payload)
        assert "Bad header line" in error
        # The stdlib folds the line into the id, CRLF and all.
        [(status, _, body)], _ = exchange(framing_ports["stdlib"], payload)
        assert status == 200
        assert json.loads(body)["request_id"] == "folded\r\n continued"

    def test_a_bare_cr_in_a_value(self, framing_ports):
        # The request id is echoed back: a CR inside it would split the
        # response's own header block.
        payload = grade_request(fields=("X-Request-Id: a\rX-Injected: 1",))
        assert "Bad header line" in self._refused(framing_ports["lean"], payload)
        payload = grade_request(fields=("X-Request-Id: a\0b",))
        assert "Bad header line" in self._refused(framing_ports["lean"], payload)

    def test_whitespace_before_the_colon(self, framing_ports):
        payload = get_request(fields=("Connection : close",))
        assert "Bad header line" in self._refused(framing_ports["lean"], payload)

    @pytest.mark.parametrize("sign, separator", [("+", ""), ("", "_")])
    def test_a_content_length_that_is_not_digits(
        self, framing_ports, sign, separator
    ):
        # int() reads "+300" and "3_00" as 300; another reader of the
        # same bytes would frame the body otherwise.
        digits = str(len(_BODY))
        length = sign + digits[0] + separator + digits[1:]
        payload = (
            f"POST /grade HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode() + _BODY
        error = self._refused(framing_ports["lean"], payload)
        assert error == "missing or invalid Content-Length"

    def test_conflicting_content_lengths(self, framing_ports):
        # The first value framed the body and the rest of the bytes
        # were read as a second request on the same connection
        # (request smuggling); RFC 9112 §6.3 says refuse the framing.
        payload = grade_request(
            fields=(f"Content-Length: {len(_BODY) + len(PROBE)}",)
        ) + PROBE
        error = self._refused(framing_ports["lean"], payload)
        assert "Content-Length" in error


class TestJSONErrors:
    """Every error the HTTP tier sends is JSON, with a status line and
    ``Connection: close``, sent in the handler's one write."""

    def _json_error(self, port, payload, status):
        [(got, headers, body)], closed = exchange(port, payload)
        assert got == status, (got, body)
        assert ("Content-Type", JSON_CONTENT_TYPE) in headers
        assert ("Connection", "close") in headers
        assert closed
        return json.loads(body)["error"]

    def test_unsupported_method_is_a_json_501(self, framing_ports):
        payload = b"PUT /grade HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        error = self._json_error(framing_ports["lean"], payload, 501)
        assert "Unsupported method" in error

    def test_too_many_headers_is_a_json_431(self, framing_ports):
        payload = get_request(fields=[f"X-H{i}: v" for i in range(101)])
        error = self._json_error(framing_ports["lean"], payload, 431)
        assert error == "Too many headers"

    def test_a_bad_version_gets_a_status_line_and_json(self, framing_ports):
        # The stdlib answered with an HTML page and no status line.
        payload = get_request(version="HTTP/1.x")
        error = self._json_error(framing_ports["lean"], payload, 400)
        assert "Bad request version" in error

    def test_an_overlong_request_line_is_a_json_414(self, framing_ports):
        payload = long_request_line(65537)
        self._json_error(framing_ports["lean"], payload, 414)

    def test_a_header_line_too_long_is_a_json_431(self, framing_ports):
        payload = get_request(fields=(pad_field(65537),))
        error = self._json_error(framing_ports["lean"], payload, 431)
        assert error == "Line too long"

    def test_http2_is_a_json_505(self, framing_ports):
        # The stdlib sent this one with no status line either.
        payload = get_request(version="HTTP/2.0")
        self._json_error(framing_ports["lean"], payload, 505)


class TestLeanFramingOnTheRealServer:
    def test_a_grade_needs_no_stdlib_header_parser(self, served, monkeypatch):
        server, _ = served

        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib header parser was called")

        monkeypatch.setattr(http.client, "parse_headers", refuse)
        [(status, headers, body)], closed = exchange(
            server.port, grade_request(fields=("content-type: application/json",)),
            timeout=60,
        )
        assert status == 200 and not closed
        assert json.loads(body)["record"]["status"] == "fixed"

    def test_a_lower_case_content_length_grades(self, served):
        server, _ = served
        payload = (
            f"POST /grade HTTP/1.1\r\ncontent-length: {len(_BODY)}\r\n\r\n"
        ).encode() + _BODY
        [(status, _, body)], _ = exchange(server.port, payload, timeout=60)
        assert status == 200
        assert json.loads(body)["record"]["status"] == "fixed"

    def test_expect_100_continue_then_the_body(self, served):
        server, _ = served
        head = (
            f"POST /grade HTTP/1.1\r\nContent-Length: {len(_BODY)}\r\n"
            "Expect: 100-continue\r\n\r\n"
        ).encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
            sock.sendall(head)
            reader = sock.makefile("rb")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(_BODY)
            status, _, body = read_response(reader)
        assert status == 200
        assert json.loads(body)["record"]["status"] == "fixed"
