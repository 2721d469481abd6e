"""Tests for the repro-feedback CLI."""

import re

import pytest

from repro.cli import main
from repro.obs import SLOW_MS

FIG2A = """def computeDeriv(poly):
    deriv = []
    zero = 0
    if (len(poly) == 1):
        return deriv
    for e in range(0,len(poly)):
        if (poly[e] == 0):
            zero += 1
        else:
            deriv.append(poly[e]*e)
    return deriv
"""

CORRECT = """def computeDeriv(poly):
    if len(poly) == 1:
        return [0]
    return [poly[i] * i for i in range(1, len(poly))]
"""


@pytest.fixture
def submission(tmp_path):
    path = tmp_path / "attempt.py"
    path.write_text(FIG2A)
    return str(path)


class TestCli:
    def test_problems_lists_all(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        assert "compDeriv-6.00x" in out
        assert "stock-market-I" in out

    def test_grade_incorrect(self, capsys, submission):
        assert main(["grade", submission, "--problem", "compDeriv-6.00x"]) == 0
        assert capsys.readouterr().out.strip() == "incorrect"

    def test_grade_correct(self, capsys, tmp_path):
        path = tmp_path / "good.py"
        path.write_text(CORRECT)
        main(["grade", str(path), "--problem", "compDeriv-6.00x"])
        assert capsys.readouterr().out.strip() == "already_correct"

    def test_feedback_full_pipeline(self, capsys, submission):
        code = main(
            [
                "feedback",
                submission,
                "--problem",
                "compDeriv-6.00x",
                "--timeout",
                "60",
                "--show-fix",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "The program requires" in out
        assert "# corrected program:" in out

    def test_feedback_level_hides_detail(self, capsys, submission):
        main(
            [
                "feedback",
                submission,
                "--problem",
                "compDeriv-6.00x",
                "--level",
                "1",
                "--timeout",
                "60",
            ]
        )
        out = capsys.readouterr().out
        assert "There is an error" in out

    def test_unknown_engine_rejected(self, submission):
        with pytest.raises(SystemExit):
            main(
                [
                    "feedback",
                    submission,
                    "--problem",
                    "compDeriv-6.00x",
                    "--engine",
                    "quantum",
                ]
            )

    def test_table1_takes_no_engine(self, capsys):
        # Table 1 grades with the default engine only; an --engine flag
        # it ignored would mislabel the whole table.
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--engine", "enumerative", "--only", "prodBySum-6.00"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_global_flags_are_backend_and_obs(self, capsys):
        # Exploration tables and triage are always on: their ablation is
        # an engine argument, not a global flag.
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out))
        assert flags == {"--help", "--backend", "--obs"}


class _PastTheChecks(Exception):
    """``serve`` reached its first step after the flag checks."""


@pytest.fixture
def no_serving(monkeypatch):
    """Stop ``serve`` right after its flag checks, and fail any fleet or
    router that starts."""

    def past_the_checks():
        raise _PastTheChecks

    def no_fleet(*args, **kwargs):
        pytest.fail("a fleet was launched past a bad flag")

    def no_router(self):
        self.close()
        pytest.fail("a router ran past a bad flag")

    # Serving's first step after the checks: wiring events to stderr.
    monkeypatch.setattr("repro.obs.events.stderr_events", past_the_checks)
    monkeypatch.setattr("repro.fleet.start_fleet", no_fleet)
    monkeypatch.setattr("repro.fleet.FleetRouter.run", no_router)
    yield
    SLOW_MS.set(None)


@pytest.mark.usefixtures("no_serving")
@pytest.mark.parametrize(
    "argv",
    [
        ["grade", "attempt.py", "--problem", "nope"],
        ["feedback", "attempt.py", "--problem", "nope"],
        ["batch", "submissions", "--problem", "nope"],
        ["table1", "--only", "nope"],
        ["lint", "--problem", "nope"],
        ["coverage", "--problem", "nope"],
        ["serve", "--only", "nope", "--port", "0"],
        ["serve", "--fleet", "1", "--only", "nope", "--port", "0"],
        ["route", "127.0.0.1:9", "--only", "nope", "--port", "0"],
    ],
    ids=[
        "grade", "feedback", "batch", "table1", "lint", "coverage", "serve",
        "serve-fleet", "route",
    ],
)
def test_unknown_problem_is_a_usage_error(capsys, argv):
    # Refused while parsing, before any grading, warm-up, fleet or router
    # starts: a traceback (or a router that 404s every grade) said less.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.usefixtures("no_serving")
@pytest.mark.parametrize(
    "argv",
    [
        ["feedback", "attempt.py", "--problem", "iterPower-6.00x"],
        ["serve", "--port", "0"],
    ],
)
@pytest.mark.parametrize("timeout", ["0", "nan", "inf"])
def test_a_budget_that_is_not_positive_and_finite_is_a_usage_error(
    capsys, argv, timeout
):
    # 0 answers every grading with a timeout, and NaN switches every
    # deadline off: refused while parsing, before anything starts.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--timeout", timeout])
    assert exc.value.code == 2
    assert "argument --timeout: invalid budget value" in capsys.readouterr().err


@pytest.mark.usefixtures("no_serving")
class TestServeFlags:
    """``serve`` checks its flags once, before the fleet branch."""

    def test_serve_flags_are_pinned(self, capsys):
        # A new serve knob has to be added here on purpose.
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out))
        assert flags == {
            "--help", "--host", "--port", "--jobs", "--executor", "--queue",
            "--store", "--node-id", "--fleet", "--fleet-logs", "--engine",
            "--timeout", "--only", "--no-prime", "--verbose", "--slow-ms",
            "--breaker-threshold", "--breaker-reset", "--faults",
        }

    def test_zero_slow_ms_is_accepted(self):
        # The same rule as REPRO_SLOW_MS=0: every grading counts as slow.
        with pytest.raises(_PastTheChecks):
            main(["serve", "--slow-ms", "0", "--port", "0"])
        assert SLOW_MS.default() == 0.0

    @pytest.mark.parametrize("fleet", [[], ["--fleet", "1"]])
    def test_negative_slow_ms_is_refused(self, fleet):
        with pytest.raises(SystemExit, match="slow-ms"):
            main(["serve", *fleet, "--slow-ms", "-1", "--port", "0"])

    @pytest.mark.parametrize("fleet", [[], ["--fleet", "1"]])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--queue", "-1"),
            ("--breaker-threshold", "-1"),
            ("--breaker-reset", "0"),
            ("--faults", "nonsense"),
            ("--fleet-logs", "/dev/null/logs"),
        ],
    )
    def test_bad_flag_is_refused_before_the_fleet(self, fleet, flag, value):
        # A fleet's backends would die at startup on the same flag, and
        # the launcher could only report that they exited.
        with pytest.raises(SystemExit, match=flag):
            main(["serve", *fleet, flag, value, "--port", "0"])


def test_route_prints_the_port_it_bound(capsys, monkeypatch):
    monkeypatch.setattr("repro.fleet.FleetRouter.run", lambda self: self.close())
    assert main(["route", "127.0.0.1:9", "--port", "0"]) == 0
    out = capsys.readouterr().out
    port = re.search(r"routing on http://127\.0\.0\.1:(\d+) ", out)
    assert port and int(port.group(1)) > 0, out
