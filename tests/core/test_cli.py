"""Tests for the repro-feedback CLI."""

import pytest

from repro.cli import main

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

    def test_unknown_problem_errors(self, submission):
        with pytest.raises(KeyError):
            main(["grade", submission, "--problem", "nope"])

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

    def test_table1_takes_no_engine(self):
        # Table 1 grades with the default engine only; an --engine flag
        # it ignored would mislabel the whole table.
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--engine", "enumerative", "--only", "nope"])
        assert exc.value.code == 2
