"""Correctness gate: re-check every ``fixed`` verdict independently.

A ``fixed`` record claims its ``fixed_source`` behaves like the
reference on the problem's whole bounded input space. The program
graded it on the ``compiled`` backend; this gate re-runs the claim on
the ``interp`` backend (the tree-walking interpreter), reference side
included, in its own process. Any fix that is not equivalent fails the
run.

Usage: ``python3 -m pb.gate --records IN --out OUT`` where ``IN`` is a
JSON list of ``{"sid", "problem", "fixed_source"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, List

from repro.compile import using_backend
from repro.core.api import ALREADY_CORRECT, grade_submission
from repro.problems import get_problem


def check_fixes(fixes: Iterable[dict]) -> dict:
    """``{"checked": n, "failures": [...]}`` over distinct fixes."""
    distinct = {}
    for fix in fixes:
        distinct.setdefault((fix["problem"], fix["fixed_source"]), fix["sid"])
    failures: List[dict] = []
    with using_backend("interp"):
        for (problem, source), sid in sorted(distinct.items(), key=str):
            if not isinstance(source, str) or not source:
                verdict = "missing fixed_source"
            else:
                verdict = grade_submission(source, get_problem(problem).spec)
            if verdict != ALREADY_CORRECT:
                failures.append(
                    {
                        "sid": sid,
                        "problem": problem,
                        "fixed_source": source,
                        "verdict": verdict,
                    }
                )
    return {"checked": len(distinct), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--records", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.records, encoding="utf-8") as handle:
        fixes = json.load(handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(check_fixes(fixes), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
