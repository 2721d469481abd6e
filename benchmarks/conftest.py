"""Shared benchmark configuration.

Environment knobs (defaults keep a full ``pytest benchmarks/
--benchmark-only`` run laptop-sized; EXPERIMENTS.md records both scales):

- ``REPRO_BENCH_CORPUS``  — incorrect submissions per problem (default 10)
- ``REPRO_BENCH_TIMEOUT`` — per-submission solver budget in s (default 30)
- ``REPRO_BENCH_JOBS``    — batch-runner worker processes (default 1)
- ``REPRO_BENCH_PROBLEMS``— comma list of problems, or "all"
  (default: a representative 8-problem subset spanning Table 1)
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess

import pytest

from repro.engines import CandidateSpace, CegisMinEngine

CORPUS_SIZE = int(os.environ.get("REPRO_BENCH_CORPUS", "8"))
TIMEOUT_S = float(os.environ.get("REPRO_BENCH_TIMEOUT", "20"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

DEFAULT_PROBLEMS = [
    "prodBySum-6.00",
    "compDeriv-6.00x",
    "evalPoly-6.00x",
    "oddTuples-6.00x",
    "iterPower-6.00x",
    "recurPower-6.00x",
    "iterGCD-6.00x",
    "hangman1-str-6.00x",
]

_env_problems = os.environ.get("REPRO_BENCH_PROBLEMS", "")
if _env_problems == "all":
    from repro.problems import all_problems

    PROBLEMS = [p.name for p in all_problems()]
elif _env_problems:
    PROBLEMS = _env_problems.split(",")
else:
    PROBLEMS = DEFAULT_PROBLEMS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=pathlib.Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_stamp() -> dict:
    """Where a committed result was measured: revision, CPUs, Python."""
    return {
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def capture_blocked_regions(problem, verifier, tilde, registry):
    """Solve with the explorer on, recording every region it blocks.

    Returns ``(pairs, result)``: each ``(failing candidate, counterexample
    input)`` pair whose free-hole region CEGISMIN explored, in order, and
    the engine result.
    """
    pairs = []
    original = CandidateSpace.explore_free_region

    def spy(self, args, assignment, deadline=None):
        pairs.append((dict(assignment), args))
        return original(self, args, assignment, deadline=deadline)

    CandidateSpace.explore_free_region = spy
    try:
        result = CegisMinEngine(explorer=True).solve(
            tilde, registry, problem.spec, verifier, timeout_s=120
        )
    finally:
        CandidateSpace.explore_free_region = original
    return pairs, result


def save_result(name: str, text: str) -> None:
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def bench_config():
    return {
        "corpus_size": CORPUS_SIZE,
        "timeout_s": TIMEOUT_S,
        "seed": SEED,
        "jobs": JOBS,
        "problems": PROBLEMS,
    }


@pytest.fixture(scope="session")
def table1_runs(bench_config):
    """Session-cached Table 1 runs shared by several benchmarks."""
    from repro.harness import run_table1

    return run_table1(
        corpus_size=bench_config["corpus_size"],
        seed=bench_config["seed"],
        timeout_s=bench_config["timeout_s"],
        problems=bench_config["problems"],
        jobs=bench_config["jobs"],
    )
