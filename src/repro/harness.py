"""Experiment harness: regenerates every table and figure of the paper.

Shared by the benchmark suite and the CLI. Each function runs one
experiment over synthetic corpora and returns structured results; the
``format_*`` helpers print them in the paper's layout next to the
published numbers (``repro-feedback table1`` runs and prints Table 1).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.api import FIXED
from repro.eml.rules import ErrorModel
from repro.engines import BoundedVerifier
from repro.problems import Problem, all_problems, get_problem
from repro.service.cache import DEFAULT_TIMEOUT_S as DEFAULT_TIMEOUT
from repro.service.runner import BatchItem, BatchRunner
from repro.studentgen import Corpus, generate_corpus


@dataclass
class SubmissionRecord:
    """Outcome of the pipeline on one synthetic submission."""

    origin: str
    status: str
    cost: Optional[int]
    wall_time: float
    defects: Tuple[str, ...] = ()


@dataclass
class ProblemRun:
    """One problem's corpus pushed through the pipeline."""

    problem: str
    records: List[SubmissionRecord] = field(default_factory=list)
    corpus_correct: int = 0
    corpus_syntax: int = 0

    @property
    def incorrect(self) -> int:
        return len(self.records)

    @property
    def fixed(self) -> int:
        return sum(1 for r in self.records if r.status == FIXED)

    @property
    def fixed_percent(self) -> float:
        return 100.0 * self.fixed / self.incorrect if self.records else 0.0

    @property
    def avg_time(self) -> float:
        times = [r.wall_time for r in self.records]
        return sum(times) / len(times) if times else 0.0

    @property
    def median_time(self) -> float:
        times = [r.wall_time for r in self.records]
        return statistics.median(times) if times else 0.0

    def cost_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for record in self.records:
            if record.status == FIXED and record.cost:
                histogram[record.cost] = histogram.get(record.cost, 0) + 1
        return histogram


def run_problem(
    problem: Problem,
    corpus: Optional[Corpus] = None,
    corpus_size: int = 24,
    seed: int = 0,
    timeout_s: float = DEFAULT_TIMEOUT,
    model: Optional[ErrorModel] = None,
    verifier: Optional[BoundedVerifier] = None,
    jobs: int = 1,
) -> ProblemRun:
    """Run the feedback pipeline over a problem's (synthetic) test set.

    The corpus goes through the batch grading service: duplicate (and
    α-renamed) submissions are solved once, and ``jobs > 1`` fans the
    distinct ones out over the served worker pool, which triages before
    it grades. Every grading, pool workers' included, runs on the
    process's execution backend (the CLI's ``--backend``).
    """
    if corpus is None:
        corpus = generate_corpus(
            problem, incorrect_count=corpus_size, seed=seed
        )
    run = ProblemRun(
        problem=problem.name,
        corpus_correct=len(corpus.correct),
        corpus_syntax=len(corpus.syntax_errors),
    )
    runner = BatchRunner(
        problem,
        model=model,
        jobs=jobs,
        timeout_s=timeout_s,
        verifier=verifier,
    )
    items = [
        BatchItem(sid=f"s{index:04d}", source=submission.source)
        for index, submission in enumerate(corpus.incorrect)
    ]
    for submission, result in zip(corpus.incorrect, runner.run(items)):
        run.records.append(
            SubmissionRecord(
                origin=submission.origin,
                status=result.report.status,
                cost=result.report.cost,
                wall_time=result.report.wall_time,
                defects=submission.defects,
            )
        )
    return run


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def run_table1(
    corpus_size: int = 24,
    seed: int = 0,
    timeout_s: float = DEFAULT_TIMEOUT,
    problems: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[Tuple[Problem, ProblemRun]]:
    selected = (
        [get_problem(name) for name in problems]
        if problems
        else list(all_problems())
    )
    results = []
    for problem in selected:
        run = run_problem(
            problem,
            corpus_size=corpus_size,
            seed=seed,
            timeout_s=timeout_s,
            jobs=jobs,
        )
        results.append((problem, run))
    return results


def format_table1(rows: List[Tuple[Problem, ProblemRun]]) -> str:
    lines = [
        f"{'Benchmark':22s} {'TestSet':>7s} {'Incorr':>6s} {'Fixed':>5s} "
        f"{'Fixed%':>6s} {'Avg(s)':>7s} {'Med(s)':>7s} | "
        f"{'paper%':>6s} {'paperAvg':>8s}"
    ]
    lines.append("-" * len(lines[0]))
    total_incorrect = 0
    total_fixed = 0
    for problem, run in rows:
        paper = problem.table1
        total_incorrect += run.incorrect
        total_fixed += run.fixed
        lines.append(
            f"{problem.name:22s} {run.incorrect + run.corpus_correct:7d} "
            f"{run.incorrect:6d} {run.fixed:5d} {run.fixed_percent:6.1f} "
            f"{run.avg_time:7.2f} {run.median_time:7.2f} | "
            f"{paper.feedback_percent if paper else 0:6.1f} "
            f"{paper.avg_time_s if paper else 0:8.2f}"
        )
    overall = 100.0 * total_fixed / total_incorrect if total_incorrect else 0.0
    lines.append("-" * len(lines[0]))
    lines.append(
        f"{'OVERALL':22s} {'':7s} {total_incorrect:6d} {total_fixed:5d} "
        f"{overall:6.1f}{'':>16s} | {'64.0':>6s} (paper overall ~64%)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 14(a): distribution of number of corrections
# ---------------------------------------------------------------------------


def fig14a_distribution(
    rows: List[Tuple[Problem, ProblemRun]]
) -> Dict[str, Dict[int, int]]:
    return {problem.name: run.cost_histogram() for problem, run in rows}


def format_fig14a(distributions: Dict[str, Dict[int, int]]) -> str:
    lines = [f"{'Problem':22s} " + " ".join(f"c={k}" for k in range(1, 5))]
    for name, histogram in distributions.items():
        counts = [histogram.get(k, 0) for k in range(1, 5)]
        lines.append(f"{name:22s} " + " ".join(f"{c:3d}" for c in counts))
    totals = [
        sum(h.get(k, 0) for h in distributions.values()) for k in range(1, 5)
    ]
    lines.append(f"{'TOTAL':22s} " + " ".join(f"{c:3d}" for c in totals))
    lines.append(
        "(paper Fig. 14(a): monotonically decreasing counts from 1 to 4 "
        "corrections, log scale)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 14(b): corrections vs error-model size (E0..En)
# ---------------------------------------------------------------------------


def run_fig14b(
    problem: Problem,
    corpus_size: int = 24,
    seed: int = 0,
    timeout_s: float = DEFAULT_TIMEOUT,
) -> List[Tuple[str, int]]:
    """Fix counts under growing rule-prefix models E0 ⊂ E1 ⊂ ... ⊂ E."""
    corpus = generate_corpus(problem, incorrect_count=corpus_size, seed=seed)
    verifier = BoundedVerifier(problem.spec)
    results = []
    for size in range(0, len(problem.model) + 1):
        model = problem.model.prefix(size, name=f"E{size}")
        run = run_problem(
            problem,
            corpus=corpus,
            timeout_s=timeout_s,
            model=model,
            verifier=verifier,
        )
        results.append((f"E{size}", run.fixed))
    return results


def format_fig14b(problem_name: str, results: List[Tuple[str, int]]) -> str:
    lines = [f"Problems corrected vs error-model size — {problem_name}"]
    for label, fixed in results:
        lines.append(f"  {label:4s} {fixed:4d} " + "#" * fixed)
    lines.append(
        "(paper Fig. 14(b): adding rules monotonically increases corrected "
        "attempts)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 14(c): generalization of the computeDeriv model
# ---------------------------------------------------------------------------


def run_fig14c(
    target_names: Sequence[str] = (
        "evalPoly-6.00x",
        "iterGCD-6.00x",
        "oddTuples-6.00x",
        "recurPower-6.00x",
        "iterPower-6.00x",
    ),
    corpus_size: int = 24,
    seed: int = 0,
    timeout_s: float = DEFAULT_TIMEOUT,
) -> List[Tuple[str, int, int]]:
    """(problem, fixed with computeDeriv model, fixed with own model)."""
    deriv_model = get_problem("compDeriv-6.00x").model
    results = []
    for name in target_names:
        problem = get_problem(name)
        corpus = generate_corpus(
            problem, incorrect_count=corpus_size, seed=seed
        )
        verifier = BoundedVerifier(problem.spec)
        with_deriv = run_problem(
            problem,
            corpus=corpus,
            timeout_s=timeout_s,
            model=deriv_model,
            verifier=verifier,
        )
        with_own = run_problem(
            problem, corpus=corpus, timeout_s=timeout_s, verifier=verifier
        )
        results.append((name, with_deriv.fixed, with_own.fixed))
    return results


def format_fig14c(results: List[Tuple[str, int, int]]) -> str:
    lines = [
        f"{'Problem':22s} {'E-comp-deriv':>12s} {'E (own)':>8s}",
        "-" * 46,
    ]
    for name, deriv_fixed, own_fixed in results:
        lines.append(f"{name:22s} {deriv_fixed:12d} {own_fixed:8d}")
    lines.append(
        "(paper Fig. 14(c): the compute-deriv model fixes a fraction of "
        "other problems' attempts, fewer than their specialized models)"
    )
    return "\n".join(lines)
