"""Corpus assembly: deterministic synthetic test sets per problem.

A corpus mirrors one Table 1 row's structure: a test set of incorrect
submissions drawn from three populations —

- mutated correct solutions (1–4 injected defects, mixture matching the
  paper's Fig. 14(a) correction distribution),
- big conceptual errors (never fixable by local rules),
- trivial attempts.

Every emitted incorrect submission is checked to actually be incorrect
(mutants that happen to stay equivalent are discarded), and correct
attempts can be included for end-to-end grading runs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.api import ALREADY_CORRECT, grade_submission
from repro.core.spec import ProblemSpec
from repro.mpy import parse_program, to_source
from repro.mpy.errors import FrontendError
from repro.problems.registry import Problem
from repro.studentgen.conceptual import (
    CONCEPTUAL,
    SYNTAX_ERROR_TEMPLATES,
    TRIVIAL_TEMPLATES,
)
from repro.studentgen.mutator import mutate
from repro.studentgen.variants import PROBLEM_FAMILY, variants_for

#: Fallback mixture for problems without a Table 1 row.
DEFAULT_UNFIXABLE_SHARE = 0.30

#: Distribution of injected-defect counts, shaped like paper Fig. 14(a)
#: (log-scale drop-off from 1 to 4 corrections).
MUTATION_COUNT_WEIGHTS = ((1, 0.55), (2, 0.25), (3, 0.13), (4, 0.07))


@dataclass(frozen=True)
class Submission:
    """One synthetic student attempt."""

    source: str
    origin: str  # "mutated" | "conceptual" | "trivial" | "correct" | "syntax"
    defects: Tuple[str, ...] = ()


@dataclass
class Corpus:
    """A problem's synthetic test set."""

    problem: str
    incorrect: List[Submission] = field(default_factory=list)
    correct: List[Submission] = field(default_factory=list)
    syntax_errors: List[Submission] = field(default_factory=list)


def _draw_mutation_count(rng: random.Random) -> int:
    roll = rng.random()
    cumulative = 0.0
    for count, weight in MUTATION_COUNT_WEIGHTS:
        cumulative += weight
        if roll <= cumulative:
            return count
    return MUTATION_COUNT_WEIGHTS[-1][0]


def _trivial_source(spec: ProblemSpec, template: str) -> str:
    params = ", ".join(spec.arg_names or tuple(f"a{i}" for i in range(len(spec.arg_types))))
    return template.format(fn=spec.student_function, params=params)


def generate_corpus(
    problem: Problem,
    incorrect_count: int = 24,
    correct_count: int = 4,
    syntax_count: int = 2,
    seed: int = 0,
    max_attempts_factor: int = 40,
) -> Corpus:
    """Build a deterministic corpus for ``problem``.

    ``incorrect_count`` submissions are guaranteed incorrect (graded
    against the problem's own bounded verifier); generation draws mutants
    until the target is met or ``max_attempts_factor * incorrect_count``
    candidate mutants have been tried.
    """
    rng = random.Random(zlib.crc32(f"{seed}:{problem.name}".encode()))
    spec = problem.spec
    corpus = Corpus(problem=problem.name)

    # Mixture calibration (DESIGN.md substitution 2): each Table 1 row
    # reports how many of its incorrect attempts the tool could not fix;
    # the unfixable population (conceptual + trivial attempts) is sized to
    # that share. Duplicated conceptual sources are deliberate — the paper
    # found 260/541 evalPoly attempts sharing ONE conceptual error.
    if problem.table1 is not None:
        # Half of the paper's unfixable share: the mutated population also
        # fails organically (multi-defect mutants outside any rule's
        # reach), so injecting the full share would overshoot.
        unfixable = (1.0 - problem.table1.feedback_percent / 100.0) * 0.5
        unfixable = min(0.45, max(0.08, unfixable))
    else:
        unfixable = DEFAULT_UNFIXABLE_SHARE
    conceptual_pool = list(CONCEPTUAL.get(PROBLEM_FAMILY[problem.name], ()))
    n_conceptual = (
        round(incorrect_count * unfixable * 0.7) if conceptual_pool else 0
    )
    n_trivial = round(incorrect_count * unfixable * 0.3)

    # -- conceptual & trivial ------------------------------------------------
    for source in rng.choices(conceptual_pool, k=n_conceptual) if n_conceptual else []:
        if grade_submission(source, spec) == "incorrect":
            corpus.incorrect.append(
                Submission(source=source, origin="conceptual")
            )
    for _ in range(n_trivial):
        source = _trivial_source(spec, rng.choice(TRIVIAL_TEMPLATES))
        if grade_submission(source, spec) == "incorrect":
            corpus.incorrect.append(Submission(source=source, origin="trivial"))

    # -- mutated --------------------------------------------------------------
    variant_sources = variants_for(problem.name)
    variant_modules = [parse_program(s) for s in variant_sources]
    attempts = 0
    budget = max_attempts_factor * max(1, incorrect_count)
    seen = {s.source for s in corpus.incorrect}
    while (
        len(corpus.incorrect) < incorrect_count and attempts < budget
    ):
        attempts += 1
        base = rng.choice(variant_modules)
        count = _draw_mutation_count(rng)
        mutated, defects = mutate(base, rng, count=count)
        if not defects:
            continue
        try:
            source = to_source(mutated)
            parse_program(source)  # printable and re-parseable
        except FrontendError:
            continue
        if source in seen:
            continue
        if grade_submission(source, spec) != "incorrect":
            continue
        seen.add(source)
        corpus.incorrect.append(
            Submission(
                source=source, origin="mutated", defects=tuple(defects)
            )
        )

    # -- correct & syntax-error attempts -------------------------------------
    for index in range(correct_count):
        source = variant_sources[index % len(variant_sources)]
        if grade_submission(source, spec) == ALREADY_CORRECT:
            corpus.correct.append(Submission(source=source, origin="correct"))
    for index in range(syntax_count):
        template = SYNTAX_ERROR_TEMPLATES[index % len(SYNTAX_ERROR_TEMPLATES)]
        corpus.syntax_errors.append(
            Submission(
                source=_trivial_source(spec, template), origin="syntax"
            )
        )
    return corpus
