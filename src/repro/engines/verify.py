"""Exhaustive bounded equivalence checking against a reference.

The paper's SKETCH harness "compares the outputs of the translated student
and reference implementations on all inputs of a bounded size" (Section
2.3) — with 4-bit integers and lists up to length 4, over 2^16 inputs. We
do the same by enumeration: precompute the reference outcome on every input
of the bounded space once per problem, then sweep candidates until the
first mismatch.

An *outcome* is ``("ok", value, stdout)`` or ``("error",)``: student code
that raises (bad index, type confusion, non-termination by fuel) is
observably different from code that returns. Inputs on which the reference
itself errors are treated as outside the problem's precondition and are
excluded from the space (e.g. negative exponents for ``recurPower``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import time
from typing import Callable, Iterable, List, Optional, Tuple

from repro.compile import BACKEND, make_executor

# The outcome format lives in the explore layer (tables compare leaves
# against reference outcomes); re-exported here for the engine-side API.
from repro.explore.outcomes import (  # noqa: F401  (re-exports)
    ERROR,
    OK,
    Outcome,
    outcome_of,
    outcomes_match,
    typed_equal,
)

if TYPE_CHECKING:
    from repro.core.spec import ProblemSpec
    from repro.explore.table import ExplorationTable, Leaf


def describe_outcome(outcome: Outcome) -> str:
    """One outcome as a short human/JSON-safe string (degraded reports)."""
    if outcome[0] == ERROR:
        return "error"
    text = repr(outcome[1])
    if len(outcome) > 2 and outcome[2]:
        text += f" (stdout: {outcome[2]!r})"
    return text


def _input_size_key(args: tuple) -> tuple:
    """Order inputs smallest-first so counterexample sweeps fail fast."""

    def size(value) -> int:
        if isinstance(value, str):
            return 1 + len(value)
        if isinstance(value, (list, tuple)):
            return 1 + sum(size(v) for v in value)
        if isinstance(value, bool):
            return 0
        if isinstance(value, int):
            return abs(value)
        return 1

    return (sum(size(a) for a in args), repr(args))


def hashable_args(args: tuple):
    def freeze(value):
        if isinstance(value, list):
            return ("list",) + tuple(freeze(v) for v in value)
        if isinstance(value, tuple):
            return ("tuple",) + tuple(freeze(v) for v in value)
        if isinstance(value, dict):
            return ("dict",) + tuple(
                (freeze(k), freeze(v)) for k, v in sorted(value.items())
            )
        return value

    return tuple(freeze(a) for a in args)


class BoundedVerifier:
    """Precomputed reference outcomes + candidate sweeps for one problem.

    The table is built at construction, on the process's
    :data:`~repro.compile.BACKEND` then (``backend``).
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.backend = BACKEND.default()
        reference = make_executor(spec.reference_module(), spec.fuel)
        self.inputs: List[tuple] = []
        #: ``(args, frozen key, expected outcome)`` triples, parallel to
        #: ``self.inputs`` — keys are computed once here so candidate
        #: sweeps never re-freeze inputs.
        self._triples: List[tuple] = []
        self._expected: dict = {}
        self._max_reference_steps = 0
        for args in sorted(spec.input_space(), key=_input_size_key):
            outcome = outcome_of(
                lambda: reference.call(spec.function, args),
                spec.compare_stdout,
            )
            self._max_reference_steps = max(
                self._max_reference_steps, spec.fuel - reference.fuel
            )
            if outcome[0] == ERROR:
                continue  # outside the problem's precondition
            key = hashable_args(args)
            self.inputs.append(args)
            self._triples.append((args, key, outcome))
            self._expected[key] = outcome

    # -- reference side ------------------------------------------------------

    @property
    def candidate_fuel(self) -> int:
        """Step budget for candidate runs.

        Calibrated from the reference's worst-case step count over the
        bounded space: generous enough for any reasonable algorithm (16x
        the reference, floor 512), small enough that non-terminating
        student loops (``i += 0``) fail in microseconds instead of
        exhausting a fixed multi-thousand-step budget on every run.
        """
        return min(self.spec.fuel, max(512, 16 * self._max_reference_steps))

    def expected(self, args: tuple) -> Outcome:
        return self._expected[hashable_args(args)]

    def seed_inputs(self, count: int) -> List[tuple]:
        """A small prefix of the space, useful as initial CEGIS inputs."""
        return self.inputs[:count]

    # -- candidate side ---------------------------------------------------------

    def find_counterexample(
        self,
        run: Callable[[tuple], Outcome],
        priority: Iterable[tuple] = (),
        deadline: Optional[float] = None,
    ) -> Optional[tuple]:
        """First input where ``run`` disagrees with the reference.

        ``priority`` inputs (cached past counterexamples) are checked first.
        Returns None when the candidate matches on the whole bounded space.
        Raises TimeoutError when ``deadline`` (time.monotonic) passes.
        """
        seen = set()
        for args in priority:
            key = hashable_args(args)
            if key in seen or key not in self._expected:
                continue
            seen.add(key)
            if not outcomes_match(self._expected[key], run(args)):
                return args
        for index, (args, key, expected) in enumerate(self._triples):
            if deadline is not None and index % 256 == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError("verification deadline exceeded")
            if key in seen:
                continue
            if not outcomes_match(expected, run(args)):
                return args
        return None

    def is_equivalent(self, run: Callable[[tuple], Outcome]) -> bool:
        return self.find_counterexample(run) is None

    def failing_tests(
        self,
        run: Callable[[tuple], Outcome],
        limit: int = 3,
        max_inputs: int = 64,
    ) -> List[dict]:
        """JSON-safe mismatches of ``run`` on a prefix of the space.

        The degraded-feedback payload: when a solve times out or a
        breaker short-circuits, the submission's behavior on concrete
        inputs is still real feedback. Bounded by ``max_inputs`` scans
        and ``limit`` reported rows, and deterministic — inputs go in
        the verifier's canonical order, independent of where any solve
        stopped — so degraded records are byte-identical across
        executors and retries.
        """
        failing: List[dict] = []
        for args, _key, expected in self._triples[:max_inputs]:
            try:
                outcome = run(args)
            except Exception:
                outcome = (ERROR,)
            if outcomes_match(expected, outcome):
                continue
            failing.append(
                {
                    "input": repr(args),
                    "expected": describe_outcome(expected),
                    "got": describe_outcome(outcome),
                }
            )
            if len(failing) >= limit:
                break
        return failing

    # -- table side ---------------------------------------------------------

    def table_verdict(
        self, table: "ExplorationTable"
    ) -> "Tuple[List[Leaf], List[Leaf]]":
        """Split an exploration table's leaves against the reference.

        Returns ``(matching, failing)``: each failing leaf's cube is a
        whole region of candidates refuted on the table's input in one
        step — the cube-level counterpart of a per-candidate sweep.
        """
        return table.split(self.expected(table.args))
