"""The benchmark-problem registry: Table 1's sixteen problems.

Each :class:`Problem` bundles the reference spec, the EML error model, and
the row of paper Table 1 it reproduces (used by the benchmark harness for
paper-vs-measured reporting and by the corpus generator for sizing).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Dict, Optional, Tuple

from repro.core.spec import ProblemSpec
from repro.eml import ErrorModel, check_model, parse_error_model
from repro.mpy.values import Bounds, IntType
from repro.problems import sources


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table 1 (the published numbers)."""

    median_loc: int
    total_attempts: int
    syntax_errors: int
    test_set: int
    correct: int
    incorrect: int
    feedback_generated: int
    feedback_percent: float
    avg_time_s: float
    median_time_s: float


@dataclass(frozen=True)
class Problem:
    """A benchmark problem: spec + error model + published row."""

    name: str
    spec: ProblemSpec
    model_file: str
    table1: Optional[Table1Row] = None
    language: str = "python"

    @property
    def model(self) -> ErrorModel:
        return _load_model(self.model_file)


@functools.lru_cache(maxsize=None)
def _load_model(model_file: str) -> ErrorModel:
    text = (
        resources.files("repro.problems") / "emldata" / model_file
    ).read_text()
    model = parse_error_model(text)
    check_model(model)
    return model


# Verification bounds. The paper uses 4-bit integers and lists up to
# length 4 (Section 5.3); our defaults trade one bit / one element for
# pure-Python verification speed, which preserves every behavioral
# distinction the error models can express.
LIST_BOUNDS = Bounds(int_bits=3, max_list_len=3)
INT_BOUNDS = Bounds(int_bits=4)
#: C# problems need length-4 lists (three consecutive-day swings) but fit
#: 3-bit prices once thresholds are scaled (Section 6 constant scaling).
STOCK_BOUNDS = Bounds(int_bits=3, max_list_len=4)
STR_BOUNDS = Bounds(str_alphabet="ab", max_str_len=3, max_list_len=3)
PAPER_BOUNDS = Bounds(int_bits=4, max_list_len=4)


def _problems() -> Dict[str, Problem]:
    build = ProblemSpec.from_typed_reference
    catalog: Dict[str, Problem] = {}

    def add(
        name: str,
        spec: ProblemSpec,
        model_file: str,
        row: Optional[Table1Row],
        language: str = "python",
    ) -> None:
        catalog[name] = Problem(
            name=name,
            spec=spec,
            model_file=model_file,
            table1=row,
            language=language,
        )

    add(
        "prodBySum-6.00",
        build("prodBySum-6.00", sources.PROD_BY_SUM, bounds=INT_BOUNDS),
        "prodBySum.eml",
        Table1Row(5, 1056, 16, 1040, 772, 268, 218, 81.3, 2.49, 2.53),
    )
    add(
        "oddTuples-6.00",
        build("oddTuples-6.00", sources.ODD_TUPLES, bounds=LIST_BOUNDS),
        "oddTuples.eml",
        Table1Row(6, 2386, 1040, 1346, 1002, 344, 185, 53.8, 2.65, 2.54),
    )
    add(
        "compDeriv-6.00",
        build("compDeriv-6.00", sources.COMPUTE_DERIV, bounds=LIST_BOUNDS),
        "computeDeriv.eml",
        Table1Row(12, 144, 20, 124, 21, 103, 88, 85.4, 12.95, 4.9),
    )
    add(
        "evalPoly-6.00",
        build("evalPoly-6.00", sources.EVAL_POLY, bounds=LIST_BOUNDS),
        "evalPoly.eml",
        Table1Row(10, 144, 23, 121, 108, 13, 6, 46.1, 3.35, 3.01),
    )
    add(
        "compBal-stdin-6.00",
        build(
            "compBal-stdin-6.00",
            sources.COMP_BAL,
            bounds=INT_BOUNDS,
            compare_stdout=True,
            overrides={
                "price": IntType(nonneg=True),
                "rate": IntType(nonneg=True),
            },
        ),
        "compBal.eml",
        Table1Row(18, 170, 32, 138, 86, 52, 17, 32.7, 29.57, 14.30),
    )
    add(
        "compDeriv-6.00x",
        build("compDeriv-6.00x", sources.COMPUTE_DERIV, bounds=LIST_BOUNDS),
        "computeDeriv.eml",
        Table1Row(13, 4146, 1134, 3012, 2094, 918, 753, 82.1, 12.42, 6.32),
    )
    add(
        "evalPoly-6.00x",
        build("evalPoly-6.00x", sources.EVAL_POLY, bounds=LIST_BOUNDS),
        "evalPoly.eml",
        Table1Row(15, 4698, 1004, 3694, 3153, 541, 167, 30.9, 4.78, 4.19),
    )
    add(
        "oddTuples-6.00x",
        build("oddTuples-6.00x", sources.ODD_TUPLES, bounds=LIST_BOUNDS),
        "oddTuples.eml",
        Table1Row(10, 10985, 5047, 5938, 4182, 1756, 860, 48.9, 4.14, 3.77),
    )
    add(
        "iterPower-6.00x",
        build(
            "iterPower-6.00x",
            sources.ITER_POWER,
            bounds=INT_BOUNDS,
            overrides={"exp": IntType(nonneg=True)},
        ),
        "iterPower.eml",
        Table1Row(11, 8982, 3792, 5190, 2315, 2875, 1693, 58.9, 3.58, 3.46),
    )
    add(
        "recurPower-6.00x",
        build(
            "recurPower-6.00x",
            sources.RECUR_POWER,
            bounds=INT_BOUNDS,
            overrides={"exp": IntType(nonneg=True)},
        ),
        "recurPower.eml",
        Table1Row(10, 8879, 3395, 5484, 2546, 2938, 2271, 77.3, 10.59, 5.88),
    )
    add(
        "iterGCD-6.00x",
        build(
            "iterGCD-6.00x",
            sources.ITER_GCD,
            bounds=INT_BOUNDS,
            overrides={"a": IntType(nonneg=True), "b": IntType(nonneg=True)},
        ),
        "iterGCD.eml",
        Table1Row(12, 6934, 3732, 3202, 214, 2988, 2052, 68.7, 17.13, 9.52),
    )
    add(
        "hangman1-str-6.00x",
        build("hangman1-str-6.00x", sources.HANGMAN1, bounds=STR_BOUNDS),
        "hangman1.eml",
        Table1Row(13, 2148, 942, 1206, 855, 351, 171, 48.7, 9.08, 6.43),
    )
    add(
        "hangman2-str-6.00x",
        build("hangman2-str-6.00x", sources.HANGMAN2, bounds=STR_BOUNDS),
        "hangman2.eml",
        Table1Row(14, 1746, 410, 1336, 1118, 218, 98, 44.9, 22.09, 18.98),
    )
    add(
        "stock-market-I",
        build("stock-market-I", sources.STOCK_MARKET_1, bounds=STOCK_BOUNDS),
        "stockMarket1.eml",
        Table1Row(20, 52, 11, 41, 19, 22, 16, 72.3, 7.54, 5.23),
        language="csharp",
    )
    add(
        "stock-market-II",
        build(
            "stock-market-II",
            sources.STOCK_MARKET_2,
            bounds=Bounds(int_bits=3, max_list_len=3),
            overrides={
                "start": IntType(nonneg=True),
                "end": IntType(nonneg=True),
            },
        ),
        "stockMarket2.eml",
        Table1Row(24, 51, 8, 43, 19, 24, 14, 58.3, 11.16, 10.28),
        language="csharp",
    )
    add(
        "restaurant-rush",
        build(
            "restaurant-rush", sources.RESTAURANT_RUSH, bounds=STOCK_BOUNDS
        ),
        "restaurantRush.eml",
        Table1Row(15, 124, 38, 86, 20, 66, 41, 62.1, 8.78, 8.19),
        language="csharp",
    )
    return catalog


@functools.lru_cache(maxsize=1)
def catalog() -> Dict[str, Problem]:
    return _problems()


def get_problem(name: str) -> Problem:
    problems = catalog()
    if name not in problems:
        raise KeyError(
            f"unknown problem {name!r}; available: {sorted(problems)}"
        )
    return problems[name]


def all_problems() -> Tuple[Problem, ...]:
    return tuple(catalog().values())


def python_problems() -> Tuple[Problem, ...]:
    return tuple(p for p in all_problems() if p.language == "python")
