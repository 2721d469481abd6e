"""Problem specifications.

A :class:`ProblemSpec` is what the instructor provides (Section 2.1): a
reference implementation, the types of the function's arguments (declared
via paper-style name suffixes like ``poly_list_int`` or given explicitly),
and the bounded-verification parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.mpy import nodes as N
from repro.mpy import parse_program
from repro.mpy.errors import MPYError
from repro.mpy.values import (
    Bounds,
    TypeSig,
    input_space,
    input_space_size,
    parse_type_suffix,
)


@dataclass(frozen=True)
class ProblemSpec:
    """An assignment problem: reference solution + typed interface + bounds."""

    name: str
    reference_source: str
    function: str
    arg_types: Tuple[TypeSig, ...]
    arg_names: Tuple[str, ...] = ()
    #: The name students are asked to define (the reference name minus its
    #: type suffix). Defaults to ``function`` when empty.
    student_function: str = ""
    bounds: Bounds = field(default_factory=Bounds)
    #: Compare captured print output in addition to return values (the
    #: compBal-stdin style problems of Section 6).
    compare_stdout: bool = False
    #: Execution fuel per run; generous enough for the reference, small
    #: enough that diverging students fail fast.
    fuel: int = 20_000
    description: str = ""

    def __post_init__(self):
        module = self.reference_module()
        if self.function not in module.functions():
            raise MPYError(
                f"reference for {self.name!r} does not define "
                f"{self.function!r}"
            )
        if not self.student_function:
            object.__setattr__(self, "student_function", self.function)

    def reference_module(self) -> N.Module:
        return parse_program(self.reference_source)

    def input_space(self) -> Iterator[tuple]:
        return input_space(self.arg_types, self.bounds)

    def input_space_size(self) -> int:
        return input_space_size(self.arg_types, self.bounds)

    @staticmethod
    def from_typed_reference(
        name: str,
        source: str,
        bounds: Optional[Bounds] = None,
        compare_stdout: bool = False,
        description: str = "",
        overrides: Optional[Dict[str, TypeSig]] = None,
    ) -> "ProblemSpec":
        """Build a spec from a paper-style typed reference implementation.

        The reference function's name and argument types are read from the
        suffix convention of Section 2.1: ``computeDeriv_list_int`` with
        parameter ``poly_list_int`` declares a list-of-int argument named
        ``poly``. ``overrides`` supplies types the convention cannot express
        (e.g. positive-only exponents).
        """
        module = parse_program(source)
        functions = [s for s in module.body if isinstance(s, N.FuncDef)]
        if not functions:
            raise MPYError(f"no function definition in reference for {name!r}")
        fn = functions[-1]
        arg_names = []
        arg_types = []
        for param in fn.params:
            base, sig = parse_type_suffix(param)
            if overrides and base in overrides:
                sig = overrides[base]
            if sig is None:
                raise MPYError(
                    f"cannot infer a type for parameter {param!r}; use a "
                    "type suffix or an override"
                )
            arg_names.append(base)
            arg_types.append(sig)
        fn_base, _ = parse_type_suffix(fn.name)
        return ProblemSpec(
            name=name,
            reference_source=source,
            function=fn.name,
            arg_types=tuple(arg_types),
            arg_names=tuple(arg_names),
            student_function=fn_base,
            bounds=bounds or Bounds(),
            compare_stdout=compare_stdout,
            description=description or fn_base,
        )

    def param_type_map(self) -> Dict[str, TypeSig]:
        """Student-side parameter types keyed by *position-matched* names.

        Students name their parameters freely; types attach positionally
        when the student function is known. This map keys by the reference
        base names, which the rewriter re-keys per student function.
        """
        return dict(zip(self.arg_names, self.arg_types))
