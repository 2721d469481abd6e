"""Closure-compiled execution backend for (M̃)PY programs.

The engines' hot loop is candidate evaluation: run a hole-rewritten tree
over hundreds of bounded inputs, for thousands of candidates. The
tree-walking interpreter pays a string-``getattr`` dispatch plus several
Python frames per AST node per input per candidate; this package lowers
the tree **once** into nested Python closures (:mod:`.compiler`), so
repeated runs skip all dispatch and name-resolution work, and choice
nodes become branch tables indexed by a shared assignment array —
switching candidates is an array write, with zero recompilation.

Semantics are bit-identical to :mod:`repro.mpy.interp` by construction
(operator semantics are the interpreter's own methods, borrowed by the
:class:`~repro.compile.runtime.Machine`) and by the differential suite in
``tests/compile/``. :data:`.backend.BACKEND`, a process setting
(``REPRO_BACKEND`` / CLI ``--backend``), selects between the two
substrates; every executor reads it when it is built.
"""

from repro.compile.backend import BACKEND, BACKENDS, COMPILED, INTERP
from repro.compile.compiler import CompiledProgram, compile_program
from repro.compile.runtime import CompiledClosure, Frame, Machine


def make_executor(module, fuel):
    """An ``Interpreter``-compatible executor (``.call`` + ``.fuel``).

    Used wherever a plain MPY module is executed repeatedly (the
    verifier's reference side, submission grading): returns a
    :class:`CompiledProgram` or a tree-walking ``Interpreter`` according
    to the process's :data:`BACKEND` now.
    """
    if BACKEND.default() == COMPILED:
        return compile_program(module, fuel=fuel)
    from repro.mpy.interp import Interpreter

    return Interpreter(module, fuel=fuel)


#: ``BACKEND.using`` under the name the benchmark gate (``perfbench``) imports.
using_backend = BACKEND.using


__all__ = [
    "BACKEND",
    "BACKENDS",
    "COMPILED",
    "INTERP",
    "CompiledClosure",
    "CompiledProgram",
    "Frame",
    "Machine",
    "compile_program",
    "make_executor",
    "using_backend",
]
