"""Execution-backend selection.

Two substrates execute (M̃)PY programs:

- ``"compiled"`` — the closure-compilation backend of this package
  (default: compile once, run candidates at near-native speed);
- ``"interp"`` — the tree-walking interpreter of :mod:`repro.mpy.interp`
  (the escape hatch, and the semantic reference the differential suite
  holds the compiler to).

:data:`BACKEND` is set by the CLI's ``--backend`` flag or the
``REPRO_BACKEND`` environment variable (see :mod:`repro.settings`): a
process setting, read by every executor when it is built and inherited
by forked pool workers. No verdict and no cache key depends on it.
"""

from __future__ import annotations

from repro.settings import Setting, choice

COMPILED = "compiled"
INTERP = "interp"
BACKENDS = (COMPILED, INTERP)

BACKEND = Setting(
    "REPRO_BACKEND", choice("execution backend", BACKENDS), COMPILED
)
