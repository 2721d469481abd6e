"""Explorer selection: table-based blocking on, or per-candidate sweeps.

Mirrors :mod:`repro.compile.backend`: an explicit ``explorer=`` argument
at a call site wins, else a process-wide default set via
:func:`set_default_explorer` (the CLI's ``--explorer`` flag), else the
``REPRO_EXPLORER`` environment variable, else **on**. The off state is
the ablation: engines fall back to one generalized cube per failing
candidate, the per-candidate sweep the exploration tables replace.
"""

from __future__ import annotations

import os
from typing import Optional, Union

ENV_VAR = "REPRO_EXPLORER"

_ON = ("on", "1", "true", "yes")
_OFF = ("off", "0", "false", "no")

_default: Optional[bool] = None


def _validate(value: Union[bool, str]) -> bool:
    if isinstance(value, bool):
        return value
    lowered = str(value).strip().lower()
    if lowered in _ON:
        return True
    if lowered in _OFF:
        return False
    raise ValueError(
        f"unknown explorer setting {value!r}; expected 'on' or 'off'"
    )


def default_explorer() -> bool:
    """The process-wide setting: explicit default, env var, or on."""
    if _default is not None:
        return _default
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        return _validate(env)
    return True


def set_default_explorer(value: Union[bool, str, None]) -> None:
    """Set (or with ``None``, clear) the process-wide explorer default."""
    global _default
    _default = _validate(value) if value is not None else None


def resolve_explorer(value: Union[bool, str, None]) -> bool:
    """An explicit choice if given, else the process default."""
    return _validate(value) if value is not None else default_explorer()
