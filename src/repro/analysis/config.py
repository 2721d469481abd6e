"""Static-analysis selection: triage on, or the pass-everything off state.

Mirrors :mod:`repro.obs.config`: an explicit ``analysis=`` argument at a
call site wins, else a process-wide default set via
:func:`set_default_analysis` (the CLI's ``--analysis`` flag), else the
``REPRO_ANALYSIS`` environment variable, else **on**. Off means no
pre-grading triage anywhere — every submission takes the full grading
path and produces records byte-identical (via ``comparable_record``) to
an analysis-on run for everything triage would have passed through.

It gates the triage of :mod:`repro.analysis.triage` wherever a
submission is graded: in the server and the batch runner, and so in the
coverage reporter, which grades through the batch runner. The linter
(:mod:`repro.analysis.emllint`) ignores it.
"""

from __future__ import annotations

import os
from typing import Optional, Union

ENV_VAR = "REPRO_ANALYSIS"

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
        f"unknown analysis setting {value!r}; expected 'on' or 'off'"
    )


#: Parsed ``REPRO_ANALYSIS``, read once: the env var cannot change for a
#: running process, and this sits on the per-request admission path.
_env_analysis: Optional[bool] = None


def default_analysis() -> bool:
    """The process-wide setting: explicit default, env var, or on."""
    global _env_analysis
    if _default is not None:
        return _default
    if _env_analysis is None:
        env = os.environ.get(ENV_VAR, "").strip()
        _env_analysis = _validate(env) if env else True
    return _env_analysis


def set_default_analysis(value: Union[bool, str, None]) -> None:
    """Set (or with ``None``, clear) the process-wide analysis default."""
    global _default
    _default = _validate(value) if value is not None else None


def resolve_analysis(value: Union[bool, str, None]) -> bool:
    """An explicit choice if given, else the process default."""
    return _validate(value) if value is not None else default_analysis()
