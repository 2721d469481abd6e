"""Process-wide settings: one type for every default a CLI flag can set.

Each :class:`Setting` resolves the same way: an explicit value at the
call site, else the process default (set by the CLI flag), else the
environment variable, else the built-in. The environment is read at
every lookup that reaches it, never cached, so a variable set or cleared
while the process runs is seen by the next lookup.

Env strings are stripped and lowercased before parsing; explicit values
are parsed as given. A bad value raises :class:`ValueError` naming the
setting, wherever it came from.

Stdlib-only, so every layer can own its settings without import cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")

_ON = ("on", "1", "true", "yes")
_OFF = ("off", "0", "false", "no")


class Setting(Generic[T]):
    """One process-wide setting: explicit > process default > env > built-in."""

    def __init__(
        self, env_var: str, parse: Callable[[object], T], builtin: T
    ) -> None:
        self.env_var = env_var
        self.parse = parse
        self.builtin = builtin
        self._default: Optional[T] = None

    def env(self) -> Optional[T]:
        """The parsed environment variable, or ``None`` when it is unset."""
        raw = os.environ.get(self.env_var, "").strip().lower()
        return self.parse(raw) if raw else None

    def default(self) -> T:
        """The process default, else the environment, else the built-in."""
        if self._default is not None:
            return self._default
        value = self.env()
        return self.builtin if value is None else value

    def set(self, value: object) -> None:
        """Set the process default; ``None`` clears it."""
        self._default = None if value is None else self.parse(value)

    def resolve(self, value: object = None) -> T:
        """An explicit value if given, else :meth:`default`."""
        return self.default() if value is None else self.parse(value)

    @contextmanager
    def using(self, value: object) -> Iterator[T]:
        """Pin the process default for a block (``None`` = leave as is)."""
        saved = self._default
        if value is not None:
            self._default = self.parse(value)
        try:
            yield self.default()
        finally:
            self._default = saved


def switch(name: str) -> Callable[[object], bool]:
    """A parser for an on/off setting: a bool, or on/1/true/yes, off/0/false/no."""

    def parse(value: object) -> bool:
        if isinstance(value, bool):
            return value
        lowered = str(value).strip().lower()
        if lowered in _ON:
            return True
        if lowered in _OFF:
            return False
        raise ValueError(
            f"unknown {name} setting {value!r}; expected 'on' or 'off'"
        )

    return parse


def choice(name: str, options: Sequence[str]) -> Callable[[object], str]:
    """A parser for a setting that names one of ``options`` exactly."""

    def parse(value: object) -> str:
        if isinstance(value, str) and value in options:
            return value
        raise ValueError(
            f"unknown {name} {value!r}; expected one of {tuple(options)}"
        )

    return parse
