"""The four process-wide settings share one resolution rule.

An explicit value beats the process default (a CLI flag), which beats
the environment variable, which beats the built-in; the environment is
read at every lookup that reaches it, and a bad value from anywhere is
refused with an error naming the setting.
"""

import pytest

from repro.compile import BACKEND, using_backend
from repro.obs import OBS, SLOW_MS
from repro.service.workers import EXECUTOR
from repro.settings import choice, switch

#: setting, its built-in, another valid value and an env string for it,
#: a refused explicit value, a refused env string, and a word the error
#: names the setting by. Env strings are stripped and lowercased;
#: explicit choices must match exactly.
SETTINGS = {
    "backend": (
        BACKEND, "compiled", "interp", " Interp ", "Interp", "jit",
        "execution backend",
    ),
    "obs": (OBS, True, False, "0", "maybe", "quiet", "obs"),
    "slow_ms": (SLOW_MS, 1000.0, 75.0, " 75 ", -1.0, "-5", "slow-ms"),
    "executor": (
        EXECUTOR, "thread", "process", "Process\n", "Process", "fibers",
        "executor",
    ),
}


@pytest.fixture(params=sorted(SETTINGS))
def case(request, monkeypatch):
    setting, *rest = SETTINGS[request.param]
    monkeypatch.delenv(setting.env_var, raising=False)
    setting.set(None)
    yield (setting, *rest)
    setting.set(None)


def test_precedence(case, monkeypatch):
    setting, builtin, other, other_env, *_ = case
    assert setting.default() == builtin
    assert setting.resolve(None) == builtin
    monkeypatch.setenv(setting.env_var, other_env)
    assert setting.env() == other
    assert setting.default() == other  # env beats built-in
    with setting.using(builtin):
        assert setting.default() == builtin  # process default beats env
        assert setting.resolve(other) == other  # explicit beats default


def test_env_is_read_at_each_lookup(case, monkeypatch):
    setting, builtin, other, other_env, *_ = case
    assert setting.env() is None
    assert setting.default() == builtin
    monkeypatch.setenv(setting.env_var, other_env)
    assert setting.default() == other
    monkeypatch.setenv(setting.env_var, "")
    assert setting.env() is None
    assert setting.default() == builtin


def test_set_and_using(case):
    setting, builtin, other, *_ = case
    setting.set(other)
    assert setting.default() == other
    with setting.using(builtin) as active:
        assert active == builtin
        assert setting.default() == builtin
    assert setting.default() == other
    with setting.using(None) as active:  # None leaves the default as is
        assert active == other
    setting.set(None)
    assert setting.default() == builtin


def test_bad_values_are_refused(case, monkeypatch):
    setting, builtin, _, _, bad, bad_env, name = case
    with pytest.raises(ValueError, match=name):
        setting.resolve(bad)
    with pytest.raises(ValueError, match=name):
        setting.set(bad)
    with pytest.raises(ValueError, match=name):
        with setting.using(bad):
            pass
    assert setting.default() == builtin
    monkeypatch.setenv(setting.env_var, bad_env)
    with pytest.raises(ValueError, match=name):
        setting.default()


def test_switch_and_choice_parsers():
    on_off = switch("demo")
    for word in ("on", "1", "true", "yes", "ON", " Yes ", True):
        assert on_off(word) is True
    for word in ("off", "0", "false", "no", "Off", False):
        assert on_off(word) is False
    pick = choice("demo", ("a", "b"))
    assert pick("b") == "b"
    for bad in ("c", "A", " a", None, 1):
        with pytest.raises(ValueError, match="demo"):
            pick(bad)


def test_using_backend_is_the_backend_setting():
    assert using_backend == BACKEND.using
