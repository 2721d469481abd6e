"""Result bookkeeping: wrong answers are not ``ok``, and a traced layer
that recorded nothing is reported."""

from pb import report

FIX = ("iterPower-6.00x", "def iterPower(base, exp):\n    return 1\n")


def _session(outcomes):
    return {"outcomes": outcomes}


def test_ok_count_keeps_definitive_answers_that_no_check_rejected():
    session = _session(
        [
            ("r0", "fixed", FIX),
            ("r1", "no_fix", None),
            ("r2", "static", None),
            ("r3", "timeout", None),
            ("r4", "http_503", None),
        ]
    )
    assert report.ok_count(session, set(), set()) == 3


def test_ok_count_drops_answers_named_by_a_hit_check_or_a_rejected_fix():
    session = _session(
        [
            ("r0", "fixed", FIX),  # the gate rejected this fix
            ("r1", "fixed", FIX),  # the same fix, served again from cache
            ("r2", "no_fix", None),  # carried another status than its first
            ("r3", "no_fix", None),
        ]
    )
    assert report.ok_count(session, {"r2"}, {FIX}) == 1


def test_silent_layers_names_the_layers_without_a_span():
    spans = [
        [(1, None, name, 0.0, 1.0, "", {}) for name in report.TRACED_LAYERS["table1"]]
    ]
    assert report.silent_layers(spans, "table1") == []
    without_canonical = [[s for s in spans[0] if s[2] != "canonical"]]
    assert report.silent_layers(without_canonical, "table1") == ["canonical"]
