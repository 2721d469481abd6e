"""The shared request/response codec both serving tiers parse with."""

import json

import pytest

from repro.server import codec


def test_minimal_request_round_trips():
    body = codec.encode_grade_request("evalPoly-6.00x", "def f():\n  pass\n")
    assert body == {"problem": "evalPoly-6.00x", "source": "def f():\n  pass\n"}
    parsed = codec.decode_grade_request(json.dumps(body).encode())
    assert parsed == body


def test_full_request_round_trips_with_coercion():
    body = codec.encode_grade_request(
        "p", "s", engine="enumerative", timeout_s=30
    )
    parsed = codec.parse_grade_request(body)
    assert parsed["engine"] == "enumerative"
    assert parsed["timeout_s"] == 30.0
    assert isinstance(parsed["timeout_s"], float)


def test_optional_fields_stay_off_the_wire_when_unset():
    """Cache keys include timeout_s when present — a client that always
    sent a default would fracture the keyspace."""
    body = codec.encode_grade_request("p", "s")
    assert "engine" not in body and "timeout_s" not in body


@pytest.mark.parametrize(
    "payload",
    [
        [],
        "text",
        {},
        {"problem": "p"},
        {"source": "s"},
        {"problem": "", "source": "s"},
        {"problem": "p", "source": ""},
        {"problem": 3, "source": "s"},
        {"problem": "p", "source": "s", "engine": 5},
        {"problem": "p", "source": "s", "timeout_s": 0},
        {"problem": "p", "source": "s", "timeout_s": -1},
        {"problem": "p", "source": "s", "timeout_s": True},
        {"problem": "p", "source": "s", "timeout_s": "30"},
        # NaN would switch every deadline off; json.loads parses NaN and
        # Infinity. A budget is at most a day.
        {"problem": "p", "source": "s", "timeout_s": float("nan")},
        {"problem": "p", "source": "s", "timeout_s": float("inf")},
        {"problem": "p", "source": "s", "timeout_s": 1e7},
        {"problem": "p", "source": "s", "typo_field": 1},
    ],
)
def test_malformed_requests_raise(payload):
    with pytest.raises(ValueError):
        codec.parse_grade_request(payload)


def test_undecodable_bytes_raise_value_error_not_json_error():
    with pytest.raises(ValueError):
        codec.decode_grade_request(b"{nope")
    with pytest.raises(ValueError):
        codec.decode_grade_request(b"\xff\xfe")


def test_parse_returns_a_fresh_dict_with_only_known_fields():
    payload = {"problem": "p", "source": "s"}
    parsed = codec.parse_grade_request(payload)
    assert parsed is not payload
    parsed["timeout_s"] = 1.0
    assert "timeout_s" not in payload


def test_grade_response_shape():
    class Outcome:
        record = {"v": 1, "status": "fixed"}
        key = "k"
        cached = True
        deduped = False
        wall_time = 0.123456
        request_id = "req-1"

    response = codec.grade_response(Outcome())
    assert response == {
        "record": {"v": 1, "status": "fixed"},
        "key": "k",
        "cached": True,
        "deduped": False,
        "wall_time": 0.1235,
        "request_id": "req-1",
    }


def test_error_body_carries_extras():
    body = codec.error_body("boom", retry_after_s=2, known=["a"])
    assert body == {"error": "boom", "retry_after_s": 2, "known": ["a"]}


def test_limits_are_sane():
    assert codec.MAX_BODY_BYTES == 1 << 20
    assert codec.DRAIN_CAP_BYTES > codec.MAX_BODY_BYTES
    assert codec.GRADE_FIELDS == {"problem", "source", "engine", "timeout_s"}
