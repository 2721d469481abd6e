"""The correctness gate rejects a fix that is not equivalent."""

from pb.gate import check_fixes

GOOD = (
    "def iterPower(base, exp):\n"
    "    result = 1\n"
    "    while exp > 0:\n"
    "        result = result * base\n"
    "        exp = exp - 1\n"
    "    return result\n"
)


def _fix(sid, source):
    return {"sid": sid, "problem": "iterPower-6.00x", "fixed_source": source}


def test_gate_accepts_an_equivalent_fix():
    assert check_fixes([_fix("good", GOOD)]) == {"checked": 1, "failures": []}


def test_gate_rejects_a_planted_wrong_fix():
    planted = GOOD.replace("exp > 0", "exp > 1")  # wrong for exp == 1
    result = check_fixes([_fix("good", GOOD), _fix("planted", planted)])
    assert result["checked"] == 2
    assert [f["sid"] for f in result["failures"]] == ["planted"]


def test_gate_rejects_a_fixed_record_without_source():
    result = check_fixes([_fix("empty", None)])
    assert result["failures"][0]["verdict"] == "missing fixed_source"
