"""Fault-injection harness unit tests: grammar, triggers, plan state."""

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultInjected, parse_spec


class TestSpecGrammar:
    def test_parse_single_point(self):
        plan = parse_spec("worker.crash")
        assert plan.should_fire("worker.crash")
        assert not plan.should_fire("worker.hang")

    def test_parse_triggers(self):
        plan = parse_spec("grade.slow:n=2:delay=0.5")
        assert plan.delay_for("grade.slow") == 0.5
        assert plan.should_fire("grade.slow")
        assert plan.should_fire("grade.slow")
        # n=2 exhausted: never fires again.
        assert not plan.should_fire("grade.slow")

    def test_parse_multiple_points(self):
        plan = parse_spec("worker.crash:n=1,cache.write,grade.error:p=1.0")
        assert plan.should_fire("worker.crash")
        assert not plan.should_fire("worker.crash")
        assert plan.should_fire("cache.write")
        assert plan.should_fire("grade.error")

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            parse_spec("worker.typo")

    def test_unknown_trigger_rejected(self):
        with pytest.raises(ValueError, match="unknown fault trigger"):
            parse_spec("worker.crash:x=1")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            parse_spec("worker.crash:p=1.5")

    def test_seeded_probability_is_deterministic(self):
        fires = []
        for _ in range(2):
            plan = parse_spec("grade.error:p=0.5:seed=7")
            fires.append(
                [plan.should_fire("grade.error") for _ in range(50)]
            )
        assert fires[0] == fires[1]
        assert any(fires[0]) and not all(fires[0])


class TestProcessWidePlan:
    def test_disarmed_is_the_default(self):
        assert not faults.enabled()
        assert not faults.should_fire("worker.crash")
        faults.inject("grade.error")  # no-op disarmed, must not raise

    def test_arm_and_reset(self):
        faults.arm("grade.error", count=1)
        assert faults.enabled()
        with pytest.raises(FaultInjected) as excinfo:
            faults.inject("grade.error")
        assert excinfo.value.point == "grade.error"
        # Count exhausted: the next crossing passes clean.
        faults.inject("grade.error")
        faults.reset()
        assert not faults.enabled()

    def test_inject_custom_exception(self):
        faults.arm("cache.read")
        with pytest.raises(OSError, match="disk gone"):
            faults.inject("cache.read", OSError("disk gone"))

    def test_environment_arming(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "grade.error:n=1")
        faults.reset()  # forget any prior env read
        assert faults.enabled()
        assert faults.should_fire("grade.error")
        faults.reset()
        monkeypatch.delenv(faults.ENV_VAR)
        assert not faults.enabled()

    def test_configure_outranks_environment(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker.crash")
        faults.configure("grade.error")
        assert faults.should_fire("grade.error")
        assert not faults.should_fire("worker.crash")
        faults.configure(None)
        assert not faults.enabled()

    def test_draw_carries_the_armed_delay(self):
        faults.arm("grade.slow", count=1, delay_s=0.05)
        assert faults.draw(("grade.slow",)) == {"grade.slow": 0.05}
        # Exhausted: nothing drawn.
        assert faults.draw(("grade.slow",)) == {}

    def test_draw_stops_at_a_fault_that_ends_the_request(self):
        # A crash ends the request: the slow point after it is never
        # acted out, so it keeps its shot for the next draw.
        faults.configure("worker.crash:n=1,grade.slow:n=1:delay=0.01")
        points = ("worker.crash", "grade.slow")
        ends = ("worker.crash",)
        assert faults.draw(points, ends) == {"worker.crash": faults.DEFAULT_DELAY_S}
        assert faults.draw(points, ends) == {"grade.slow": 0.01}
        assert faults.draw(points, ends) == {}

    def test_draw_without_an_ending_fault_takes_every_point(self):
        faults.configure("grade.slow:n=1:delay=0.01,grade.error:n=1")
        drawn = faults.draw(("grade.slow", "grade.error"), ("worker.crash",))
        assert set(drawn) == {"grade.slow", "grade.error"}
