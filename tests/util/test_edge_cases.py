"""Edge-case tests across small utility surfaces."""

import pytest

from repro.exceptions import ServiceError, ValidationError
from repro.util.timeutil import (
    Interval,
    RepeatedTime,
    TimeCondition,
    coalesce_intervals,
    timestamp_ms,
)

MONDAY = timestamp_ms(2011, 2, 7)
_DAY = 86_400_000
_HOUR = 3_600_000


class TestServiceErrorStatus:
    def test_default_status_from_class(self):
        from repro.exceptions import AuthenticationError, NotFoundError

        assert AuthenticationError("x").status == 401
        assert NotFoundError("x").status == 404

    def test_status_override(self):
        err = ServiceError("teapot", status=418)
        assert err.status == 418

    def test_docstring_used_as_default_message(self):
        from repro.exceptions import AuthorizationError

        assert "permission" in str(AuthorizationError())


class TestContainsAnyRepeated:
    def test_subday_segment_probed_against_weekly_window(self):
        cond = TimeCondition(repeated=(RepeatedTime.weekly(["Mon"], "9:00am", "10:00am"),))
        inside = Interval(MONDAY + 9 * _HOUR + 60_000, MONDAY + 9 * _HOUR + 120_000)
        outside = Interval(MONDAY + 14 * _HOUR, MONDAY + 15 * _HOUR)
        assert cond.contains_any(inside)
        assert not cond.contains_any(outside)

    def test_day_long_segment_always_may_match(self):
        cond = TimeCondition(repeated=(RepeatedTime.weekly(["Sun"], "9:00am", "10:00am"),))
        assert cond.contains_any(Interval(MONDAY, MONDAY + _DAY))

    def test_boundary_probe_at_interval_end(self):
        cond = TimeCondition(
            repeated=(RepeatedTime.weekly(["Mon"], "9:59am", "10:00am"),)
        )
        # A segment whose only overlap is its final minute.
        segment = Interval(MONDAY + 9 * _HOUR, MONDAY + 10 * _HOUR)
        assert cond.contains_any(segment)


class TestCoalesceEdge:
    def test_empty(self):
        assert coalesce_intervals([]) == []

    def test_zero_length_intervals_absorbed(self):
        out = coalesce_intervals([Interval(5, 5), Interval(0, 10)])
        assert out == [Interval(0, 10)]


class TestSimulatorSkinTemp:
    def test_skin_temp_channel_generates(self):
        from repro.sensors.personas import make_persona
        from repro.sensors.simulator import SimulatorConfig, TraceSimulator

        config = SimulatorConfig(channels=("SkinTemp",))
        trace = TraceSimulator(make_persona("p"), config, seed=1).run(MONDAY, days=1)
        values = [v for pkt in trace.packets["SkinTemp"] for v in pkt.values]
        assert values
        assert all(30.0 < v < 36.0 for v in values)

    def test_unknown_channel_signal_model_rejected(self):
        import numpy as np

        from repro.sensors.personas import make_persona
        from repro.sensors.simulator import TraceSimulator

        sim = TraceSimulator(make_persona("p"), seed=0)
        state = make_persona("p").timeline(MONDAY, 1, sim.rng)[0]
        with pytest.raises(ValidationError):
            sim._signal("Sonar", state, np.arange(4))


class TestProbeInstantsWrap:
    def test_wrapping_window_probes(self):
        from repro.broker.search import probe_instants

        cond = TimeCondition(repeated=(RepeatedTime.weekly(["Fri"], "10:00pm", "2:00am"),))
        instants = probe_instants(cond)
        assert instants  # both the late-night and early-morning pieces probe
        for ts in instants:
            assert cond.contains(ts)


class TestCandidateRuleDedup:
    def test_rule_naming_two_groups_counted_once(self):
        from repro.rules.engine import RuleEngine
        from repro.rules.model import ALLOW, Rule

        rule = Rule(consumers=("study-a", "study-b"), action=ALLOW)
        engine = RuleEngine([rule], {})
        candidates = engine.compiled._candidates(
            frozenset({"bob", "study-a", "study-b"})
        )
        assert len(candidates) == 1


class TestWebUiEscaping:
    def test_select_and_checkbox_escape_values(self):
        from repro.server.webui import _checkboxes, _select

        html = _checkboxes("f", ['<img src=x onerror=alert(1)>'])
        assert "<img" not in html
        html = _select("f", ['"><script>'], selected=None)
        assert "<script>" not in html
