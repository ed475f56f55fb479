"""The alarm engine's state machine, sinks, and reports.

The engine is driven through a stub SLO engine so every evaluation's
per-window breach pattern is chosen exactly; the hypothesis properties
at the bottom pin the two semantic guarantees (no CRITICAL without the
full-window breach the rule demands; de-escalation only after
``clear_after`` consecutive calm evaluations).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alerting import (
    CRITICAL,
    OK,
    WARN,
    AlarmEngine,
    AlarmRule,
    JsonlSink,
    MemorySink,
)
from repro.errors import AlarmError
from repro.obs.events import EventLog


class StubSLOEngine:
    """A scriptable stand-in: each evaluation reads the queued pattern."""

    def __init__(self, slo_names=("availability",), created=0.0):
        self.slos = [SimpleNamespace(name=name, description="")
                     for name in slo_names]
        self.created = created
        self.pattern = {}

    def set_windows(self, slo, breaching_flags):
        self.pattern[slo] = [
            {"window": f"w{index}", "seconds": 300.0 * (index + 1),
             "burn_rate": 20.0 if breaching else 0.0,
             "threshold": 14.4, "breaching": breaching}
            for index, breaching in enumerate(breaching_flags)]

    def window_status(self, now):
        return dict(self.pattern)


def make_engine(clear_after=2, critical_breaches=0, **kwargs):
    stub = StubSLOEngine()
    rule = AlarmRule(name="availability-burn", slo="availability",
                     clear_after=clear_after,
                     critical_breaches=critical_breaches)
    return stub, AlarmEngine(stub, rules=[rule], **kwargs)


def feed(stub, engine, flags, at=1.0):
    stub.set_windows("availability", flags)
    return engine.evaluate(at)


class TestEscalation:
    def test_all_windows_breaching_goes_critical_immediately(self):
        stub, engine = make_engine()
        fired = feed(stub, engine, (True, True))
        assert [t.to_state for t in fired] == [CRITICAL]
        assert engine.overall == CRITICAL
        assert engine.has_critical()

    def test_one_window_breaching_is_warn(self):
        stub, engine = make_engine()
        fired = feed(stub, engine, (True, False))
        assert [t.to_state for t in fired] == [WARN]
        assert not engine.has_critical()

    def test_healthy_windows_fire_nothing(self):
        stub, engine = make_engine()
        assert feed(stub, engine, (False, False)) == []
        assert engine.overall == OK
        assert engine.history == []

    def test_transition_record_shape(self):
        stub, engine = make_engine()
        (transition,) = feed(stub, engine, (True, True), at=2.5)
        record = transition.to_record()
        assert record["alarm"] == "availability-burn"
        assert record["slo"] == "availability"
        assert record["from_state"] == OK
        assert record["to_state"] == CRITICAL
        assert record["severity"] == CRITICAL
        assert record["at"] == 2.5
        assert record["breaching_windows"] == 2
        assert record["window_count"] == 2
        assert set(record["burn_rates"]) == {"w0", "w1"}


class TestHysteresis:
    def test_single_calm_evaluation_does_not_stand_down(self):
        stub, engine = make_engine(clear_after=2)
        feed(stub, engine, (True, True))
        assert feed(stub, engine, (False, False)) == []
        assert engine.overall == CRITICAL

    def test_stands_down_after_clear_after_consecutive_calm(self):
        stub, engine = make_engine(clear_after=2)
        feed(stub, engine, (True, True))
        feed(stub, engine, (False, False))
        fired = feed(stub, engine, (False, False))
        assert [t.to_state for t in fired] == [OK]
        assert engine.overall == OK

    def test_re_breach_resets_the_countdown(self):
        stub, engine = make_engine(clear_after=2)
        feed(stub, engine, (True, True))
        for _ in range(5):  # calm, re-breach, calm, re-breach, ...
            assert feed(stub, engine, (False, False)) == []
            assert feed(stub, engine, (True, True)) == []
        assert engine.overall == CRITICAL

    def test_stand_down_lands_on_max_severity_seen_while_pending(self):
        stub, engine = make_engine(clear_after=2)
        feed(stub, engine, (True, True))       # -> critical
        feed(stub, engine, (False, False))     # pending ok (1/2)
        fired = feed(stub, engine, (True, False))  # warn-calm (2/2)
        assert [t.to_state for t in fired] == [WARN]
        assert engine.overall == WARN

    def test_escalation_never_waits_while_pending(self):
        stub, engine = make_engine(clear_after=3)
        feed(stub, engine, (True, False))      # -> warn
        feed(stub, engine, (False, False))     # pending
        fired = feed(stub, engine, (True, True))
        assert [t.to_state for t in fired] == [CRITICAL]


class TestSinksAndReports:
    def test_event_log_sink_emits_alarm_transition_events(self):
        events = EventLog()
        stub, engine = make_engine(events=events)
        feed(stub, engine, (True, True))
        records = events.to_dicts(event="alarm_transition")
        assert len(records) == 1
        assert records[0]["to_state"] == CRITICAL
        assert records[0]["at"] == 1.0  # evaluation time, not clock time

    def test_memory_sink_collects_records(self):
        sink = MemorySink()
        stub, engine = make_engine(sinks=[sink])
        feed(stub, engine, (True, True))
        feed(stub, engine, (False, False))
        feed(stub, engine, (False, False))
        assert [record["to_state"] for record in sink.records] \
            == [CRITICAL, OK]

    def test_jsonl_sink_appends_rows(self, tmp_path):
        import json

        path = tmp_path / "alarms.jsonl"
        stub, engine = make_engine(sinks=[JsonlSink(str(path))])
        feed(stub, engine, (True, True))
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert rows[0]["alarm"] == "availability-burn"

    def test_report_is_clockless_and_sorted(self):
        stub, engine = make_engine()
        feed(stub, engine, (True, True), at=4.0)
        report = engine.report()
        assert report["generated_at"] == 4.0
        assert report["overall"] == CRITICAL
        assert len(report["alarms"]) == 1
        assert len(report["transitions"]) == 1

    def test_status_lists_active_alarms_only(self):
        stub, engine = make_engine()
        assert engine.status() == {"overall": OK, "active": []}
        feed(stub, engine, (True, True))
        status = engine.status()
        assert status["overall"] == CRITICAL
        assert status["active"][0]["alarm"] == "availability-burn"

    def test_render_mentions_transitions(self):
        stub, engine = make_engine()
        feed(stub, engine, (True, True))
        text = engine.render()
        assert "availability-burn" in text
        assert "ok -> critical" in text

    def test_history_is_bounded(self):
        stub, engine = make_engine(clear_after=1, keep=4)
        for _ in range(6):
            feed(stub, engine, (True, True))
            feed(stub, engine, (False, False))
        assert len(engine.history) == 4


class TestEngineValidation:
    def test_duplicate_rule_names_rejected(self):
        stub = StubSLOEngine()
        rules = [AlarmRule(name="dup", slo="availability"),
                 AlarmRule(name="dup", slo="availability")]
        with pytest.raises(AlarmError):
            AlarmEngine(stub, rules=rules)

    def test_unknown_slo_rejected(self):
        stub = StubSLOEngine()
        with pytest.raises(AlarmError):
            AlarmEngine(stub, rules=[AlarmRule(name="r", slo="nope")])

    def test_default_rules_cover_the_catalog(self):
        stub = StubSLOEngine(slo_names=("a", "b"))
        engine = AlarmEngine(stub)
        assert sorted(rule.slo for rule in engine.rules) == ["a", "b"]


# -- hypothesis properties -------------------------------------------------

#: A per-evaluation breach pattern for two windows.
patterns = st.lists(
    st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(flags=patterns)
def test_no_critical_without_full_window_breach(flags):
    """CRITICAL (critical_breaches=0) fires only when ALL windows breach."""
    stub, engine = make_engine(clear_after=2)
    for index, pattern in enumerate(flags):
        fired = feed(stub, engine, pattern, at=float(index + 1))
        for transition in fired:
            if transition.to_state == CRITICAL:
                assert all(pattern), (
                    "critical transition without a full-window breach")


@settings(max_examples=200, deadline=None)
@given(flags=patterns, clear_after=st.integers(min_value=1, max_value=4))
def test_de_escalation_requires_clear_after_consecutive_calm(
        flags, clear_after):
    """An alarm stands down only after >= clear_after consecutive
    evaluations strictly below its current severity (anti-flapping)."""
    from repro.alerting import SEVERITY_ORDER

    stub, engine = make_engine(clear_after=clear_after)
    rule = engine.rules[0]
    calm_streak = 0
    state = OK
    for index, pattern in enumerate(flags):
        target = rule.severity_for(sum(pattern), len(pattern))
        calm = SEVERITY_ORDER[target] < SEVERITY_ORDER[state]
        calm_streak = calm_streak + 1 if calm else 0
        fired = feed(stub, engine, pattern, at=float(index + 1))
        for transition in fired:
            went_down = (SEVERITY_ORDER[transition.to_state]
                         < SEVERITY_ORDER[transition.from_state])
            if went_down:
                assert calm_streak >= clear_after, (
                    f"stood down after only {calm_streak} calm "
                    f"evaluations (clear_after={clear_after})")
            assert transition.from_state != transition.to_state
            state = transition.to_state
        if fired:
            # landing on a new state restarts the pending countdown
            calm_streak = 0
        if not fired and calm and calm_streak >= clear_after:
            pytest.fail("calm streak reached clear_after without "
                        "standing down")
