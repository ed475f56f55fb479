"""Tests for the overload campaign: parity when idle, grace under load."""

import json

import pytest

from repro.validation import (
    assert_burst_invariants,
    burst_config,
    burst_leg,
    burst_summary,
    calm_leg,
    generous_config,
    make_burst_trace,
    make_calm_trace,
    overload_config,
    stream_parity,
)
from repro.validation.overload import (
    final_mode,
    modes_seen,
    shed,
    transitions,
)


@pytest.fixture(scope="module")
def parity():
    return stream_parity(calm_leg(overload_config(enabled=False)),
                         calm_leg(generous_config()))


@pytest.fixture(scope="module")
def burst():
    return burst_leg()


class TestConfigs:
    def test_disabled_config_turns_every_control_off(self):
        config = overload_config(enabled=False)
        assert config.deadline.enabled is False
        assert config.admission.enabled is False
        assert config.degradation.enabled is False

    def test_generous_config_is_enabled_but_unreachable(self):
        config = generous_config()
        assert config.deadline.enabled
        assert config.admission.enabled
        assert config.degradation.enabled
        assert config.deadline.timeout >= 1e6
        assert config.admission.queue_seconds >= 1e6
        # Alarm escalation is the one ladder input with no numeric
        # threshold to push out of reach, so generous means off.
        assert config.degradation.alarm_escalation is False

    def test_burst_config_uses_tight_thresholds(self):
        config = burst_config()
        assert config.deadline.timeout < config.admission.queue_seconds

    def test_traces_are_deterministic(self):
        first = [entry.to_json() for entry in make_burst_trace()]
        second = [entry.to_json() for entry in make_burst_trace()]
        assert first == second
        assert all(entry.at is not None for entry in make_calm_trace())


class TestParity:
    def test_generous_controls_are_byte_invisible(self, parity):
        assert parity["verdict_parity"]
        assert parity["metrics_parity"]
        assert parity["events_parity"]
        assert parity["parity"]

    def test_report_shape(self, parity):
        assert parity["parity"] is True
        assert parity["verdict_count"] == 12


class TestBurst:
    def test_invariants_hold(self, burst):
        assert burst_summary(burst)["ok"]
        assert_burst_invariants(burst)

    def test_every_request_answered_and_forwarded(self, burst):
        summary = burst_summary(burst)
        assert summary["all_answered"]
        assert summary["all_forwarded"]
        assert all(status < 500 for status in burst.statuses)

    def test_ladder_walks_down_and_recovers(self, burst):
        assert shed(burst) > 0
        assert modes_seen(burst) == ["full", "cached_only", "audit_only"]
        assert final_mode(burst) == "full"
        assert transitions(burst)[0] == ("full", "cached_only")
        assert transitions(burst)[-1] == ("cached_only", "full")

    def test_deadline_exhaustion_degrades_instead_of_blocking(self, burst):
        # The mid-burst write invalidates the probe cache, so lagged
        # requests probe live on exhausted budgets and must degrade
        # with the deadline_exceeded reason -- never stall or 5xx.
        rows = [json.loads(row) for row in burst.rows]
        degraded = [row for row in rows
                    if "deadline_exceeded" in (row.get("message") or "")]
        assert degraded
        assert all(row["verdict"] == "indeterminate" for row in degraded)

    def test_digests_are_stable_across_runs(self, burst):
        again = burst_leg()
        assert again.digest() == burst.digest()
        assert again.metrics_digest() == burst.metrics_digest()
        assert again.events_digest() == burst.events_digest()


class TestLeg:
    def test_calm_leg_stays_in_full_mode(self):
        leg = calm_leg(generous_config())
        assert shed(leg) == 0
        assert modes_seen(leg) == ["full"]
        assert final_mode(leg) == "full"
        assert leg.monitors[0].admission.stats()["shed"] == 0
