"""Tests for the chaos campaign: parity and indeterminate degradation."""

import json

from repro.core import Verdict
from repro.validation import (
    EXPECTED_BREAKER_SEQUENCE,
    assert_breaker_sequence,
    assert_indeterminate_degradation,
    chaos_config,
    first_divergence,
    indeterminate,
    recoverable_program,
    retries,
    run_breaker_sequence,
    run_leg,
    unrecoverable_program,
)
from repro.workloads import make_workload

WORKLOAD = make_workload(25, seed=7)


def baseline_and_faulted():
    """The fault-free leg and the fail-once leg over one workload."""
    return (run_leg(chaos_config(), WORKLOAD),
            run_leg(chaos_config(), WORKLOAD, (recoverable_program,)))


class TestRecoverableFaults:
    def test_verdicts_are_byte_identical_to_the_fault_free_baseline(self):
        baseline, faulted = baseline_and_faulted()
        assert faulted.rows == baseline.rows, (
            f"first divergence at row {first_divergence(baseline, faulted)}")
        assert baseline.digest() == faulted.digest()
        # Retries actually happened -- parity was earned, not vacuous.
        assert retries(faulted) > 0
        assert retries(baseline) == 0
        assert indeterminate(faulted) == 0

    def test_faulted_leg_pays_extra_probes_but_same_verdict_count(self):
        baseline, faulted = baseline_and_faulted()
        assert len(faulted.rows) == len(baseline.rows)
        assert faulted.probe_count >= baseline.probe_count


class TestUnrecoverableFaults:
    def test_dead_substrate_degrades_to_indeterminate_only(self):
        leg = assert_indeterminate_degradation(count=12, seed=7)
        verdicts = {json.loads(row)["verdict"] for row in leg.rows}
        assert verdicts == {Verdict.INDETERMINATE}
        # Every row names the roots that could not be bound.
        for row in leg.rows:
            record = json.loads(row)
            assert record["unbound_roots"]
            assert record["forwarded"] is False

    def test_dead_substrate_never_reports_violations(self):
        leg = run_leg(chaos_config(), make_workload(12, seed=7),
                      (unrecoverable_program,))
        for row in leg.rows:
            assert json.loads(row)["verdict"] not in Verdict.VIOLATIONS


class TestBreakerLifecycle:
    def test_recovery_walks_the_full_event_sequence(self):
        transitions = assert_breaker_sequence()
        assert tuple(transitions) == EXPECTED_BREAKER_SEQUENCE

    def test_sequence_is_read_from_wide_events_not_the_gauge(self):
        monitor, transitions = run_breaker_sequence()
        events = monitor.obs.events.filter(event="breaker_transition",
                                           host="cinder")
        assert [(event.get("from_state"), event.get("to_state"))
                for event in events] == transitions
        # Each transition event names the request that caused it.
        assert all(event.trace_id for event in events)

    def test_requests_during_the_outage_degrade_to_indeterminate(self):
        monitor, _ = run_breaker_sequence(failure_threshold=2)
        verdicts = [verdict.verdict for verdict in monitor.log]
        assert verdicts[:2] == [Verdict.INDETERMINATE,
                                Verdict.INDETERMINATE]
        assert verdicts[-1] != Verdict.INDETERMINATE
