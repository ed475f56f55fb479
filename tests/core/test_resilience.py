"""Tests for the resilient transport: retries, breakers, indeterminate."""

import pytest

from repro.cloud import PrivateCloud
from repro.core import (
    CircuitBreaker,
    CloudMonitor,
    MonitorOptions,
    ResilienceOptions,
    ResilientTransport,
    RetryPolicy,
    Verdict,
    transport_failure,
)
from repro.core.resilience import (
    BreakerState,
    ProbeFailure,
)
from repro.errors import MonitorError
from repro.httpsim import FailN, Request, Response
from repro.obs import Observability
from repro.obs.clock import ManualClock

MONITOR = "http://cmonitor/cmonitor/volumes"


class TestRetryPolicy:
    def test_delays_follow_the_exponential_curve(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_delay_is_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0,
                             max_delay=2.0, jitter=0.0)
        assert policy.delay(5) == pytest.approx(2.0)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.2, seed=3)
        first = policy.delay(1, key="cinder")
        assert first == policy.delay(1, key="cinder")
        assert 0.08 <= first <= 0.12
        # Different keys spread differently (with overwhelming odds).
        assert policy.delay(1, key="keystone") != first

    def test_validation(self):
        with pytest.raises(MonitorError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(MonitorError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(MonitorError):
            RetryPolicy().delay(0)

    def test_retryable_statuses(self):
        policy = RetryPolicy()
        assert policy.retryable(Response.error(503, "x"))
        assert policy.retryable(Response.error(502, "x"))
        assert not policy.retryable(Response.error(404, "x"))
        assert not policy.retryable(Response(200, b"{}"))


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers_on_the_clock(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, recovery_time=30.0,
                                 clock=clock)
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(30.0)
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow()  # the trial request

    def test_half_open_failure_reopens_success_closes(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=10.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # trial failed
        assert breaker.state == BreakerState.OPEN
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()  # trial succeeded
        assert breaker.state == BreakerState.CLOSED


class TestResilientTransport:
    def _cloud_and_transport(self, **kwargs):
        cloud = PrivateCloud.paper_setup(volume_quota=3)
        obs = Observability(clock=ManualClock())
        transport = ResilientTransport(cloud.network, observability=obs,
                                       **kwargs)
        return cloud, transport, obs

    def _probe(self, cloud):
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        return Request("GET", "http://cinder/v3/myProject/volumes",
                       headers={"X-Auth-Token": token})

    def test_fail_once_then_succeed_is_absorbed(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=3, base_delay=0.01))
        cloud.network.inject_fault("cinder", FailN(1))
        response = transport.send(self._probe(cloud))
        assert response.status_code == 200
        assert transport_failure(response) is None
        assert obs.metrics.counter_value(
            "monitor_retries_total", host="cinder") == 1

    def test_exhaustion_synthesizes_a_marked_503(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=2, base_delay=0.01))
        cloud.network.inject_fault("cinder", FailN(99))
        response = transport.send(self._probe(cloud))
        assert response.status_code == 503
        assert transport_failure(response) == "retries-exhausted"
        body = response.json()
        assert body["attempts"] == 2
        assert body["last_status"] == 503
        assert obs.metrics.counter_value(
            "monitor_transport_failures_total",
            host="cinder", reason="retries-exhausted") == 1

    def test_backoff_advances_the_injected_clock_not_wall_time(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.0))
        cloud.network.inject_fault("cinder", FailN(2))
        before = obs.clock()
        response = transport.send(self._probe(cloud))
        assert response.status_code == 200
        # Two waits: 0.5 and 1.0 virtual seconds (plus clock read ticks).
        assert obs.clock() - before >= 1.5

    def test_breaker_opens_and_fast_fails(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=1),
            failure_threshold=2, recovery_time=60.0)
        cloud.network.inject_fault("cinder", FailN(99))
        probe = self._probe(cloud)
        transport.send(probe)
        transport.send(probe)
        assert transport.breaker("cinder").state == BreakerState.OPEN
        response = transport.send(probe)
        assert transport_failure(response) == "circuit-open"
        assert obs.metrics.counter_value(
            "monitor_transport_failures_total",
            host="cinder", reason="circuit-open") == 1
        assert obs.metrics.counter_value(
            "monitor_breaker_state", host="cinder") == \
            BreakerState.GAUGE[BreakerState.OPEN]

    def test_breaker_half_opens_after_recovery_and_closes_on_success(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=1),
            failure_threshold=1, recovery_time=30.0)
        cloud.network.inject_fault("cinder", FailN(1))
        probe = self._probe(cloud)
        transport.send(probe)  # fails, opens
        assert transport.breaker_states()["cinder"] == BreakerState.OPEN
        obs.clock.advance(30.0)
        response = transport.send(probe)  # trial; fault is spent -> 200
        assert response.status_code == 200
        assert transport.breaker_states()["cinder"] == BreakerState.CLOSED


class TestTransportEvents:
    def _cloud_and_transport(self, **kwargs):
        return TestResilientTransport._cloud_and_transport(self, **kwargs)

    def _probe(self, cloud):
        return TestResilientTransport._probe(self, cloud)

    def test_retries_emit_events_with_attempt_and_delay(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                               jitter=0.0))
        cloud.network.inject_fault("cinder", FailN(2))
        transport.send(self._probe(cloud))
        events = obs.events.filter(event="transport_retry", host="cinder")
        assert [event.get("attempt") for event in events] == [1, 2]
        assert events[0].get("delay") == pytest.approx(0.01)

    def test_give_up_emits_event_with_reason(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=2, base_delay=0.01))
        cloud.network.inject_fault("cinder", FailN(99))
        transport.send(self._probe(cloud))
        (event,) = obs.events.filter(event="transport_give_up")
        assert event.get("host") == "cinder"
        assert event.get("reason") == "retries-exhausted"
        assert event.get("attempts") == 2

    def test_breaker_lifecycle_emits_transition_events(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=1),
            failure_threshold=1, recovery_time=30.0)
        cloud.network.inject_fault("cinder", FailN(1))
        probe = self._probe(cloud)
        transport.send(probe)          # fails -> closed to open
        obs.clock.advance(30.0)
        transport.send(probe)          # trial succeeds: half-open, closed
        transitions = [
            (event.get("from_state"), event.get("to_state"))
            for event in obs.events.filter(event="breaker_transition",
                                           host="cinder")]
        assert transitions == [("closed", "open"),
                               ("open", "half-open"),
                               ("half-open", "closed")]

    def test_steady_state_emits_no_transition_events(self):
        cloud, transport, obs = self._cloud_and_transport()
        probe = self._probe(cloud)
        transport.send(probe)
        transport.send(probe)
        assert obs.events.filter(event="breaker_transition") == []

    def test_transport_events_inherit_the_correlation_context(self):
        cloud, transport, obs = self._cloud_and_transport(
            policy=RetryPolicy(max_attempts=2, base_delay=0.01))
        cloud.network.inject_fault("cinder", FailN(1))
        with obs.events.correlate("t-000042"):
            transport.send(self._probe(cloud))
        (event,) = obs.events.filter(event="transport_retry")
        assert event.trace_id == "t-000042"


def _resilient_monitor(cloud):
    options = MonitorOptions(resilience=ResilienceOptions(
        max_attempts=2, base_delay=0.01))
    monitor = CloudMonitor.for_service(
        "cinder", cloud.network, "myProject", enforcing=True,
        observability=Observability(clock=ManualClock()), options=options)
    cloud.network.register("cmonitor", monitor.app)
    return monitor


class TestMonitorDegradation:
    def test_probe_failure_yields_indeterminate_not_exception(self):
        cloud = PrivateCloud.paper_setup(volume_quota=3)
        monitor = _resilient_monitor(cloud)
        cloud.network.inject_fault("cinder", FailN(99))
        cloud.network.inject_fault("keystone", FailN(99))
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        response = cloud.client(token).get(MONITOR)
        assert response.status_code == 503
        verdict = monitor.log[-1]
        assert verdict.verdict == Verdict.INDETERMINATE
        assert verdict.indeterminate
        assert not verdict.violation
        assert not verdict.forwarded
        assert verdict.unbound_roots  # names the roots that failed
        assert response.json()["monitor"]["verdict"] == "indeterminate"
        assert monitor.obs.metrics.counter_value(
            "monitor_indeterminate_total") == 1

    def test_indeterminate_does_not_move_coverage(self):
        cloud = PrivateCloud.paper_setup(volume_quota=3)
        monitor = _resilient_monitor(cloud)
        cloud.network.inject_fault("cinder", FailN(99))
        cloud.network.inject_fault("keystone", FailN(99))
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        cloud.client(token).get(MONITOR)
        assert monitor.log[-1].indeterminate
        # An unknowable outcome must not mark any requirement exercised,
        # passed, or failed.
        for record in monitor.coverage.records.values():
            assert record.exercised == 0
            assert record.passed == 0
            assert record.failed == 0

    def test_recoverable_fault_keeps_normal_verdicts(self):
        from repro.httpsim import by_path

        cloud = PrivateCloud.paper_setup(volume_quota=3)
        monitor = _resilient_monitor(cloud)
        cloud.network.inject_fault("cinder", FailN(1, key=by_path))
        cloud.network.inject_fault("keystone", FailN(1, key=by_path))
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        response = cloud.client(token).get(MONITOR)
        assert response.status_code == 200
        assert monitor.log[-1].verdict == Verdict.VALID

    def test_forward_failure_yields_indeterminate(self):
        from repro.httpsim import OnRequest

        cloud = PrivateCloud.paper_setup(volume_quota=3)
        monitor = _resilient_monitor(cloud)

        def is_post(request):
            return request.method == "POST"

        cloud.network.inject_fault("cinder", OnRequest(is_post, FailN(99)))
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        response = cloud.client(token).post(
            MONITOR, {"volume": {"name": "v", "size": 1}})
        assert response.status_code == 503
        verdict = monitor.log[-1]
        assert verdict.verdict == Verdict.INDETERMINATE
        assert verdict.pre_holds is True  # probes worked; forward died
        assert "forward failed" in verdict.message
        # The cloud never saw the POST (faults short-circuit pre-app).
        assert cloud.cinder.volumes.where(project_id="myProject") == []

    def test_probe_failure_raises_probe_failure_for_direct_use(self):
        cloud = PrivateCloud.paper_setup(volume_quota=3)
        monitor = _resilient_monitor(cloud)
        cloud.network.inject_fault("cinder", FailN(99))
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        with pytest.raises(ProbeFailure):
            monitor.provider._get(
                token, "http://cinder/v3/myProject/volumes")
