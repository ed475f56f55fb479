"""Tests for the probe scheduler: SingleFlight and ProbeScheduler."""

import threading

import pytest

from repro.core import ProbeOutcome, ProbeScheduler, SingleFlight
from repro.core.resilience import ProbeFailure
from repro.obs import Observability
from repro.obs.clock import ManualClock


class TestSingleFlight:
    def test_computes_once_per_key(self):
        cache = SingleFlight()
        calls = []
        for _ in range(3):
            value = cache.do("k", lambda: calls.append(1) or "answer")
        assert value == "answer"
        assert len(calls) == 1
        assert cache.shared_count == 2

    def test_distinct_keys_compute_independently(self):
        cache = SingleFlight()
        assert cache.do("a", lambda: 1) == 1
        assert cache.do("b", lambda: 2) == 2
        assert len(cache) == 2
        assert cache.shared_count == 0

    def test_failure_propagates_but_is_not_cached(self):
        cache = SingleFlight()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise ProbeFailure("boom")
            return "recovered"

        with pytest.raises(ProbeFailure):
            cache.do("k", flaky)
        # The failed flight was evicted: the next call retries.
        assert cache.do("k", flaky) == "recovered"
        assert len(attempts) == 2

    def test_waiters_share_the_leaders_computation(self):
        cache = SingleFlight()
        release = threading.Event()
        entered = threading.Event()
        results = []

        def slow_leader():
            entered.set()
            release.wait(timeout=5)
            return "shared"

        def lead():
            results.append(cache.do("k", slow_leader))

        def wait_and_share():
            entered.wait(timeout=5)
            results.append(cache.do("k", lambda: "never-called"))

        leader = threading.Thread(target=lead)
        waiter = threading.Thread(target=wait_and_share)
        leader.start()
        waiter.start()
        entered.wait(timeout=5)
        release.set()
        leader.join(timeout=5)
        waiter.join(timeout=5)
        assert results == ["shared", "shared"]
        assert cache.shared_count == 1

    def test_waiters_see_the_leaders_failure(self):
        cache = SingleFlight()
        release = threading.Event()
        entered = threading.Event()
        errors = []

        def failing_leader():
            entered.set()
            release.wait(timeout=5)
            raise ProbeFailure("leader died")

        def lead():
            try:
                cache.do("k", failing_leader)
            except ProbeFailure as exc:
                errors.append(("leader", str(exc)))

        def wait_on_flight():
            entered.wait(timeout=5)
            try:
                cache.do("k", lambda: "never-called")
            except ProbeFailure as exc:
                errors.append(("waiter", str(exc)))

        threads = [threading.Thread(target=lead),
                   threading.Thread(target=wait_on_flight)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=5)
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert sorted(errors) == [("leader", "leader died"),
                                  ("waiter", "leader died")]


class TestProbeScheduler:
    def test_width_one_is_serial_on_the_calling_thread(self):
        scheduler = ProbeScheduler(width=1)
        thread_names = []
        outcomes = scheduler.map([
            lambda: thread_names.append(threading.current_thread().name),
            lambda: thread_names.append(threading.current_thread().name),
        ])
        assert not scheduler.concurrent
        assert scheduler.dispatched_count == 0
        assert all(outcome.ok for outcome in outcomes)
        assert thread_names == [threading.current_thread().name] * 2

    def test_outcomes_come_back_in_submission_order(self):
        # Task 0 finishes *last*; its outcome must still come first.
        with ProbeScheduler(width=4) as scheduler:
            gate = threading.Event()

            def slow():
                gate.wait(timeout=5)
                return "slow"

            def fast():
                gate.set()
                return "fast"

            outcomes = scheduler.map([slow, fast, lambda: "third"])
        assert [outcome.value for outcome in outcomes] == \
            ["slow", "fast", "third"]
        # Task 0 runs on the calling thread; only the rest are dispatched.
        assert scheduler.dispatched_count == 2

    def test_calling_thread_runs_the_first_task(self):
        caller = threading.current_thread().name
        with ProbeScheduler(width=4) as scheduler:
            outcomes = scheduler.map([
                lambda: threading.current_thread().name,
                lambda: threading.current_thread().name,
                lambda: threading.current_thread().name,
            ])
        names = [outcome.value for outcome in outcomes]
        assert names[0] == caller
        assert all(name.startswith("probe") for name in names[1:])

    def test_probe_failure_is_a_normal_outcome(self):
        def doomed():
            raise ProbeFailure("unbound")

        with ProbeScheduler(width=2) as scheduler:
            outcomes = scheduler.map([doomed, lambda: "bound"])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, ProbeFailure)
        assert outcomes[1].ok and outcomes[1].value == "bound"

    def test_unexpected_exceptions_propagate(self):
        def broken():
            raise ValueError("a bug, not a probe failure")

        with ProbeScheduler(width=2) as scheduler:
            with pytest.raises(ValueError):
                scheduler.map([broken, lambda: "fine"])

    def test_single_task_runs_serially_even_when_concurrent(self):
        with ProbeScheduler(width=4) as scheduler:
            outcomes = scheduler.map([lambda: "only"])
        assert outcomes[0].value == "only"
        assert scheduler.dispatched_count == 0

    def test_workers_inherit_the_submitters_event_correlation(self):
        obs = Observability(clock=ManualClock())
        with ProbeScheduler(width=2, events=obs.events) as scheduler:
            with obs.events.correlate("t-000042"):
                scheduler.map([
                    lambda: obs.events.emit("probe_sent", host="a"),
                    lambda: obs.events.emit("probe_sent", host="b"),
                ])
        records = obs.events.filter(event="probe_sent")
        assert len(records) == 2
        assert {record.trace_id for record in records} == {"t-000042"}

    def test_close_is_idempotent_and_reusable(self):
        scheduler = ProbeScheduler(width=2)
        assert scheduler.map([lambda: 1, lambda: 2])[1].value == 2
        scheduler.close()
        scheduler.close()
        # A closed scheduler lazily re-creates its pool when used again.
        assert scheduler.map([lambda: 3, lambda: 4])[0].value == 3
        scheduler.close()

    def test_outcome_repr_reads_cleanly(self):
        assert "ok" in repr(ProbeOutcome(value=1))
        assert "failed" in repr(ProbeOutcome(error=ProbeFailure("x")))
