"""Tests for trace recording and replay."""

import io

import pytest

from repro.config import build_from_config
from repro.errors import ValidationError
from repro.validation import campaign_config
from repro.workloads import (RecordingClient, Trace, TraceEntry,
                             bursty_arrivals, poisson_arrivals,
                             uniform_arrivals)


@pytest.fixture()
def setup():
    cloud, monitor = build_from_config(campaign_config())
    tokens = cloud.paper_tokens()
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, monitor, clients


class TestTraceBasics:
    def test_record_and_len(self):
        trace = Trace()
        trace.record("bob", "post", "/cmonitor/volumes", {"volume": {}})
        trace.record("alice", "GET", "/cmonitor/volumes")
        assert len(trace) == 2
        assert trace.entries[0].method == "POST"

    def test_entry_json_round_trip(self):
        entry = TraceEntry("bob", "POST", "/x", {"volume": {"size": 1}})
        assert TraceEntry.from_json(entry.to_json()) == entry

    def test_entry_without_payload(self):
        entry = TraceEntry("alice", "GET", "/x")
        assert TraceEntry.from_json(entry.to_json()) == entry

    def test_malformed_line(self):
        with pytest.raises(ValidationError):
            TraceEntry.from_json("{broken")
        with pytest.raises(ValidationError):
            TraceEntry.from_json('{"user": "a"}')

    def test_save_load_file(self, tmp_path):
        trace = Trace()
        trace.record("bob", "POST", "/volumes", {"volume": {}})
        target = str(tmp_path / "trace.jsonl")
        assert trace.save(target) == 1
        assert Trace.load(target).entries == trace.entries

    def test_save_load_stream(self):
        trace = Trace()
        trace.record("carol", "GET", "/volumes")
        buffer = io.StringIO()
        trace.save(buffer)
        buffer.seek(0)
        assert Trace.load(buffer).entries == trace.entries


class TestReplay:
    def test_replay_against_monitor(self, setup):
        cloud, monitor, clients = setup
        trace = Trace()
        trace.record("bob", "POST", "/cmonitor/volumes",
                     {"volume": {"name": "t"}})
        trace.record("carol", "GET", "/cmonitor/volumes")
        responses = trace.replay(clients, "cmonitor")
        assert [r.status_code for r in responses] == [202, 200]
        assert len(monitor.log) == 2

    def test_replay_unknown_user(self, setup):
        cloud, monitor, clients = setup
        trace = Trace()
        trace.record("mallory", "GET", "/cmonitor/volumes")
        with pytest.raises(ValidationError):
            trace.replay(clients, "cmonitor")

    def test_replay_is_repeatable_regression_script(self, setup):
        # The release-regression workflow: record once, replay against a
        # fresh deployment, expect the same status sequence.
        cloud, monitor, clients = setup
        trace = Trace()
        trace.record("bob", "POST", "/cmonitor/volumes", {"volume": {}})
        trace.record("carol", "POST", "/cmonitor/volumes", {"volume": {}})
        trace.record("carol", "GET", "/cmonitor/volumes")
        first = [r.status_code for r in trace.replay(clients, "cmonitor")]

        cloud2, monitor2 = build_from_config(campaign_config())
        tokens2 = cloud2.paper_tokens()
        clients2 = {name: cloud2.client(token)
                    for name, token in tokens2.items()}
        second = [r.status_code for r in trace.replay(clients2, "cmonitor")]
        assert first == second


class _HeaderSpy:
    """A stand-in client recording the headers each request carried."""

    def __init__(self):
        self.calls = []

    def request(self, method, url, payload=None, headers=None):
        self.calls.append((method, url, headers))
        from repro.httpsim import Response
        return Response(200, b"{}")


class TestArrivalTimes:
    def test_timed_entry_round_trips_with_at(self):
        entry = TraceEntry("bob", "GET", "/x", at=2.5)
        assert '"at": 2.5' in entry.to_json()
        assert TraceEntry.from_json(entry.to_json()) == entry

    def test_untimed_entry_keeps_the_four_key_wire_form(self):
        # Pre-timestamp traces must round-trip byte-identically.
        entry = TraceEntry("bob", "GET", "/x")
        assert '"at"' not in entry.to_json()
        assert TraceEntry.from_json(entry.to_json()).at is None

    def test_paced_replay_advances_the_manual_clock(self):
        from repro.obs.clock import ManualClock

        clock = ManualClock()
        trace = Trace()
        trace.record("u", "GET", "/a", at=1.0)
        trace.record("u", "GET", "/b", at=3.0)
        trace.replay({"u": _HeaderSpy()}, "anyhost", clock=clock)
        assert clock.now == pytest.approx(3.0)

    def test_paced_replay_stamps_the_arrival_header(self):
        from repro.core.admission import ARRIVAL_HEADER
        from repro.obs.clock import ManualClock

        clock = ManualClock()
        spy = _HeaderSpy()
        trace = Trace()
        trace.record("u", "GET", "/a", at=1.5)
        trace.replay({"u": spy}, "anyhost", clock=clock)
        assert spy.calls[0][2] == {ARRIVAL_HEADER: "1.5"}

    def test_lagging_replay_does_not_wait(self):
        # When the clock is already past an entry's arrival the replayer
        # must not sleep: the lag is the overload signal.
        from repro.obs.clock import ManualClock

        clock = ManualClock(start=10.0)
        trace = Trace()
        trace.record("u", "GET", "/a", at=2.0)
        trace.replay({"u": _HeaderSpy()}, "anyhost", clock=clock)
        assert clock.now == pytest.approx(10.0)

    def test_untimed_entries_replay_unpaced_even_with_a_clock(self):
        from repro.obs.clock import ManualClock

        clock = ManualClock()
        spy = _HeaderSpy()
        trace = Trace()
        trace.record("u", "GET", "/a")
        trace.replay({"u": spy}, "anyhost", clock=clock)
        assert clock.now == 0.0
        assert spy.calls[0][2] is None

    def test_without_a_clock_at_is_ignored(self, setup):
        cloud, monitor, clients = setup
        trace = Trace()
        trace.record("carol", "GET", "/cmonitor/volumes", at=50.0)
        responses = trace.replay(clients, "cmonitor")
        assert responses[0].status_code == 200


class TestRecordingClient:
    def test_records_while_passing_through(self, setup):
        cloud, monitor, clients = setup
        trace = Trace()
        recording = RecordingClient(clients["bob"], "bob", trace)
        response = recording.post("http://cmonitor/cmonitor/volumes",
                                  {"volume": {"name": "rec"}})
        assert response.status_code == 202
        assert len(trace) == 1
        entry = trace.entries[0]
        assert entry.user == "bob"
        assert entry.path == "/cmonitor/volumes"
        assert entry.payload == {"volume": {"name": "rec"}}

    def test_recorded_trace_replays_elsewhere(self, setup):
        cloud, monitor, clients = setup
        trace = Trace()
        recording = RecordingClient(clients["bob"], "bob", trace)
        recording.post("http://cmonitor/cmonitor/volumes", {"volume": {}})
        recording.get("http://cmonitor/cmonitor/volumes")

        cloud2, monitor2 = build_from_config(campaign_config())
        tokens2 = cloud2.paper_tokens()
        clients2 = {name: cloud2.client(token)
                    for name, token in tokens2.items()}
        responses = trace.replay(clients2, "cmonitor")
        assert [r.status_code for r in responses] == [202, 200]

    def test_verb_helpers(self, setup):
        cloud, monitor, clients = setup
        trace = Trace()
        recording = RecordingClient(clients["alice"], "alice", trace)
        vid = recording.post("http://cmonitor/cmonitor/volumes",
                             {"volume": {}}).json()["volume"]["id"]
        recording.put(f"http://cmonitor/cmonitor/volumes/{vid}",
                      {"volume": {"name": "n"}})
        recording.delete(f"http://cmonitor/cmonitor/volumes/{vid}")
        assert [entry.method for entry in trace] == [
            "POST", "PUT", "DELETE"]


class TestArrivalDistributions:
    def test_uniform_is_evenly_spaced(self):
        assert uniform_arrivals(4, 0.5, start=1.0) == [1.0, 1.5, 2.0, 2.5]

    def test_uniform_rejects_negative_spacing(self):
        with pytest.raises(ValidationError):
            uniform_arrivals(3, -0.1)

    def test_bursty_groups_then_gaps(self):
        arrivals = bursty_arrivals(5, burst=2, gap=10.0, within=0.1)
        assert arrivals == [0.0, 0.1, 10.0, 10.1, 20.0]

    def test_bursty_rejects_empty_bursts(self):
        with pytest.raises(ValidationError):
            bursty_arrivals(4, burst=0, gap=1.0)

    def test_poisson_is_seeded_and_monotonic(self):
        first = poisson_arrivals(20, rate=5.0, seed=3)
        assert first == poisson_arrivals(20, rate=5.0, seed=3)
        assert first != poisson_arrivals(20, rate=5.0, seed=4)
        assert all(earlier < later
                   for earlier, later in zip(first, first[1:]))

    def test_poisson_rejects_non_positive_rate(self):
        with pytest.raises(ValidationError):
            poisson_arrivals(3, rate=0.0)

    def test_with_arrivals_stamps_a_copy(self):
        trace = Trace()
        trace.record("alice", "GET", "/volumes")
        trace.record("bob", "GET", "/volumes")
        timed = trace.with_arrivals([1.0, 2.0])
        assert [entry.at for entry in timed.entries] == [1.0, 2.0]
        # The original trace is untouched.
        assert [entry.at for entry in trace.entries] == [None, None]

    def test_with_arrivals_rejects_length_mismatch(self):
        trace = Trace()
        trace.record("alice", "GET", "/volumes")
        with pytest.raises(ValidationError):
            trace.with_arrivals([1.0, 2.0])


class TestConcurrentReplay:
    def make_trace(self, count=9):
        trace = Trace()
        for index in range(count):
            user = ("alice", "bob", "carol")[index % 3]
            trace.record(user, "GET", "/cmonitor/volumes")
        return trace

    def test_responses_keep_trace_order(self, setup):
        cloud, monitor, clients = setup
        trace = self.make_trace()
        serial = trace.replay(clients, "cmonitor")
        cloud2, monitor2 = build_from_config(campaign_config())
        clients2 = {name: cloud2.client(token)
                    for name, token in cloud2.paper_tokens().items()}
        threaded = trace.replay(clients2, "cmonitor", concurrency=3)
        assert [r.status_code for r in threaded] \
            == [r.status_code for r in serial]
        assert len(monitor2.log) == len(monitor.log) == len(trace)

    def test_concurrency_above_trace_length_is_fine(self, setup):
        cloud, monitor, clients = setup
        responses = self.make_trace(count=2).replay(
            clients, "cmonitor", concurrency=16)
        assert len(responses) == 2

    def test_unknown_user_fails_before_any_send(self, setup):
        cloud, monitor, clients = setup
        trace = self.make_trace(count=4)
        trace.record("mallory", "GET", "/cmonitor/volumes")
        with pytest.raises(ValidationError):
            trace.replay(clients, "cmonitor", concurrency=2)
        # Pre-validation rejects the whole trace: nothing was sent.
        assert len(monitor.log) == 0

    def test_worker_errors_propagate(self, setup):
        cloud, monitor, clients = setup

        class BoomClient:
            def request(self, *args, **kwargs):
                raise RuntimeError("boom")

        broken = dict(clients, alice=BoomClient())
        with pytest.raises(RuntimeError):
            self.make_trace().replay(broken, "cmonitor", concurrency=3)
