"""Tests for the structured wide-event log."""

import io
import json

import pytest

from repro.errors import EventError
from repro.obs import EventLog, ManualClock, WideEvent


def make_log(keep=1024, tick=1.0):
    return EventLog(clock=ManualClock(tick=tick), keep=keep)


class TestEmit:
    def test_emit_assigns_sequence_time_and_fields(self):
        log = make_log(tick=2.0)
        first = log.emit("monitor_request", trace_id="t-1", verdict="valid")
        second = log.emit("transport_retry", host="cinder")
        assert (first.seq, second.seq) == (1, 2)
        assert second.time > first.time
        assert first.get("verdict") == "valid"
        assert second.trace_id is None

    def test_empty_event_type_rejected(self):
        with pytest.raises(EventError):
            make_log().emit("")

    def test_reserved_field_names_rejected(self):
        # "event" and "trace_id" are real parameters of emit(); "seq" and
        # "time" would silently shadow the envelope, so they are refused.
        log = make_log()
        for key in ("seq", "time"):
            with pytest.raises(EventError):
                log.emit("x", **{key: "boom"})

    def test_missing_field_lookup_returns_default(self):
        event = make_log().emit("x", host="cinder")
        assert event.get("missing") is None
        assert event.get("missing", 7) == 7

    def test_to_dict_is_flat_and_json_serializable(self):
        event = make_log().emit("monitor_request", trace_id="t-1",
                                stage_seconds={"forward": 0.25})
        record = event.to_dict()
        assert record["event"] == "monitor_request"
        assert record["trace_id"] == "t-1"
        assert record["stage_seconds"] == {"forward": 0.25}
        json.dumps(record)


class TestRingAndFilter:
    def test_ring_bounds_memory_but_counts_everything(self):
        log = make_log(keep=3)
        for index in range(7):
            log.emit("tick", index=index)
        assert len(log) == 3
        assert log.emitted_count == 7
        assert [event.get("index") for event in log.filter()] == [4, 5, 6]

    def test_filter_by_event_type_and_field(self):
        log = make_log()
        log.emit("a", host="cinder")
        log.emit("b", host="cinder")
        log.emit("a", host="keystone")
        assert len(log.filter(event="a")) == 2
        assert len(log.filter(host="cinder")) == 2
        assert len(log.filter(event="a", host="cinder")) == 1

    def test_filter_by_trace_id(self):
        log = make_log()
        log.emit("a", trace_id="t-1")
        log.emit("a", trace_id="t-2")
        (match,) = log.filter(trace_id="t-2")
        assert match.trace_id == "t-2"

    def test_limit_keeps_most_recent_in_order(self):
        log = make_log()
        for index in range(5):
            log.emit("tick", index=index)
        limited = log.filter(limit=2)
        assert [event.get("index") for event in limited] == [3, 4]
        for limit in (5, 7, 20):
            assert [event.get("index") for event in log.filter(limit=limit)
                    ] == [0, 1, 2, 3, 4]
        assert log.filter(limit=0) == []

    def test_negative_limit_rejected(self):
        log = make_log()
        log.emit("tick")
        with pytest.raises(EventError):
            log.filter(limit=-1)

    def test_filter_on_absent_field_matches_nothing(self):
        log = make_log()
        log.emit("a")
        assert log.filter(verdict="valid") == []


class TestCorrelation:
    def test_correlate_stamps_trace_id_on_nested_emits(self):
        log = make_log()
        with log.correlate("t-9"):
            event = log.emit("transport_retry", host="cinder")
        assert event.trace_id == "t-9"
        assert log.emit("after").trace_id is None

    def test_correlate_restores_previous_context(self):
        log = make_log()
        with log.correlate("outer"):
            with log.correlate("inner"):
                assert log.current_trace_id == "inner"
            assert log.current_trace_id == "outer"

    def test_correlation_cleared_on_exception(self):
        log = make_log()
        with pytest.raises(RuntimeError):
            with log.correlate("t-1"):
                raise RuntimeError("boom")
        assert log.current_trace_id is None

    def test_explicit_trace_id_wins_over_context(self):
        log = make_log()
        with log.correlate("ambient"):
            event = log.emit("x", trace_id="explicit")
        assert event.trace_id == "explicit"


class TestExport:
    def test_to_jsonl_is_sorted_one_record_per_line(self):
        log = make_log()
        log.emit("b", zebra=1, alpha=2)
        log.emit("a")
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert list(record) == sorted(record)

    def test_write_jsonl_to_path_and_handle(self, tmp_path):
        log = make_log()
        log.emit("a", host="cinder")
        log.emit("b", host="keystone")
        path = str(tmp_path / "events.jsonl")
        assert log.write_jsonl(path, event="a") == 1
        with open(path, "r", encoding="utf-8") as handle:
            assert json.loads(handle.read())["host"] == "cinder"
        buffer = io.StringIO()
        assert log.write_jsonl(buffer) == 2

    def test_repr_mentions_counts(self):
        log = make_log(keep=1)
        log.emit("a")
        log.emit("b")
        assert "1" in repr(log) and "2" in repr(log)


class TestWideEvent:
    def test_matches_requires_all_criteria(self):
        event = WideEvent(seq=1, event="a", time=0.0, trace_id="t-1",
                          fields={"host": "cinder"})
        assert event.matches(event="a", host="cinder")
        assert not event.matches(event="a", host="keystone")
        assert not event.matches(event="b")
