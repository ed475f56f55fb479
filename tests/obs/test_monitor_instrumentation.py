"""The instrumented Figure-2 pipeline: spans, metrics, and the route.

All timings run under a ManualClock with a fixed tick, so every duration
in these tests is an exact equality, not a tolerance check.
"""

import json
from dataclasses import replace

from repro.config import ObservabilitySection, build_from_config
from repro.validation import TestOracle, campaign_config

MONITOR = "http://cmonitor/cmonitor/volumes"

STAGES = ("pre_probe", "pre_eval", "snapshot", "forward",
          "post_probe", "post_eval")


def deterministic_setup(enforcing=False, tick=1e-4):
    cloud, monitor = build_from_config(replace(
        campaign_config(enforcing=enforcing),
        observability=ObservabilitySection(clock="manual", tick=tick)))
    tokens = cloud.paper_tokens()
    clients = {user: cloud.client(token) for user, token in tokens.items()}
    return cloud, monitor, clients


class TestSpans:
    def test_valid_request_covers_all_stages(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        trace = monitor.obs.tracer.finished[-1]
        assert [span.name for span in trace.spans] == list(STAGES)
        assert all(span.status == "ok" for span in trace.spans)
        assert trace.tags["verdict"] == "valid"

    def test_blocked_request_stops_after_pre_eval(self):
        cloud, monitor, clients = deterministic_setup(enforcing=True)
        response = clients["carol"].post(MONITOR, {"volume": {}})
        assert response.status_code == 412
        trace = monitor.obs.tracer.finished[-1]
        assert [span.name for span in trace.spans] == ["pre_probe",
                                                       "pre_eval"]
        assert trace.tags["verdict"] == "pre-blocked"

    def test_span_durations_deterministic_under_manual_clock(self):
        # A power-of-two tick keeps the clock arithmetic exact, so the
        # two requests produce bit-identical durations.
        cloud, monitor, clients = deterministic_setup(tick=0.25)
        clients["carol"].get(MONITOR)
        first = monitor.obs.tracer.finished[-1]
        durations = [span.duration for span in first.spans]
        clients["carol"].get(MONITOR)
        second = monitor.obs.tracer.finished[-1]
        assert [span.duration for span in second.spans] == durations
        assert all(duration > 0 for duration in durations)

    def test_forward_span_tags_cloud_status(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        trace = monitor.obs.tracer.finished[-1]
        assert trace.span_named("forward").tags["status"] == 202

    def test_correlation_id_joins_log_and_traces(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        for verdict in monitor.log:
            trace = monitor.obs.tracer.find(verdict.correlation_id)
            assert trace is not None
            assert trace.tags["verdict"] == verdict.verdict


class TestMetrics:
    def test_verdict_counters_match_log(self):
        cloud, monitor, clients = deterministic_setup()
        TestOracle(cloud, monitor).run()
        metrics = monitor.obs.metrics
        assert metrics.counter_value("monitor_requests_total") == \
            len(monitor.log)
        for verdict in {v.verdict for v in monitor.log}:
            expected = sum(1 for v in monitor.log if v.verdict == verdict)
            assert metrics.counter_value("monitor_verdicts_total",
                                         verdict=verdict) == expected

    def test_stage_histograms_for_every_stage(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        metrics = monitor.obs.metrics
        for stage in STAGES:
            histogram = metrics.get("monitor_stage_seconds", stage=stage)
            assert histogram is not None and histogram.count == 1

    def test_probe_counter_matches_provider(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        assert monitor.obs.metrics.counter_value(
            "monitor_probe_requests_total") == monitor.provider.probe_count

    def test_ocl_eval_metrics_recorded(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        metrics = monitor.obs.metrics
        for phase in ("pre", "snapshot", "post"):
            histogram = metrics.get("ocl_eval_seconds", phase=phase)
            assert histogram is not None and histogram.count == 1
            assert metrics.counter_value("ocl_evaluations_total",
                                         phase=phase) == 1

    def test_snapshot_bytes_counter_matches_log(self):
        cloud, monitor, clients = deterministic_setup()
        TestOracle(cloud, monitor).run()
        expected = sum(v.snapshot_bytes for v in monitor.log)
        assert monitor.obs.metrics.counter_value(
            "monitor_snapshot_bytes_total") == expected

    def test_network_counters_by_host(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        metrics = monitor.obs.metrics
        assert metrics.counter_value("network_requests_total",
                                     host="cmonitor") == 1
        assert metrics.counter_value("network_requests_total",
                                     host="cinder") >= 1


class TestMetricsRoute:
    def test_prometheus_exposition(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        response = monitor.app.get("/-/metrics")
        assert response.status_code == 200
        assert "text/plain" in response.headers.get("Content-Type")
        body = response.text
        assert "monitor_requests_total 1" in body
        assert 'monitor_stage_seconds_bucket{stage="forward"' in body
        assert 'monitor_verdicts_total{verdict="valid"} 1' in body

    def test_json_format(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        document = monitor.app.get("/-/metrics?format=json").json()
        names = {family["name"] for family in document["metrics"]}
        assert "monitor_stage_seconds" in names
        assert document["traces"][-1]["tags"]["verdict"] == "valid"
        json.dumps(document)

    def test_route_rejects_write_methods(self):
        cloud, monitor, clients = deterministic_setup()
        assert monitor.app.post("/-/metrics", {}).status_code == 405

    def test_deterministic_exposition_across_sessions(self):
        def run():
            cloud, monitor, clients = deterministic_setup()
            TestOracle(cloud, monitor).run()
            return monitor.app.get("/-/metrics").text

        assert run() == run()


class TestWideEvents:
    def test_one_wide_event_per_monitored_request(self):
        cloud, monitor, clients = deterministic_setup()
        TestOracle(cloud, monitor).run()
        events = monitor.obs.events.filter(event="monitor_request")
        assert len(events) == len(monitor.log)
        for verdict, event in zip(monitor.log, events):
            assert event.trace_id == verdict.correlation_id
            assert event.get("verdict") == verdict.verdict
            assert event.get("operation") == str(verdict.trigger)

    def test_wide_event_carries_the_full_request_story(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        (event,) = monitor.obs.events.filter(event="monitor_request")
        assert event.get("forwarded") is True
        assert event.get("response_status") == 202
        assert event.get("probes") > 0
        assert event.get("retries") == 0
        assert set(event.get("stage_seconds")) == set(STAGES)
        assert all(value > 0
                   for value in event.get("stage_seconds").values())
        assert event.get("duration") > 0
        assert event.get("security_requirements")

    def test_event_stage_seconds_match_the_trace(self):
        cloud, monitor, clients = deterministic_setup(tick=0.25)
        clients["carol"].get(MONITOR)
        (event,) = monitor.obs.events.filter(event="monitor_request")
        trace = monitor.obs.tracer.find(event.trace_id)
        for span in trace.spans:
            assert event.get("stage_seconds")[span.name] == span.duration

    def test_correlate_events_joins_audit_log(self):
        from repro.core.auditlog import correlate_events

        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        pairs = correlate_events(monitor.log, monitor.obs.events)
        assert len(pairs) == 2
        for verdict, event in pairs:
            assert event is not None
            assert event.get("verdict") == verdict.verdict


class TestDiagnosticRoutes:
    def test_health_route_reports_ok(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        response = monitor.app.get("/-/health")
        assert response.status_code == 200
        document = response.json()
        assert document["overall"] == "ok"
        assert {entry["name"] for entry in document["slos"]} \
            == {"verdict-availability", "stage-latency",
                "indeterminate-rate", "shed-rate"}

    def test_events_route_filters(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        document = monitor.app.get(
            "/-/events?event=monitor_request&verdict=valid").json()
        assert all(event["verdict"] == "valid"
                   for event in document["events"])
        limited = monitor.app.get("/-/events?limit=1").json()
        assert len(limited["events"]) == 1
        assert monitor.app.get("/-/events?limit=bogus").status_code == 400

    def test_events_route_rejects_a_negative_limit(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        response = monitor.app.get("/-/events?limit=-1")
        assert response.status_code == 400
        assert "non-negative" in response.json()["error"]

    def test_trace_route_resolves_retained_traces(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        trace_id = monitor.log[-1].correlation_id
        document = monitor.app.get(f"/-/traces/{trace_id}").json()
        assert document["trace_id"] == trace_id
        assert document["critical_path"]["dominant"] in STAGES
        assert monitor.app.get("/-/traces/t-999999").status_code == 404

    def test_trace_index_reports_attribution_and_exemplars(self):
        cloud, monitor, clients = deterministic_setup()
        TestOracle(cloud, monitor).run()
        document = monitor.app.get("/-/traces").json()
        assert document["retained"] == len(monitor.log)
        assert document["attribution"]
        assert document["exemplars"]


class TestExemplarsEndToEnd:
    def test_stage_histograms_export_resolvable_exemplars(self):
        cloud, monitor, clients = deterministic_setup()
        TestOracle(cloud, monitor).run()
        exposition = monitor.app.get("/-/metrics").text
        assert 'monitor_stage_seconds_bucket' in exposition
        assert '# {trace_id="t-' in exposition
        # Every exemplar the analytics join reports as resolved points
        # at a trace the ring still retains.
        from repro.obs import resolve_exemplars

        entries = resolve_exemplars(monitor.obs.metrics,
                                    monitor.obs.tracer)
        stage_entries = [entry for entry in entries
                         if entry["family"] == "monitor_stage_seconds"]
        assert stage_entries
        assert all(entry["resolved"] for entry in stage_entries)
        for entry in stage_entries:
            trace_id = entry["exemplar"]["labels"]["trace_id"]
            assert monitor.obs.tracer.find(trace_id) is not None

    def test_duration_histogram_exemplar_names_latest_request(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        (series,) = monitor.obs.metrics.series("monitor_request_seconds")
        _, histogram = series
        (exemplar,) = histogram.exemplars.values()
        assert exemplar.labels["trace_id"] == \
            monitor.log[-1].correlation_id
