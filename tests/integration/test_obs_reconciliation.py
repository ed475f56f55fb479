"""Metrics must reconcile exactly with the monitor's verdict log.

The observability subsystem is only trustworthy if its counters are an
exact projection of the audit log: same request total, same per-verdict
breakdown, same violation and blocked counts, byte-for-byte the same
snapshot volume.  A randomized (but seeded) workload exercises the whole
Figure-2 pipeline and then the two sides of the ledger are compared.

With head/tail sampling enabled the ledger gains one more column --
``monitor_traces_sampled_total`` -- and the reconciliation tightens:
decisions must equal verdict rows, dropped traces must leave the ring
and shed their wide event, and a sharded fleet must agree with the
single-shard run everywhere the decision is a pure function of the
trace id.  Only the ``forced`` class is shard-local (each shard's own
exemplar novelty and alarm transitions mark traces), so per-id
decisions may differ between the two runs only when one side forced.
"""

import collections
from dataclasses import replace

import pytest

from repro.config import ObservabilitySection, build_from_config
from repro.obs import SAMPLED_COUNTER
from repro.validation import campaign_config
from repro.workloads import WorkloadRunner, make_workload

SEEDS = (7, 42, 1337)


def run_workload(seed, count=40, enforcing=False):
    cloud, monitor = build_from_config(replace(
        campaign_config(enforcing=enforcing),
        observability=ObservabilitySection(clock="manual", tick=1e-4)))
    WorkloadRunner(cloud).execute(make_workload(count, seed=seed),
                                  monitored=True)
    return monitor


class TestReconciliation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_request_total_matches_log_length(self, seed):
        monitor = run_workload(seed)
        assert monitor.obs.metrics.counter_value(
            "monitor_requests_total") == len(monitor.log)
        assert len(monitor.log) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_verdict_counters_match_log(self, seed):
        monitor = run_workload(seed)
        from_log = collections.Counter(v.verdict for v in monitor.log)
        metrics = monitor.obs.metrics
        from_metrics = {
            dict(labels)["verdict"]: counter.value
            for labels, counter in metrics.series("monitor_verdicts_total")
        }
        assert from_metrics == dict(from_log)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_violation_and_blocked_counters(self, seed):
        monitor = run_workload(seed, enforcing=True)
        metrics = monitor.obs.metrics
        assert metrics.counter_value("monitor_violations_total") == \
            len(monitor.violations())
        blocked = sum(1 for v in monitor.log if v.verdict == "pre-blocked")
        assert metrics.counter_value("monitor_blocked_total") == blocked

    @pytest.mark.parametrize("seed", SEEDS)
    def test_snapshot_bytes_reconcile(self, seed):
        monitor = run_workload(seed)
        assert monitor.obs.metrics.counter_value(
            "monitor_snapshot_bytes_total") == \
            sum(v.snapshot_bytes for v in monitor.log)

    def test_stage_histogram_counts_bounded_by_requests(self):
        monitor = run_workload(seed=42)
        total = len(monitor.log)
        for labels, histogram in monitor.obs.metrics.series(
                "monitor_stage_seconds"):
            stage = dict(labels)["stage"]
            assert 0 < histogram.count <= total, stage

    def test_every_verdict_has_a_finished_trace(self):
        monitor = run_workload(seed=7, count=20)
        # Ring buffer default (256) comfortably holds this workload.
        for verdict in monitor.log:
            trace = monitor.obs.tracer.find(verdict.correlation_id)
            assert trace is not None
            assert trace.tags["verdict"] == verdict.verdict

    def test_same_seed_same_counters(self):
        def ledger(monitor):
            metrics = monitor.obs.metrics
            return sorted(
                (labels, counter.value)
                for labels, counter in
                metrics.series("monitor_verdicts_total"))

        assert ledger(run_workload(seed=42)) == ledger(run_workload(seed=42))


def run_sampled(shards, count=24, rate=0.25, seed=3,
                workload_seed=7):
    """One sampled deployment (monitor or fleet) after a seeded replay."""
    from repro.config import (CloudSection, FleetSection, MonitorConfig,
                              MonitorSection, ObservabilitySection,
                              SamplingSection, build_fleet_from_config,
                              build_from_config)
    from repro.validation import overhead_trace

    config = MonitorConfig(
        cloud=CloudSection(volume_quota=5),
        monitor=MonitorSection(enforcing=True),
        fleet=FleetSection(shards=shards),
        observability=ObservabilitySection(
            clock="manual", tick=1e-4,
            sampling=SamplingSection(enabled=True, rate=rate, seed=seed)))
    if shards == 1:
        cloud, deployment = build_from_config(config)
    else:
        cloud, deployment = build_fleet_from_config(config)
    clients = {user: cloud.client(token)
               for user, token in cloud.paper_tokens().items()}
    trace = overhead_trace(count, seed=workload_seed)
    try:
        clock = (deployment.shards[0].obs.clock
                 if shards > 1 else deployment.obs.clock)
        trace.replay(clients, "cmonitor", clock=clock)
    finally:
        deployment.close()
    return deployment


def sampled_ledger(deployment, shards):
    """The sampling columns of the ledger, fleet and single alike."""
    if shards > 1:
        metrics = deployment.merged_metrics()
        monitors = list(deployment.shards)
    else:
        metrics = deployment.obs.metrics
        monitors = [deployment]
    decisions = {
        dict(labels)["decision"]: int(counter.value)
        for labels, counter in metrics.series(SAMPLED_COUNTER)}
    retained = sorted(trace.trace_id for monitor in monitors
                      for trace in monitor.obs.tracer.finished)
    begun = sum(monitor.obs.tracer.started_count for monitor in monitors)
    return decisions, retained, begun


def decisions_by_id(deployment, shards):
    """Per-trace decision, reconstructed from ring and audit log."""
    monitors = list(deployment.shards) if shards > 1 else [deployment]
    retained = {}
    for monitor in monitors:
        for trace in monitor.obs.tracer.finished:
            retained[trace.trace_id] = trace.tags["sampling_decision"]
    return {verdict.correlation_id:
            retained.get(verdict.correlation_id, "dropped")
            for verdict in deployment.log}


class TestSampledReconciliation:
    def test_decisions_reconcile_with_the_audit_log(self):
        deployment = run_sampled(shards=1)
        decisions, retained, begun = sampled_ledger(deployment, shards=1)
        assert sum(decisions.values()) == begun == len(deployment.log)
        # Dropped traces left the ring; kept and forced ones stayed.
        assert len(retained) \
            == decisions.get("kept", 0) + decisions.get("forced", 0)

    def test_every_non_valid_verdict_keeps_its_trace(self):
        deployment = run_sampled(shards=1)
        non_valid = [v for v in deployment.log if v.verdict != "valid"]
        assert non_valid, "the sampled workload must exercise the tail"
        for verdict in non_valid:
            trace = deployment.obs.tracer.find(verdict.correlation_id)
            assert trace is not None
            assert trace.tags["sampling_decision"] == "forced"

    def test_dropped_traces_shed_their_wide_event(self):
        deployment = run_sampled(shards=1)
        decisions, _retained, _begun = sampled_ledger(deployment, shards=1)
        request_events = deployment.obs.events.to_dicts(
            event="monitor_request")
        assert len(request_events) \
            == decisions.get("kept", 0) + decisions.get("forced", 0)
        assert deployment.sampler.events_shed \
            == decisions.get("dropped", 0)

    @pytest.mark.parametrize("rate", [0.0, 0.25, 1.0])
    def test_fleet_decisions_agree_with_single_shard_up_to_forcing(
            self, rate):
        # The shards share one trace-id allocator and the head coin is a
        # pure function of (seed, id), so fleet and single-shard runs
        # decide every trace identically -- except that forcing marks
        # (exemplar novelty, alarm transitions) live in shard-local
        # state, so the only permitted disagreement is one side forcing
        # a trace the other kept or dropped.
        single = run_sampled(shards=1, rate=rate)
        fleet = run_sampled(shards=4, rate=rate)
        by_id_single = decisions_by_id(single, shards=1)
        by_id_fleet = decisions_by_id(fleet, shards=4)
        assert set(by_id_single) == set(by_id_fleet)
        for trace_id, decision in by_id_single.items():
            other = by_id_fleet[trace_id]
            assert decision == other or "forced" in (decision, other), \
                f"{trace_id}: single={decision} fleet={other}"
        # Both ledgers reconcile against their own audit logs.
        for deployment, shards in ((single, 1), (fleet, 4)):
            decisions, retained, begun = sampled_ledger(deployment, shards)
            assert sum(decisions.values()) == begun == len(deployment.log)
            assert len(retained) == decisions.get("kept", 0) \
                + decisions.get("forced", 0)

    def test_same_seed_fleet_runs_produce_identical_ledgers(self):
        first = run_sampled(shards=4)
        second = run_sampled(shards=4)
        assert sampled_ledger(first, shards=4) \
            == sampled_ledger(second, shards=4)
        assert decisions_by_id(first, shards=4) \
            == decisions_by_id(second, shards=4)
