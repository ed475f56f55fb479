"""Building deployments from config alone.

The acceptance property for the config path: a YAML-shaped document
builds exactly the deployment the in-code configs of
:mod:`repro.validation` describe -- the same seeded workload produces
the same verdict rows through a config-built monitor and a config-built
4-shard fleet, on a clean leg and under recoverable faults.  The
``fanout`` gate in ``scripts/gates.py`` pins the absolute bytes against
the recorded baseline; these tests pin the equivalence between the two
ways of writing a config down.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.config import (
    MonitorConfig,
    ObservabilitySection,
    build_alarm_rules,
    build_clock,
    build_from_config,
    build_selector,
    build_slos,
    monitor_options,
    resilience_options,
)
from repro.core import CloudMonitor, MonitorFleet
from repro.core.auditlog import verdict_to_json
from repro.errors import ConfigError
from repro.obs import ManualClock
from repro.httpsim import Request
from repro.obs.slo import BucketCount, CounterTotal, Linear, ObservationCount
from repro.validation import campaign_config, chaos_config
from repro.validation.chaos import CHAOS_HOSTS, recoverable_program
from repro.workloads import WorkloadRunner, make_workload

COUNT, SEED = 16, 7


def chaos_document(shards=1):
    return MonitorConfig.from_dict({
        "config_version": 1,
        "monitor": {"enforcing": False},
        "observability": {"clock": "manual"},
        "resilience": {"enabled": True, "max_attempts": 3,
                       "base_delay": 0.05, "seed": 11},
        "fleet": {"shards": shards},
    })


def run_rows(cloud, deployment, faulted=False):
    if faulted:
        for host in CHAOS_HOSTS:
            cloud.network.inject_fault(host, recoverable_program())
    monitored = getattr(deployment, "shards", None) is None
    runner = (WorkloadRunner(cloud, deployment) if monitored
              else WorkloadRunner(cloud))
    runner.execute(make_workload(COUNT, seed=SEED), monitored=True)
    rows = [verdict_to_json(verdict) for verdict in deployment.log]
    deployment.close()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class TestDocumentParity:
    """Hand-written documents match the in-code validation configs."""

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "faulted"])
    def test_monitor_document_matches_chaos_config(self, faulted):
        expected = run_rows(*build_from_config(chaos_config()),
                            faulted=faulted)
        document = run_rows(*build_from_config(chaos_document()),
                            faulted=faulted)
        assert document == expected

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "faulted"])
    def test_fleet_document_matches_chaos_config(self, faulted):
        expected = run_rows(*build_from_config(chaos_config(shards=4)),
                            faulted=faulted)
        document = run_rows(*build_from_config(chaos_document(shards=4)),
                            faulted=faulted)
        assert document == expected

    def test_fleet_and_single_agree(self):
        single = run_rows(*build_from_config(chaos_document()))
        fleet = run_rows(*build_from_config(chaos_document(shards=4)))
        assert fleet == single

    def test_audit_document_matches_campaign_config(self):
        audit = MonitorConfig.from_dict({
            "config_version": 1, "monitor": {"enforcing": False},
            "observability": {"clock": "manual"}})
        in_code = replace(campaign_config(),
                          observability=ObservabilitySection(clock="manual"))
        for faulted in (False, True):
            assert run_rows(*build_from_config(audit), faulted=faulted) \
                == run_rows(*build_from_config(in_code), faulted=faulted)


class TestBuildPieces:
    def test_build_clock(self):
        assert build_clock(MonitorConfig()) is None
        config = MonitorConfig.from_dict({
            "config_version": 1,
            "observability": {"clock": "manual", "start": 5.0,
                              "tick": 0.25}})
        clock = build_clock(config)
        assert isinstance(clock, ManualClock)
        assert clock() == 5.0   # reads return, then advance by tick
        assert clock() == 5.25

    def test_resilience_options_only_when_enabled(self):
        assert resilience_options(MonitorConfig()) is None
        config = MonitorConfig.from_dict({
            "config_version": 1,
            "resilience": {"enabled": True, "seed": 11}})
        options = resilience_options(config)
        assert options is not None
        assert options.retry_policy().seed == 11

    def test_monitor_options_fold_resilience(self):
        config = MonitorConfig.from_dict({
            "config_version": 1,
            "monitor": {"fanout": 2, "probe_cache": True},
            "resilience": {"enabled": True}})
        options = monitor_options(config)
        assert options.fanout == 2
        assert options.probe_cache is True
        assert options.resilience is not None

    def test_build_selector_kinds(self):
        assert isinstance(build_selector(
            {"kind": "counter", "name": "n"}), CounterTotal)
        assert isinstance(build_selector(
            {"kind": "observations", "name": "n"}), ObservationCount)
        assert isinstance(build_selector(
            {"kind": "bucket", "name": "n", "le": 0.1}), BucketCount)
        linear = build_selector({"kind": "linear", "terms": [
            {"coef": 2.0, "selector": {"kind": "counter", "name": "n"}}]})
        assert isinstance(linear, Linear)

    def test_build_lists_default_to_none(self):
        config = MonitorConfig()
        assert build_slos(config) is None
        assert build_alarm_rules(config) is None


class TestBuildFromConfig:
    def test_returns_monitor_and_registers_it(self):
        cloud, monitor = build_from_config(MonitorConfig())
        assert isinstance(monitor, CloudMonitor)
        response = cloud.network.send(
            Request("GET", "http://cmonitor/-/health"))
        assert response.status_code in (200, 503)
        monitor.close()

    def test_register_false_skips_registration(self):
        cloud, monitor = build_from_config(MonitorConfig(), register=False)
        response = cloud.network.send(
            Request("GET", "http://cmonitor/-/health"))
        assert response.status_code == 502  # host never registered
        monitor.close()

    def test_shards_build_a_fleet(self):
        cloud, fleet = build_from_config(chaos_document(shards=4))
        assert isinstance(fleet, MonitorFleet)
        assert len(fleet.shards) == 4
        fleet.close()

    def test_invalid_config_rejected(self):
        config = MonitorConfig.from_dict({
            "config_version": 1, "scenario": {"name": "swift"}})
        with pytest.raises(ConfigError):
            build_from_config(config)

    def test_custom_alarms_and_slos_applied(self):
        config = MonitorConfig.from_dict({
            "config_version": 1,
            "slos": [{"name": "availability", "objective": 0.99,
                      "good": {"kind": "counter",
                               "name": "monitor_requests_total"},
                      "total": {"kind": "counter",
                                "name": "monitor_requests_total"}}],
            "alarms": [{"name": "page", "slo": "availability"}],
            "sinks": [{"kind": "memory"}],
        })
        cloud, monitor = build_from_config(config)
        assert [slo.name for slo in monitor.slos.slos] == ["availability"]
        assert [rule.name for rule in monitor.alarms.rules] == ["page"]
        assert len(monitor.alarms.sinks) == 1
        monitor.close()

    def test_custom_alarms_against_default_catalog(self):
        config = MonitorConfig.from_dict({
            "config_version": 1,
            "alarms": [{"name": "page", "slo": "verdict-availability",
                        "critical_breaches": 2, "clear_after": 3}]})
        cloud, monitor = build_from_config(config)
        (rule,) = monitor.alarms.rules
        assert rule.name == "page"
        assert rule.clear_after == 3
        monitor.close()
