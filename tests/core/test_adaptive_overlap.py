"""The adaptive overlap rule: a probe phase runs on the scheduler's pool
only while each of the provider's last ``WINDOW`` probe sends took at
least ``OVERLAP_AFTER`` of wall time."""

import sys
import threading

import pytest

from repro.config import (FleetSection, MonitorConfig,
                          build_fleet_from_config, build_from_config)
from repro.core import ProbeScheduler
from repro.core import provider as provider_module
from repro.core.scheduler import OVERLAP_AFTER, WINDOW
from repro.httpsim import Latency, Request
from repro.obs.clock import system_clock

SLOW = 2 * OVERLAP_AFTER
FAST = OVERLAP_AFTER / 10
URL = "http://cmonitor/cmonitor/volumes"


def fed(samples, width=4):
    scheduler = ProbeScheduler(width=width)
    for seconds in samples:
        scheduler.record(seconds)
    return scheduler


class TestWindow:
    def test_seven_slow_samples_stay_serial(self):
        assert not fed([SLOW] * (WINDOW - 1)).should_overlap()

    def test_eight_slow_samples_overlap(self):
        assert fed([SLOW] * WINDOW).should_overlap()

    def test_one_fast_sample_goes_back_to_serial(self):
        scheduler = fed([SLOW] * WINDOW + [FAST])
        assert not scheduler.should_overlap()
        # The fast sample must age out of the window before overlap
        # resumes.
        for _ in range(WINDOW - 1):
            scheduler.record(SLOW)
            assert not scheduler.should_overlap()
        scheduler.record(SLOW)
        assert scheduler.should_overlap()

    def test_threshold_is_inclusive(self):
        assert fed([OVERLAP_AFTER] * WINDOW).should_overlap()

    def test_width_one_never_overlaps(self):
        assert not fed([SLOW] * WINDOW, width=1).should_overlap()


class TestPhaseDecision:
    @pytest.fixture
    def deployment(self):
        cloud, monitor = build_from_config(MonitorConfig())
        yield cloud, monitor
        monitor.close()

    def _phase(self, cloud, monitor, samples, monkeypatch):
        built = []

        class CountingSingleFlight(provider_module.SingleFlight):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(provider_module, "SingleFlight",
                            CountingSingleFlight)
        for seconds in samples:
            monitor.scheduler.record(seconds)
        token = cloud.paper_tokens()["alice"]
        before = monitor.scheduler.dispatched_count
        bindings = monitor.provider.bindings(token)
        assert set(bindings) >= {"project", "quota_sets", "user"}
        return monitor.scheduler.dispatched_count - before, len(built)

    def test_default_monitor_schedules_with_width_four(self, deployment):
        _, monitor = deployment
        assert monitor.fanout == 4
        assert monitor.scheduler.width == 4

    def test_slow_window_overlaps_with_a_single_flight(self, deployment,
                                                       monkeypatch):
        dispatched, flights = self._phase(*deployment, [SLOW] * WINDOW,
                                          monkeypatch)
        assert dispatched > 0
        assert flights == 1

    def test_fast_window_stays_serial_on_a_plain_dict(self, deployment,
                                                      monkeypatch):
        dispatched, flights = self._phase(*deployment, [FAST] * WINDOW,
                                          monkeypatch)
        assert dispatched == 0
        assert flights == 0

    def test_fanout_one_times_nothing(self):
        cloud, monitor = build_from_config(MonitorConfig.from_dict({
            "config_version": 1, "monitor": {"fanout": 1}}))
        assert monitor.scheduler is None
        token = cloud.paper_tokens()["alice"]
        assert monitor.app.get(
            URL, headers={"X-Auth-Token": token}).status_code == 200
        assert monitor.provider.probe_count > 0


def run_clients(target, args_list, timeout):
    threads = [threading.Thread(target=target, args=args)
               for args in args_list]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestRacingWriters:
    def test_pool_threads_write_the_ring_while_phases_decide(self):
        # Three client threads drive one monitor behind a slow substrate:
        # one thread's phase decides while the others' pool threads write
        # the ring.  Every send must land in the ring exactly once, which
        # a lost update of the write position would break.
        cloud, monitor = build_from_config(MonitorConfig())
        for host in ("cinder", "keystone"):
            cloud.network.inject_fault(host, Latency(0.0015, system_clock))
        tokens = cloud.paper_tokens()
        statuses = []

        def client(token):
            for _ in range(10):
                statuses.append(monitor.app.get(
                    URL, headers={"X-Auth-Token": token}).status_code)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_clients(client, [(tokens[user],) for user in
                                 ("alice", "bob", "alice")], timeout=30)
        finally:
            sys.setswitchinterval(interval)
            monitor.close()
        scheduler = monitor.scheduler
        assert statuses == [200] * 30
        assert scheduler.dispatched_count > 0
        assert scheduler._next == monitor.provider.probe_count % WINDOW
        assert {verdict.verdict for verdict in monitor.log} == {"valid"}


class TestZeroLatencyStaysSerial:
    def test_read_fleet_shape_never_reaches_the_pool(self):
        # The read_fleet_cpu shape: a 2-shard fleet, two client threads,
        # 600 reads at zero latency.  GIL handoffs inflate single probes,
        # never eight in a row; if this flakes, the threshold is wrong.
        cloud, fleet = build_fleet_from_config(MonitorConfig(
            fleet=FleetSection(shards=2)))
        tokens = cloud.paper_tokens()
        admin = cloud.client(tokens["alice"])
        volumes = [admin.post("http://cinder/v3/myProject/volumes",
                              {"volume": {"name": f"seed-{n}"}}
                              ).json()["volume"]["id"] for n in range(3)]
        by_shard = {}
        for token in tokens.values():
            shard = fleet.shard_for(Request(
                "GET", URL, headers={"X-Auth-Token": token}))
            by_shard.setdefault(shard, token)
        assert len(by_shard) == 2

        def client(token):
            for n in range(300):
                target = (URL if n % 3 == 0
                          else f"{URL}/{volumes[n % len(volumes)]}")
                fleet.handle(Request("GET", target,
                                     headers={"X-Auth-Token": token}))

        try:
            run_clients(client, [(token,) for token in by_shard.values()],
                        timeout=60)
        finally:
            fleet.close()
        assert sum(fleet.dispatched) == 600
        for shard in fleet.shards:
            assert shard.provider.probe_count > 0
            assert shard.scheduler.dispatched_count == 0
