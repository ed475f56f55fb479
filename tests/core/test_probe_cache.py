"""Tests for the cross-request probe cache and its monitor wiring.

The gate throughout is *parity*: a cached monitor must emit exactly the
verdicts an uncached one does, only with fewer probes.
"""

import threading

import pytest

from repro.config import build_from_config
from repro.core import (
    MonitorFleet,
    MonitorOptions,
    ProbeCache,
)
from repro.errors import MonitorError
from repro.validation import (
    TestOracle,
    campaign_config,
    chaos_config,
    first_divergence,
    probes_per_request,
    recoverable_program,
    run_leg,
    standard_battery,
)
from repro.workloads import make_workload

#: The chaos workload the cache-parity legs replay.
WORKLOAD = make_workload(40, seed=7)


class TestProbeCacheUnit:
    def test_miss_then_hit(self):
        cache = ProbeCache()
        hit, value = cache.get("project", None, "tok-a")
        assert hit is False and value is None
        cache.put("project", None, "tok-a", {"n": 1})
        hit, value = cache.get("project", None, "tok-a")
        assert hit is True and value == {"n": 1}
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                 "invalidations": 0}

    def test_tokens_never_share_entries(self):
        cache = ProbeCache()
        cache.put("project", None, "alice", {"who": "alice"})
        hit, _ = cache.get("project", None, "bob")
        assert hit is False

    def test_item_scoped_entries_key_on_resource_id(self):
        cache = ProbeCache()
        cache.put("volume", "v1", "tok", {"id": "v1"})
        assert cache.get("volume", "v2", "tok")[0] is False
        assert cache.get("volume", "v1", "tok") == (True, {"id": "v1"})

    def test_read_returns_an_isolated_copy(self):
        cache = ProbeCache()
        cache.put("project", None, "tok", {"volumes": [1, 2]})
        _, value = cache.get("project", None, "tok")
        value["volumes"].append(3)
        assert cache.get("project", None, "tok")[1] == {"volumes": [1, 2]}

    def test_store_copies_the_value(self):
        cache = ProbeCache()
        original = {"volumes": [1]}
        cache.put("project", None, "tok", original)
        original["volumes"].append(2)
        assert cache.get("project", None, "tok")[1] == {"volumes": [1]}

    def test_invalidate_crosses_tokens_and_ids(self):
        cache = ProbeCache()
        cache.put("project", None, "alice", {})
        cache.put("project", None, "bob", {})
        cache.put("volume", "v1", "alice", {})
        cache.put("user", None, "alice", {})
        evicted = cache.invalidate(["project", "volume"])
        assert evicted == 3
        assert len(cache) == 1
        assert cache.get("user", None, "alice")[0] is True
        assert cache.stats()["invalidations"] == 3

    def test_clear_counts_as_invalidation(self):
        cache = ProbeCache()
        cache.put("project", None, "tok", {})
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1


def _verdict_rows(monitor):
    return [(v.trigger, v.verdict, v.pre_holds, v.post_holds,
             v.response_status) for v in monitor.log]


class TestMonitorWiring:
    def test_cached_monitor_matches_uncached_verdicts(self):
        battery = standard_battery()
        cloud_a, plain = build_from_config(campaign_config())
        TestOracle(cloud_a, plain).run(battery)
        cloud_b, cached = build_from_config(campaign_config(probe_cache=True))
        TestOracle(cloud_b, cached).run(battery)
        assert _verdict_rows(cached) == _verdict_rows(plain)
        assert cached.provider.probe_count < plain.provider.probe_count
        stats = cached.probe_cache.stats()
        assert stats["hits"] > 0
        # The battery mutates (POST/DELETE), so invalidation must fire.
        assert stats["invalidations"] > 0

    def test_hits_metric_family_is_exported(self):
        cloud, monitor = build_from_config(campaign_config(probe_cache=True))
        TestOracle(cloud, monitor).run(standard_battery())
        total = monitor.obs.metrics.total("monitor_probe_cache_hits_total")
        assert total == monitor.probe_cache.stats()["hits"] > 0

    def test_mutation_invalidates_dirty_roots(self):
        cloud, monitor = build_from_config(campaign_config(probe_cache=True))
        oracle = TestOracle(cloud, monitor)
        battery = standard_battery()
        # Find the first mutation step; everything before is GET-only.
        first_mutation = next(i for i, step in enumerate(battery)
                              if step.method != "GET")
        oracle.run(battery[:first_mutation])
        populated = len(monitor.probe_cache)
        before = monitor.probe_cache.stats()["invalidations"]
        oracle.run(battery[first_mutation:first_mutation + 1])
        after = monitor.probe_cache.stats()["invalidations"]
        if populated:
            assert after > before

    def test_probe_rate_drops_under_budget(self):
        workload = make_workload(60, seed=42)
        baseline = run_leg(campaign_config(), workload)
        cached = run_leg(campaign_config(probe_cache=True), workload)
        assert probes_per_request(cached) < probes_per_request(baseline)
        assert probes_per_request(cached) < 7.20
        assert cached.monitors[0].probe_cache.stats()["hits"] > 0

    def test_fleet_shards_own_their_caches(self):
        from repro.cloud import PrivateCloud

        cloud = PrivateCloud.paper_setup()
        fleet = MonitorFleet.for_service(
            "cinder", cloud.network, "myProject", shards=2,
            options=MonitorOptions(probe_cache=True))
        caches = [m.probe_cache for m in fleet.shards]
        assert all(c is not None for c in caches)
        assert caches[0] is not caches[1]
        assert all(entry["probe_cache"] is not None
                   for entry in fleet.stats()["per_shard"])
        fleet.close()
        # An instance in the options would be handed to every shard, so
        # the options refuse anything but the on/off switch.
        with pytest.raises(MonitorError, match="probe_cache"):
            MonitorFleet.for_service(
                "cinder", cloud.network, "myProject", shards=2,
                options=MonitorOptions(probe_cache=ProbeCache()))

    def test_cache_off_by_default(self):
        cloud, monitor = build_from_config(campaign_config())
        assert monitor.probe_cache is None
        assert monitor.provider.probe_cache is None


class TestChaosParity:
    def test_parity_on_clean_substrate(self):
        uncached = run_leg(chaos_config(), WORKLOAD)
        cached = run_leg(chaos_config(probe_cache=True), WORKLOAD)
        assert cached.rows == uncached.rows
        assert first_divergence(uncached, cached) is None

    def test_parity_under_recoverable_faults(self):
        faults = (recoverable_program,)
        uncached = run_leg(chaos_config(), WORKLOAD, faults)
        cached = run_leg(chaos_config(probe_cache=True), WORKLOAD, faults)
        assert cached.rows == uncached.rows

    def test_cached_fleet_matches_uncached_serial(self):
        """Shards partition traffic, not cloud state: one shard's
        forwarded mutation must invalidate every shard's cache."""
        workload = make_workload(30, seed=7)
        serial = run_leg(chaos_config(), workload)
        fleet = run_leg(chaos_config(shards=4, probe_cache=True), workload)
        assert serial.rows == fleet.rows


class TestProbePlanMemo:
    def _contract(self):
        from repro.core.behavior_model import cinder_behavior_model
        from repro.core.contracts import ContractGenerator
        from repro.core.resource_model import cinder_resource_model

        generator = ContractGenerator(cinder_behavior_model(),
                                      cinder_resource_model())
        return next(iter(generator.all_contracts().values()))

    def test_probe_plan_memo_is_consistent_across_threads(self):
        contract = self._contract()
        plans = []

        def plan():
            plans.append(contract.probe_plan())

        threads = [threading.Thread(target=plan) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(plan is plans[0] for plan in plans)
