"""Typed monitor options: the one value that shapes a monitor or fleet,
with ``enforcing=`` / ``probe_planning=`` as the only keyword overrides."""

import warnings

import pytest

from repro.cloud import PrivateCloud
from repro.core import (
    CloudMonitor,
    MonitorFleet,
    MonitorOptions,
    ProbeCache,
    ResilienceOptions,
    RetryPolicy,
    resolve_options,
)
from repro.core.resilience import ResilientTransport
from repro.errors import MonitorError


class TestResilienceOptions:
    def test_defaults_mirror_retry_policy(self):
        built, stock = ResilienceOptions().retry_policy(), RetryPolicy()
        for field in ("max_attempts", "base_delay", "multiplier",
                      "max_delay", "jitter", "seed"):
            assert getattr(built, field) == getattr(stock, field)

    def test_build_transport(self):
        cloud = PrivateCloud.paper_setup()
        transport = ResilienceOptions(seed=11).build_transport(
            cloud.network)
        assert isinstance(transport, ResilientTransport)
        assert transport.policy.seed == 11


class TestMonitorOptions:
    def test_defaults(self):
        options = MonitorOptions()
        assert options.enforcing is True
        assert options.probe_planning is True
        assert options.fanout == 4
        assert options.probe_cache is False
        assert options.resilience is None

    def test_fanout_floor_enforced(self):
        with pytest.raises(MonitorError):
            MonitorOptions(fanout=0)

    def test_probe_cache_is_a_switch(self):
        # Every monitor builds its own ProbeCache, so an instance (which
        # a fleet would hand to every shard) is refused.
        with pytest.raises(MonitorError, match="probe_cache"):
            MonitorOptions(probe_cache=ProbeCache())


class TestResolveOptions:
    def test_no_arguments_is_defaults_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_options() == MonitorOptions()

    def test_first_class_keywords_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = resolve_options(enforcing=False,
                                       probe_planning=False)
        assert resolved.enforcing is False
        assert resolved.probe_planning is False

    def test_keywords_override_the_base_options(self):
        base = MonitorOptions(enforcing=False, fanout=2)
        resolved = resolve_options(base, probe_planning=False)
        assert resolved.probe_planning is False
        assert resolved.enforcing is False  # untouched fields survive
        assert resolved.fanout == 2


class TestConstructorsTakeOptions:
    """The constructors take ``options=`` and warn about nothing."""

    def test_monitor_accepts_options_silently(self):
        cloud = PrivateCloud.paper_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            monitor = CloudMonitor.for_service(
                "cinder", cloud.network, "myProject",
                options=MonitorOptions(enforcing=False, fanout=2))
        assert monitor.fanout == 2
        monitor.close()

    def test_fleet_options_propagate_to_every_shard(self):
        cloud = PrivateCloud.paper_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fleet = MonitorFleet.for_service(
                "cinder", cloud.network, "myProject", shards=3,
                options=MonitorOptions(enforcing=False, fanout=2))
        assert [shard.fanout for shard in fleet.shards] == [2, 2, 2]
        assert all(not shard.enforcing for shard in fleet.shards)
        fleet.close()
