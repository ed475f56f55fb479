"""Tests for composing scenario monitors into one deployment."""

import pytest

from repro.cloud import PrivateCloud
from repro.core import CloudMonitor, CompositeMonitor
from repro.core.nova_scenario import monitor_for_nova
from repro.errors import MonitorError


@pytest.fixture()
def setup():
    cloud = PrivateCloud.paper_setup()
    tokens = cloud.paper_tokens()
    cinder_monitor = CloudMonitor.for_service("cinder", cloud.network,
                                              "myProject", enforcing=True)
    nova_monitor = monitor_for_nova(cloud.network, "myProject",
                                    enforcing=True)
    composite = CompositeMonitor([cinder_monitor, nova_monitor])
    cloud.network.register("monitor", composite.app)
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, composite, cinder_monitor, nova_monitor, clients


class TestDispatch:
    def test_routes_to_cinder_scenario(self, setup):
        cloud, composite, cinder_monitor, nova_monitor, clients = setup
        response = clients["bob"].post("http://monitor/cmonitor/volumes",
                                       {"volume": {"name": "v"}})
        assert response.status_code == 202
        assert len(cinder_monitor.log) == 1
        assert nova_monitor.log == []

    def test_routes_to_nova_scenario(self, setup):
        cloud, composite, cinder_monitor, nova_monitor, clients = setup
        response = clients["bob"].post("http://monitor/smonitor/servers",
                                       {"server": {"name": "s"}})
        assert response.status_code == 202
        assert len(nova_monitor.log) == 1
        assert cinder_monitor.log == []

    def test_unknown_mount_is_404(self, setup):
        cloud, composite, _, _, clients = setup
        response = clients["bob"].get("http://monitor/xmonitor/things")
        assert response.status_code == 404

    def test_item_routes_dispatch(self, setup):
        cloud, composite, _, _, clients = setup
        vid = clients["bob"].post("http://monitor/cmonitor/volumes",
                                  {"volume": {}}).json()["volume"]["id"]
        response = clients["carol"].get(
            f"http://monitor/cmonitor/volumes/{vid}")
        assert response.status_code == 200


class TestMergedViews:
    def test_merged_log(self, setup):
        cloud, composite, _, _, clients = setup
        clients["bob"].post("http://monitor/cmonitor/volumes",
                            {"volume": {}})
        clients["bob"].post("http://monitor/smonitor/servers",
                            {"server": {}})
        operations = {str(verdict.trigger) for verdict in composite.log}
        assert operations == {"POST(volumes)", "POST(servers)"}

    def test_merged_violations(self, setup):
        cloud, composite, _, _, clients = setup
        clients["carol"].post("http://monitor/cmonitor/volumes",
                              {"volume": {}})  # 412 blocked, not violation
        assert composite.violations() == []

    def test_aggregate_coverage_spans_scenarios(self, setup):
        cloud, composite, _, _, clients = setup
        clients["bob"].post("http://monitor/cmonitor/volumes",
                            {"volume": {}})
        clients["carol"].get("http://monitor/smonitor/servers")
        coverage = composite.coverage()
        assert "1.3" in coverage.covered_ids()   # cinder POST
        assert "2.1" in coverage.covered_ids()   # nova GET
        assert "2.3" in coverage.uncovered_ids()

    def test_clear_logs(self, setup):
        cloud, composite, cinder_monitor, nova_monitor, clients = setup
        clients["bob"].post("http://monitor/cmonitor/volumes",
                            {"volume": {}})
        composite.clear_logs()
        assert composite.log == []
        assert cinder_monitor.log == []


class TestThreeScenarioDeployment:
    def test_cinder_nova_keystone_behind_one_endpoint(self):
        from repro.core.keystone_scenario import monitor_for_keystone

        cloud = PrivateCloud.paper_setup()
        tokens = cloud.paper_tokens()
        composite = CompositeMonitor([
            CloudMonitor.for_service("cinder", cloud.network, "myProject",
                                     enforcing=True),
            monitor_for_nova(cloud.network, "myProject", enforcing=True),
            monitor_for_keystone(cloud.network, "myProject",
                                 enforcing=True),
        ])
        cloud.network.register("monitor", composite.app)
        bob = cloud.client(tokens["bob"])
        alice = cloud.client(tokens["alice"])

        assert bob.post("http://monitor/cmonitor/volumes",
                        {"volume": {}}).status_code == 202
        assert bob.post("http://monitor/smonitor/servers",
                        {"server": {}}).status_code == 202
        assert alice.post("http://monitor/imonitor/projects",
                          {"project": {"name": "p2"}}).status_code == 201
        assert composite.violations() == []
        covered = composite.coverage().covered_ids()
        assert {"1.3", "2.2", "3.2"} <= set(covered)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(MonitorError):
            CompositeMonitor([])

    def test_clashing_mounts_rejected(self):
        cloud = PrivateCloud.paper_setup()
        first = CloudMonitor.for_service("cinder", cloud.network, "myProject")
        second = CloudMonitor.for_service("cinder", cloud.network, "myProject")
        with pytest.raises(MonitorError):
            CompositeMonitor([first, second])

    def test_single_monitor_composite(self):
        cloud = PrivateCloud.paper_setup()
        tokens = cloud.paper_tokens()
        only = CloudMonitor.for_service("cinder", cloud.network, "myProject")
        composite = CompositeMonitor([only])
        cloud.network.register("monitor", composite.app)
        client = cloud.client(tokens["carol"])
        assert client.get(
            "http://monitor/cmonitor/volumes").status_code == 200
