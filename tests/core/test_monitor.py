"""Tests for the runtime cloud monitor (Figure 2 workflow)."""

import pytest

from repro.cloud import PrivateCloud
from repro.core import CloudMonitor, CloudStateProvider, Verdict
from repro.core.monitor import (
    MonitoredOperation,
    operations_from_models,
)
from repro.core import cinder_behavior_model, cinder_resource_model
from repro.uml import Trigger

MONITOR = "http://cmonitor/cmonitor/volumes"


@pytest.fixture()
def setup():
    cloud = PrivateCloud.paper_setup(volume_quota=3)
    tokens = cloud.paper_tokens()
    monitor = CloudMonitor.for_service("cinder", cloud.network, "myProject",
                                       enforcing=True)
    cloud.network.register("cmonitor", monitor.app)
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, monitor, clients


@pytest.fixture()
def audit_setup():
    cloud = PrivateCloud.paper_setup(volume_quota=3)
    tokens = cloud.paper_tokens()
    monitor = CloudMonitor.for_service("cinder", cloud.network, "myProject",
                                       enforcing=False)
    cloud.network.register("cmonitor", monitor.app)
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, monitor, clients


class TestOperationsFromModels:
    def test_routes_derived(self):
        operations = operations_from_models(
            cinder_behavior_model(), cinder_resource_model(),
            cloud_base="http://cinder/v3/p1")
        by_trigger = {str(op.trigger): op for op in operations}
        assert by_trigger["POST(volumes)"].monitor_path == "cmonitor/volumes"
        assert by_trigger["DELETE(volume)"].monitor_path == \
            "cmonitor/volumes/<str:volume_id>"
        assert by_trigger["DELETE(volume)"].cloud_url_template == \
            "http://cinder/v3/p1/volumes/{volume_id}"

    def test_expected_codes_defaults(self):
        operation = MonitoredOperation(
            Trigger("DELETE", "volume"), "p", "u")
        assert operation.expected_codes == (204,)
        operation = MonitoredOperation(Trigger("POST", "volumes"), "p", "u")
        assert 202 in operation.expected_codes

    def test_cloud_url_substitution(self):
        operation = MonitoredOperation(
            Trigger("GET", "volume"), "p",
            "http://cinder/v3/p1/volumes/{volume_id}")
        assert operation.cloud_url({"volume_id": "vol-9"}) == \
            "http://cinder/v3/p1/volumes/vol-9"


class TestStateProvider:
    def test_bindings_shape(self, setup):
        cloud, monitor, clients = setup
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        provider = CloudStateProvider(cloud.network, "myProject")
        bindings = provider.bindings(token)
        assert bindings["project"]["id"] == "myProject"
        assert bindings["project"]["volumes"] == []
        assert bindings["quota_sets"]["volumes"] == 3
        assert bindings["user"]["roles"] == ["admin"]
        assert bindings["user"]["groups"] == ["proj_administrator"]

    def test_bindings_with_volume(self, setup):
        cloud, monitor, clients = setup
        token = cloud.keystone.issue_token("bob", "bob-secret", "myProject")
        client = cloud.client(token)
        vid = client.post(cloud.cinder_url("/v3/myProject/volumes"),
                          {"volume": {}}).json()["volume"]["id"]
        provider = CloudStateProvider(cloud.network, "myProject")
        bindings = provider.bindings(token, item_id=vid)
        assert bindings["volume"]["status"] == "available"
        assert len(bindings["project"]["volumes"]) == 1

    def test_invalid_token_yields_empty_state(self, setup):
        cloud, monitor, clients = setup
        provider = CloudStateProvider(cloud.network, "myProject")
        bindings = provider.bindings("bogus-token")
        assert bindings["project"] == {}
        assert bindings["user"] == {}

    def test_probe_count_increments(self, setup):
        cloud, monitor, clients = setup
        provider = CloudStateProvider(cloud.network, "myProject")
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        before = provider.probe_count
        provider.bindings(token)
        assert provider.probe_count == before + 4  # project/volumes/quota/user


class TestEnforcingMode:
    def test_valid_post_passes_through(self, setup):
        cloud, monitor, clients = setup
        response = clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        assert response.status_code == 202
        assert monitor.log[-1].verdict == Verdict.VALID

    def test_unauthorized_post_blocked_before_cloud(self, setup):
        cloud, monitor, clients = setup
        before = cloud.cinder.volume_count("myProject")
        response = clients["carol"].post(MONITOR, {"volume": {}})
        assert response.status_code == 412
        assert monitor.log[-1].verdict == Verdict.PRE_BLOCKED
        assert monitor.log[-1].forwarded is False
        # The cloud never saw the request.
        assert cloud.cinder.volume_count("myProject") == before

    def test_unauthorized_delete_blocked(self, setup):
        cloud, monitor, clients = setup
        vid = clients["bob"].post(
            MONITOR, {"volume": {}}).json()["volume"]["id"]
        response = clients["bob"].delete(f"{MONITOR}/{vid}")
        assert response.status_code == 412

    def test_delete_in_use_blocked(self, setup):
        cloud, monitor, clients = setup
        vid = clients["bob"].post(
            MONITOR, {"volume": {}}).json()["volume"]["id"]
        clients["bob"].post(
            cloud.cinder_url(f"/v3/myProject/volumes/{vid}/action"),
            {"os-attach": {"server_id": "s1"}})
        response = clients["alice"].delete(f"{MONITOR}/{vid}")
        assert response.status_code == 412

    def test_post_blocked_at_quota(self, setup):
        cloud, monitor, clients = setup
        for _ in range(3):
            clients["bob"].post(MONITOR, {"volume": {}})
        response = clients["bob"].post(MONITOR, {"volume": {}})
        assert response.status_code == 412

    def test_full_crud_cycle_valid(self, setup):
        cloud, monitor, clients = setup
        created = clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        vid = created.json()["volume"]["id"]
        assert clients["carol"].get(f"{MONITOR}/{vid}").status_code == 200
        assert clients["bob"].put(
            f"{MONITOR}/{vid}", {"volume": {"name": "w"}}).status_code == 200
        assert clients["alice"].delete(f"{MONITOR}/{vid}").status_code == 204
        assert all(v.verdict == Verdict.VALID for v in monitor.log)

    def test_method_not_allowed_on_monitor(self, setup):
        cloud, monitor, clients = setup
        response = clients["bob"].patch(MONITOR, {"volume": {}})
        assert response.status_code == 405

    def test_412_body_carries_verdict(self, setup):
        cloud, monitor, clients = setup
        response = clients["carol"].post(MONITOR, {"volume": {}})
        body = response.json()["monitor"]
        assert body["verdict"] == Verdict.PRE_BLOCKED
        assert body["operation"] == "POST(volumes)"
        assert body["security_requirements"] == ["1.3"]


class TestAuditMode:
    def test_clean_cloud_produces_no_violations(self, audit_setup):
        cloud, monitor, clients = audit_setup
        clients["bob"].post(MONITOR, {"volume": {}})
        clients["carol"].post(MONITOR, {"volume": {}})  # denied by cloud too
        vid = cloud.cinder.volumes.all()[0]["id"]
        clients["bob"].delete(f"{MONITOR}/{vid}")       # denied by cloud too
        clients["alice"].delete(f"{MONITOR}/{vid}")
        assert monitor.violations() == []
        verdicts = [v.verdict for v in monitor.log]
        assert Verdict.INVALID_AGREED in verdicts
        assert Verdict.VALID in verdicts

    def test_unauthorized_request_forwarded_in_audit(self, audit_setup):
        cloud, monitor, clients = audit_setup
        response = clients["carol"].post(MONITOR, {"volume": {}})
        assert response.status_code == 403  # the cloud's own denial
        assert monitor.log[-1].forwarded is True

    def test_escalation_detected(self, audit_setup):
        cloud, monitor, clients = audit_setup
        cloud.cinder.policy.set_rule("volume:post", "@")  # seeded fault
        response = clients["carol"].post(MONITOR, {"volume": {}})
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.PRE_VIOLATION

    def test_privilege_loss_detected(self, audit_setup):
        cloud, monitor, clients = audit_setup
        cloud.cinder.policy.set_rule("volume:get", "role:admin")
        response = clients["carol"].get(MONITOR)
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.REJECTED_VALID

    def test_wrong_status_code_detected(self, audit_setup):
        cloud, monitor, clients = audit_setup
        vid = clients["bob"].post(
            MONITOR, {"volume": {}}).json()["volume"]["id"]
        cloud.cinder.delete_success_code = 200
        response = clients["alice"].delete(f"{MONITOR}/{vid}")
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.POST_VIOLATION
        assert "status code" in monitor.log[-1].message

    def test_status_check_bypass_detected(self, audit_setup):
        cloud, monitor, clients = audit_setup
        vid = clients["bob"].post(
            MONITOR, {"volume": {}}).json()["volume"]["id"]
        clients["bob"].post(
            cloud.cinder_url(f"/v3/myProject/volumes/{vid}/action"),
            {"os-attach": {"server_id": "s1"}})
        cloud.cinder.enforce_status_check = False
        response = clients["alice"].delete(f"{MONITOR}/{vid}")
        # pre is false (in-use) but the mutated cloud deletes anyway.
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.PRE_VIOLATION


class TestLogAndCoverage:
    def test_log_accumulates(self, setup):
        cloud, monitor, clients = setup
        clients["bob"].post(MONITOR, {"volume": {}})
        clients["carol"].get(MONITOR)
        assert len(monitor.log) == 2
        monitor.clear_log()
        assert monitor.log == []

    def test_coverage_tracks_requirements(self, setup):
        cloud, monitor, clients = setup
        clients["bob"].post(MONITOR, {"volume": {}})
        clients["carol"].get(MONITOR)
        assert "1.3" in monitor.coverage.covered_ids()
        assert "1.1" in monitor.coverage.covered_ids()
        assert "1.2" in monitor.coverage.uncovered_ids()

    def test_snapshot_bytes_recorded(self, setup):
        cloud, monitor, clients = setup
        clients["bob"].post(MONITOR, {"volume": {}})
        verdict = monitor.log[-1]
        assert 0 < verdict.snapshot_bytes <= 64

    def test_verdict_to_dict(self, setup):
        cloud, monitor, clients = setup
        clients["bob"].post(MONITOR, {"volume": {}})
        record = monitor.log[-1].to_dict()
        assert record["operation"] == "POST(volumes)"
        assert record["verdict"] == "valid"
        assert record["response_status"] == 202
