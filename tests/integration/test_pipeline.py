"""End-to-end pipeline tests: models -> XMI -> contracts -> monitor -> kill.

These cross-module tests exercise the same path a user of the tool walks:
export models, re-import them, generate everything from the *parsed*
models, and validate a live (simulated) cloud with the result.
"""

import pytest

from repro.cloud import PrivateCloud, paper_mutants
from repro.config import build_from_config
from repro.core import (
    CloudMonitor,
    ContractGenerator,
    cinder_behavior_model,
    cinder_resource_model,
)
from repro.core.codegen import generate_project
from repro.httpsim import curl
from repro.uml import read_xmi, write_xmi
from repro.validation import MutationCampaign, TestOracle, campaign_config


class TestXmiToMonitorPipeline:
    """The full Figure-4 chain, with XMI in the middle."""

    @pytest.fixture(scope="class")
    def parsed_models(self):
        document = write_xmi(cinder_resource_model(),
                             cinder_behavior_model(), "Cinder")
        return read_xmi(document)

    def test_contracts_from_parsed_models_match_direct(self, parsed_models):
        diagram, machine = parsed_models
        from_parsed = ContractGenerator(machine, diagram).for_trigger(
            "DELETE(volume)")
        direct = ContractGenerator(
            cinder_behavior_model(),
            cinder_resource_model()).for_trigger("DELETE(volume)")
        assert from_parsed.precondition == direct.precondition
        assert from_parsed.postcondition == direct.postcondition

    def test_monitor_from_parsed_models_kills_mutants(self, parsed_models):
        diagram, machine = parsed_models

        def setup():
            cloud = PrivateCloud.paper_setup()
            monitor = CloudMonitor.for_service(
                "cinder", cloud.network, "myProject", machine=machine,
                diagram=diagram, enforcing=False)
            cloud.network.register("cmonitor", monitor.app)
            return cloud, monitor

        result = MutationCampaign(setup=setup).run(paper_mutants())
        assert result.kill_rate == 1.0

    def test_codegen_from_parsed_models(self, parsed_models, tmp_path):
        diagram, machine = parsed_models
        project = generate_project("cm", diagram, machine)
        project.write_to(str(tmp_path))
        assert (tmp_path / "cm" / "views.py").exists()


class TestCurlDrivenSession:
    """The Section VI usage: cURL commands against the running monitor."""

    def test_paper_style_session(self):
        cloud, monitor = build_from_config(campaign_config(enforcing=True))
        tokens = cloud.paper_tokens()

        create = curl(
            cloud.network,
            f"curl -X POST -H 'X-Auth-Token: {tokens['bob']}' "
            f"-d '{{\"volume\": {{\"name\": \"c1\"}}}}' "
            f"http://cmonitor/cmonitor/volumes")
        assert create.status_code == 202
        volume_id = create.json()["volume"]["id"]

        listing = curl(
            cloud.network,
            f"curl -H 'X-Auth-Token: {tokens['carol']}' "
            f"http://cmonitor/cmonitor/volumes")
        assert listing.status_code == 200
        assert len(listing.json()["volumes"]) == 1

        denied = curl(
            cloud.network,
            f"curl -X DELETE -H 'X-Auth-Token: {tokens['carol']}' "
            f"http://cmonitor/cmonitor/volumes/{volume_id}")
        assert denied.status_code == 412

        deleted = curl(
            cloud.network,
            f"curl -X DELETE -H 'X-Auth-Token: {tokens['alice']}' "
            f"http://cmonitor/cmonitor/volumes/{volume_id}")
        assert deleted.status_code == 204
        assert monitor.violations() == []


class TestMonitorAgainstDegradedCloud:
    """Failure injection: the monitor vs. an unreachable / flaky cloud."""

    def test_unreachable_cinder_blocks_preconditions(self):
        cloud, monitor = build_from_config(campaign_config(enforcing=True))
        tokens = cloud.paper_tokens()
        bob = cloud.client(tokens["bob"])
        cloud.network.unregister("cinder")
        # Probes fail -> project state undefined -> pre-condition false ->
        # the monitor blocks instead of forwarding into the void.
        response = bob.post("http://cmonitor/cmonitor/volumes",
                            {"volume": {}})
        assert response.status_code == 412

    def test_cinder_outage_mid_session(self):
        from repro.httpsim import Response

        cloud, monitor = build_from_config(campaign_config(enforcing=False))
        tokens = cloud.paper_tokens()
        bob = cloud.client(tokens["bob"])
        volume_id = bob.post("http://cmonitor/cmonitor/volumes",
                             {"volume": {}}).json()["volume"]["id"]
        cloud.network.inject_fault(
            "cinder", lambda request: Response.error(503, "maintenance"))
        response = bob.get(f"http://cmonitor/cmonitor/volumes/{volume_id}")
        # Probes see 503 -> state undefined -> pre false; the cloud also
        # fails the forwarded request: both agree, no false violation.
        assert response.status_code in (502, 503)
        last = monitor.log[-1]
        assert last.verdict in ("invalid-agreed", "pre-blocked")

    def test_keystone_outage_renders_requests_unauthenticated(self):
        cloud, monitor = build_from_config(campaign_config(enforcing=True))
        tokens = cloud.paper_tokens()
        alice = cloud.client(tokens["alice"])
        cloud.network.unregister("keystone")
        response = alice.get("http://cmonitor/cmonitor/volumes")
        # Without identity, the authorization guard cannot hold.
        assert response.status_code == 412


class TestMultiServiceCloud:
    """Nova and Cinder interact: attachment state drives DELETE contracts."""

    def test_attach_via_nova_blocks_monitored_delete(self):
        cloud, monitor = build_from_config(campaign_config(enforcing=True))
        tokens = cloud.paper_tokens()
        bob = cloud.client(tokens["bob"])
        alice = cloud.client(tokens["alice"])

        volume_id = bob.post("http://cmonitor/cmonitor/volumes",
                             {"volume": {}}).json()["volume"]["id"]
        server_id = bob.post("http://nova/v3/myProject/servers",
                             {"server": {"name": "s"}}).json()["server"]["id"]
        bob.post(f"http://nova/v3/myProject/servers/{server_id}"
                 f"/volume_attachments",
                 {"volumeAttachment": {"volumeId": volume_id}})

        blocked = alice.delete(f"http://cmonitor/cmonitor/volumes/{volume_id}")
        assert blocked.status_code == 412

        bob.delete(f"http://nova/v3/myProject/servers/{server_id}"
                   f"/volume_attachments/{volume_id}")
        allowed = alice.delete(f"http://cmonitor/cmonitor/volumes/{volume_id}")
        assert allowed.status_code == 204
        assert monitor.violations() == []

    def test_oracle_run_with_nova_churn_stays_clean(self):
        cloud, monitor = build_from_config(campaign_config())
        tokens = cloud.paper_tokens()
        bob = cloud.client(tokens["bob"])
        server_id = bob.post("http://nova/v3/myProject/servers",
                             {"server": {"name": "s"}}).json()["server"]["id"]
        oracle = TestOracle(cloud, monitor)
        oracle.run()
        assert monitor.violations() == []
