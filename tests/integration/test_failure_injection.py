"""Failure injection: the monitor against a misbehaving substrate.

The monitor's probes and forwards go over the (virtual) network; these
tests mangle that traffic -- garbage bodies, wrong content shapes, partial
outages -- and assert the monitor degrades to the documented
unreachable-state semantics instead of crashing or mis-flagging.
"""

import pytest

from repro.config import build_from_config
from repro.core import Verdict
from repro.core.monitor import CloudStateProvider
from repro.httpsim import Response
from repro.validation import campaign_config


@pytest.fixture()
def setup():
    cloud, monitor = build_from_config(campaign_config(enforcing=True))
    tokens = cloud.paper_tokens()
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, monitor, clients


def mangle(match_path_suffix, body=b"<html>garbage"):
    def hook(request):
        if request.method == "GET" and \
                request.path.endswith(match_path_suffix):
            return Response(200, body)
        return None

    return hook


class TestMalformedProbeBodies:
    def test_garbage_volume_listing_flagged_not_500(self, setup):
        cloud, monitor, clients = setup
        cloud.network.inject_fault("cinder", mangle("volumes"))
        response = clients["bob"].post("http://cmonitor/cmonitor/volumes",
                                       {"volume": {}})
        # The garbage listing reads as "no volumes": the POST pre-condition
        # holds, the cloud accepts, but the post-probe cannot witness the
        # new volume -- a post-violation (the monitor cannot verify the
        # effect), and crucially never an unhandled 500.
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.POST_VIOLATION

    def test_non_object_json_body(self, setup):
        cloud, monitor, clients = setup
        cloud.network.inject_fault("cinder", mangle("volumes", b"[1, 2, 3]"))
        response = clients["bob"].post("http://cmonitor/cmonitor/volumes",
                                       {"volume": {}})
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.POST_VIOLATION

    def test_garbage_identity_body(self, setup):
        cloud, monitor, clients = setup
        cloud.network.inject_fault("keystone", mangle("auth/tokens"))
        response = clients["bob"].post("http://cmonitor/cmonitor/volumes",
                                       {"volume": {}})
        # No identity -> authorization guard cannot hold -> blocked.
        assert response.status_code == 412

    def test_probe_body_helper_contract(self):
        assert CloudStateProvider.probe_body(Response(404, b"{}")) is None
        assert CloudStateProvider.probe_body(Response(200, b"nope")) is None
        assert CloudStateProvider.probe_body(Response(200, b"[1]")) is None
        assert CloudStateProvider.probe_body(
            Response(200, b'{"a": 1}')) == {"a": 1}

    def test_recovery_after_fault_cleared(self, setup):
        cloud, monitor, clients = setup
        cloud.network.inject_fault("cinder", mangle("volumes"))
        assert clients["bob"].post("http://cmonitor/cmonitor/volumes",
                                   {"volume": {}}).status_code == 502
        cloud.network.clear_fault("cinder")
        assert clients["bob"].post("http://cmonitor/cmonitor/volumes",
                                   {"volume": {}}).status_code == 202
        assert monitor.log[-1].verdict == Verdict.VALID


class TestAuditModeUnderFaults:
    def test_audit_mode_garbage_probe_no_false_violation(self):
        cloud, monitor = build_from_config(campaign_config(enforcing=False))
        tokens = cloud.paper_tokens()
        bob = cloud.client(tokens["bob"])
        # Only the monitor's probe path is mangled; the forwarded POST
        # still reaches the real (correct) Cinder.  The pre-state looks
        # empty, the cloud accepts, the post-probe cannot witness the
        # volume: a post-violation.  From the monitor's observable
        # evidence that IS the right call -- it cannot verify the effect,
        # and the log localizes the problem to this operation.
        cloud.network.inject_fault(
            "cinder",
            lambda request: (Response(200, b"junk")
                             if request.method == "GET"
                             and request.path.endswith("volumes")
                             else None))
        response = bob.post("http://cmonitor/cmonitor/volumes",
                            {"volume": {}})
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.POST_VIOLATION

    def test_flaky_cloud_intermittent(self):
        cloud, monitor = build_from_config(campaign_config(enforcing=True))
        tokens = cloud.paper_tokens()
        bob = cloud.client(tokens["bob"])
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if calls["n"] % 5 == 0:
                return Response.error(503, "hiccup")
            return None

        cloud.network.inject_fault("cinder", flaky)
        codes = set()
        for _ in range(6):
            codes.add(bob.get("http://cmonitor/cmonitor/volumes")
                      .status_code)
        # Some succeed, some get blocked/refused -- but never a 500 and
        # never a violation verdict against the correct cloud.
        assert 500 not in codes
        assert monitor.violations() == []
