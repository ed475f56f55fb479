"""Tests for fault localization from the monitor log."""

from repro.cloud import paper_mutants
from repro.config import build_from_config
from repro.validation import (
    TestOracle,
    campaign_config,
    localize,
    render_report,
)


def run_with_mutant(mutant_index):
    cloud, monitor = build_from_config(campaign_config())
    mutant = paper_mutants()[mutant_index]
    mutant.apply(cloud)
    oracle = TestOracle(cloud, monitor)
    oracle.run()
    return monitor


class TestLocalize:
    def test_clean_log_yields_nothing(self):
        cloud, monitor = build_from_config(campaign_config())
        TestOracle(cloud, monitor).run()
        assert localize(monitor.log) == []
        assert "nothing to localize" in render_report([])

    def test_m1_localized_to_delete_policy(self):
        monitor = run_with_mutant(0)  # member may DELETE
        diagnoses = localize(monitor.log)
        assert len(diagnoses) == 1
        diagnosis = diagnoses[0]
        assert diagnosis.operation == "DELETE(volume)"
        assert diagnosis.action == "volume:delete"
        assert diagnosis.fault_family == "permissive implementation"
        assert diagnosis.requirement_ids == ["1.4"]

    def test_m2_localized_to_post_policy(self):
        monitor = run_with_mutant(1)  # anyone may POST
        diagnoses = localize(monitor.log)
        assert diagnoses[0].action == "volume:post"
        assert diagnoses[0].requirement_ids == ["1.3"]
        assert "privilege escalation" in diagnoses[0].hint

    def test_m3_localized_to_get_policy_as_restrictive(self):
        monitor = run_with_mutant(2)  # only admin may GET
        diagnoses = localize(monitor.log)
        actions = {diagnosis.action for diagnosis in diagnoses}
        assert "volume:get" in actions
        families = {diagnosis.fault_family for diagnosis in diagnoses}
        assert "restrictive implementation" in families

    def test_post_violation_family(self):
        cloud, monitor = build_from_config(campaign_config())
        cloud.cinder.delete_success_code = 200
        tokens = cloud.paper_tokens()
        bob = cloud.client(tokens["bob"])
        alice = cloud.client(tokens["alice"])
        vid = bob.post("http://cmonitor/cmonitor/volumes",
                       {"volume": {}}).json()["volume"]["id"]
        alice.delete(f"http://cmonitor/cmonitor/volumes/{vid}")
        diagnoses = localize(monitor.log)
        assert diagnoses[0].fault_family == "wrong effect or status code"
        assert "status code" in diagnoses[0].hint

    def test_occurrences_counted_and_sorted(self):
        monitor = run_with_mutant(2)  # M3 hits several GET/PUT steps
        diagnoses = localize(monitor.log)
        counts = [diagnosis.occurrences for diagnosis in diagnoses]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == len(monitor.violations())


class TestRenderReport:
    def test_report_structure(self):
        monitor = run_with_mutant(0)
        report = render_report(localize(monitor.log))
        assert "fault hypothesis" in report
        assert "DELETE(volume)" in report
        assert "'volume:delete'" in report
        assert "1.4" in report
