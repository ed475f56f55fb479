"""Tests for the Markdown validation report."""

import pytest

from repro.cloud import ScopeLeakMutant, paper_mutants
from repro.config import build_from_config
from repro.validation import (
    MutationCampaign,
    TestOracle,
    campaign_config,
    session_report,
)


@pytest.fixture(scope="module")
def clean_monitor():
    cloud, monitor = build_from_config(campaign_config())
    TestOracle(cloud, monitor).run()
    return monitor


@pytest.fixture(scope="module")
def violating_monitor():
    cloud, monitor = build_from_config(campaign_config())
    paper_mutants()[0].apply(cloud)
    TestOracle(cloud, monitor).run()
    return monitor


class TestMonitorSection:
    def test_traffic_summary(self, clean_monitor):
        report = session_report(clean_monitor)
        assert "# Cloud monitor validation report" in report
        assert "13 requests monitored, 0 violation(s)." in report

    def test_verdict_histogram(self, clean_monitor):
        report = session_report(clean_monitor)
        assert "| valid | 9 |" in report
        assert "| invalid-agreed | 4 |" in report

    def test_coverage_table(self, clean_monitor):
        report = session_report(clean_monitor)
        assert "| 1.4 |" in report
        assert "Coverage: **100%**" in report

    def test_no_localization_when_clean(self, clean_monitor):
        assert "Fault localization" not in session_report(clean_monitor)

    def test_localization_when_violating(self, violating_monitor):
        report = session_report(violating_monitor)
        assert "Fault localization" in report
        assert "'volume:delete'" in report

    def test_uncovered_requirements_called_out(self):
        cloud, monitor = build_from_config(campaign_config())
        # Only run the first battery step: most requirements untouched.
        from repro.validation import standard_battery

        oracle = TestOracle(cloud, monitor)
        oracle.run_step(standard_battery()[0])
        report = session_report(monitor)
        assert "Uncovered:" in report
        assert "extend the battery" in report

    def test_custom_title(self, clean_monitor):
        report = session_report(clean_monitor, title="Nightly run")
        assert report.startswith("# Nightly run")


class TestCampaignSection:
    @pytest.fixture(scope="class")
    def campaign_result(self):
        return MutationCampaign().run(paper_mutants() + [ScopeLeakMutant()])

    def test_kill_matrix_table(self, campaign_result):
        report = session_report(campaign=campaign_result)
        assert "## Mutation campaign" in report
        assert "Kill rate: **3/4**" in report

    def test_survivors_called_out(self, campaign_result):
        report = session_report(campaign=campaign_result)
        assert "Survivors: M7" in report
        assert "model the violated property" in report

    def test_combined_report(self, clean_monitor, campaign_result):
        report = session_report(clean_monitor, campaign_result)
        assert "## Monitored traffic" in report
        assert "## Mutation campaign" in report

    def test_empty_report(self):
        report = session_report()
        assert report.startswith("# Cloud monitor validation report")
