"""Tests for the mutation campaign (the paper's 3-mutant validation)."""

import pytest

from repro.cloud import PolicyMutant, extended_mutants, paper_mutants
from repro.config import build_from_config
from repro.errors import ValidationError
from repro.validation import (
    MutationCampaign,
    campaign_config,
    extended_battery,
)


@pytest.fixture(scope="module")
def paper_result():
    """Run the paper's campaign once for the whole module (it is not cheap)."""
    return MutationCampaign().run(paper_mutants())


class TestPaperCampaign:
    def test_baseline_clean(self, paper_result):
        assert paper_result.baseline_clean

    def test_all_three_mutants_killed(self, paper_result):
        # The headline claim of Section VI-D.
        assert paper_result.kill_rate == 1.0
        assert [record.mutant.mutant_id for record in paper_result.killed] \
            == ["M1", "M2", "M3"]

    def test_kill_records_name_requirements(self, paper_result):
        by_id = {record.mutant.mutant_id: record
                 for record in paper_result.records}
        assert by_id["M1"].implicated_requirements == ["1.4"]
        assert by_id["M2"].implicated_requirements == ["1.3"]
        assert "1.1" in by_id["M3"].implicated_requirements

    def test_render_contains_matrix(self, paper_result):
        text = paper_result.render()
        assert "baseline clean: yes" in text
        assert "kill rate: 3/3 (100%)" in text
        assert "M2" in text


class TestExtendedCampaign:
    def test_extended_battery_kills_functional_mutants(self):
        campaign = MutationCampaign(battery=extended_battery())
        result = campaign.run(extended_mutants())
        assert result.kill_rate == 1.0

    def test_standard_battery_misses_functional_mutants(self):
        # Ablation: without the functional edge steps, the quota-bypass and
        # status-check mutants survive -- battery design matters.
        campaign = MutationCampaign()
        result = campaign.run(extended_mutants())
        survivors = {record.mutant.mutant_id for record in result.survived}
        assert survivors == {"M4", "M5"}


class TestCampaignDiscipline:
    def test_mutants_reverted_after_run(self):
        mutants = paper_mutants()
        MutationCampaign().run(mutants)
        # Applying again must work: the campaign reverted each mutant.
        cloud, _ = build_from_config(campaign_config())
        for mutant in mutants:
            mutant.apply(cloud)
            mutant.revert(cloud)

    def test_dirty_baseline_rejected(self):
        def broken_setup():
            cloud, monitor = build_from_config(campaign_config())
            # Sabotage the real cloud so the baseline itself violates.
            cloud.cinder.policy.set_rule("volume:get", "role:admin")
            return cloud, monitor

        campaign = MutationCampaign(setup=broken_setup)
        with pytest.raises(ValidationError):
            campaign.run(paper_mutants())

    def test_fresh_cloud_per_mutant(self):
        # A mutant that deletes the policy action entirely must not leak
        # into the next mutant's run.
        destructive = PolicyMutant("MX", "deny everything on GET",
                                   "volume:get", "!")
        campaign = MutationCampaign()
        result = campaign.run([destructive, paper_mutants()[0]])
        assert result.records[0].killed      # GET denied -> rejected-valid
        assert result.records[1].killed      # M1 still killed afterwards

    def test_empty_mutant_list(self):
        result = MutationCampaign().run([])
        assert result.kill_rate == 1.0
        assert result.records == []
