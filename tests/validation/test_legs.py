"""The one leg runner: every driver on both deployment shapes, mutant
reversion, and closing the deployment whatever the traffic does."""

import pytest

from repro.cloud import paper_mutants
from repro.config import build_from_config
from repro.core import CloudMonitor
from repro.errors import ValidationError
from repro.validation import (
    MutationCampaign,
    campaign_config,
    chaos_config,
    make_calm_trace,
    run_leg,
    standard_battery,
)
from repro.workloads import Trace, make_workload

#: One traffic of each driver type: request plans, a paced trace, and a
#: battery.
TRAFFIC = {
    "plans": lambda: make_workload(12, seed=7),
    "trace": make_calm_trace,
    "battery": standard_battery,
}


@pytest.fixture
def closed(monkeypatch):
    """The monitors closed while the test runs, in close order."""
    monitors = []
    close = CloudMonitor.close

    def recording_close(monitor):
        monitors.append(monitor)
        close(monitor)

    monkeypatch.setattr(CloudMonitor, "close", recording_close)
    return monitors


def recording_setup(config):
    """A zero-argument setup for *config* that keeps what it builds."""
    built = []

    def setup():
        built.append(build_from_config(config))
        return built[-1]

    return setup, built


class TestDrivers:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("kind", sorted(TRAFFIC))
    def test_one_row_and_one_status_per_request(self, kind, shards):
        traffic = TRAFFIC[kind]()
        leg = run_leg(chaos_config(shards=shards), traffic)
        assert len(leg.monitors) == shards
        assert len(leg.statuses) == len(traffic)
        assert len(leg.rows) == len(leg.verdicts) == len(traffic)

    def test_fleet_plan_leg_equals_the_single_monitor_leg(self):
        workload = make_workload(24, seed=7)
        single = run_leg(chaos_config(), workload)
        fleet = run_leg(chaos_config(shards=2), workload)
        assert fleet.rows == single.rows
        assert fleet.statuses == single.statuses


class TestMutants:
    def test_a_mutant_leg_reverts_its_mutant(self):
        setup, built = recording_setup(campaign_config())
        mutant = paper_mutants()[0]
        leg = run_leg(setup, standard_battery(), mutant=mutant)
        assert any(verdict.violation for verdict in leg.verdicts)
        cloud, _monitor = built[0]
        with pytest.raises(ValidationError, match="not applied"):
            mutant.revert(cloud)


class TestClosing:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_closed_and_reverted_when_the_traffic_raises(self, closed,
                                                         shards):
        trace = Trace()
        trace.record("mallory", "GET", "/cmonitor/volumes")
        setup, built = recording_setup(chaos_config(shards=shards))
        mutant = paper_mutants()[0]
        with pytest.raises(ValidationError, match="mallory"):
            run_leg(setup, trace, mutant=mutant)
        cloud, deployment = built[0]
        assert closed == list(getattr(deployment, "shards", [deployment]))
        with pytest.raises(ValidationError, match="not applied"):
            mutant.revert(cloud)

    def test_mutation_campaign_closes_every_deployment_it_builds(
            self, closed):
        setup, built = recording_setup(campaign_config())
        mutants = paper_mutants()
        MutationCampaign(setup=setup).run(mutants)
        assert len(built) == 1 + len(mutants)
        assert closed == [monitor for _cloud, monitor in built]
