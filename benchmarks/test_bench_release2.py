"""RELEASE-2: re-validation after a cloud upgrade.

Paper claim (Conclusions): "the automated nature of our approach allows
the developers to relatively easily check whether functional and security
requirements have been preserved in new releases."

Reproduction: the simulated Cinder is upgraded (volume snapshots + a new
functional rule); the bench measures the full re-validation loop -- drift
detection with the stale model, clean baseline with the revised model,
and the extended kill matrix including the new release's fault class.
"""

from repro.cloud import (
    PrivateCloud,
    SnapshotCheckBypassMutant,
    extended_mutants,
)
from repro.core import CloudMonitor, Verdict, cinder_behavior_model
from repro.validation import MutationCampaign, release2_battery, release2_setup


def test_bench_release2_drift_detection(benchmark):
    """The stale (release-1) monitor flags the new functional rule."""

    def stale_monitor_run():
        cloud = PrivateCloud.paper_setup(release2=True)
        tokens = cloud.paper_tokens()
        monitor = CloudMonitor.for_service("cinder", cloud.network,
                                           "myProject", enforcing=False)
        cloud.network.register("cmonitor", monitor.app)
        bob = cloud.client(tokens["bob"])
        alice = cloud.client(tokens["alice"])
        volume_id = bob.post("http://cmonitor/cmonitor/volumes",
                             {"volume": {}}).json()["volume"]["id"]
        bob.post("http://cinder/v3/myProject/snapshots",
                 {"snapshot": {"volume_id": volume_id}})
        alice.delete(f"http://cmonitor/cmonitor/volumes/{volume_id}")
        return monitor

    monitor = benchmark(stale_monitor_run)
    assert monitor.log[-1].verdict == Verdict.REJECTED_VALID
    print("\n[RELEASE-2] stale model vs upgraded cloud: drift flagged as "
          f"{monitor.log[-1].verdict!r}")


def test_bench_release2_revalidation_campaign(benchmark):
    """Full re-validation with revised models: 7/7 killed, clean baseline."""
    campaign = MutationCampaign(setup=release2_setup,
                                battery=release2_battery())
    mutants = extended_mutants() + [SnapshotCheckBypassMutant()]

    result = benchmark(campaign.run, mutants)

    assert result.baseline_clean
    assert result.kill_rate == 1.0
    print("\n[RELEASE-2] re-validation kill matrix:")
    print(result.render())


def test_bench_release2_backward_compatible_model(benchmark):
    """The revised model also validates the old release (no false flags)."""

    def old_cloud_new_model():
        cloud = PrivateCloud.paper_setup()  # release 1
        tokens = cloud.paper_tokens()
        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject",
            machine=cinder_behavior_model(with_snapshots=True),
            enforcing=True)
        cloud.network.register("cmonitor", monitor.app)
        bob = cloud.client(tokens["bob"])
        alice = cloud.client(tokens["alice"])
        volume_id = bob.post("http://cmonitor/cmonitor/volumes",
                             {"volume": {}}).json()["volume"]["id"]
        alice.delete(f"http://cmonitor/cmonitor/volumes/{volume_id}")
        return monitor

    monitor = benchmark(old_cloud_new_model)
    assert monitor.violations() == []
    print("\n[RELEASE-2] revised model against the release-1 cloud: "
          "0 violations (snapshot guard degrades to size()=0)")
