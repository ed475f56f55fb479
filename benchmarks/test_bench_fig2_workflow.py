"""FIG-2: the monitor workflow end to end (pre -> forward -> post -> verdict).

Paper artifact: Figure 2, "Workflow in Cloud Monitor".  The bench replays
the standard Table-I battery through the monitor and checks the verdict
accounting the figure implies: valid requests pass through, invalid ones
get "an invalid response specifying the faulty behavior", and a correct
cloud never produces a violation verdict.
"""

from repro.config import build_from_config
from repro.core import Verdict
from repro.validation import TestOracle, campaign_config, standard_battery


def test_bench_fig2_battery(benchmark):
    def run_battery():
        cloud, monitor = build_from_config(campaign_config())
        oracle = TestOracle(cloud, monitor)
        oracle.run()
        return monitor, oracle

    monitor, oracle = benchmark(run_battery)

    assert len(monitor.log) == len(standard_battery())
    assert monitor.violations() == []
    verdicts = [verdict.verdict for verdict in monitor.log]
    assert Verdict.VALID in verdicts
    assert Verdict.INVALID_AGREED in verdicts  # cloud + monitor both deny
    by_name = dict(oracle.results)
    assert by_name["delete-admin"].status_code == 204
    assert by_name["delete-member-denied"].status_code == 403
    histogram = {}
    for verdict in verdicts:
        histogram[verdict] = histogram.get(verdict, 0) + 1
    print(f"\n[FIG-2] verdict histogram over the battery: {histogram}")


def test_bench_fig2_enforcing_blocks_before_cloud(benchmark):
    """Figure 2 proper: requests are forwarded only if the pre holds."""

    def run_enforcing():
        cloud, monitor = build_from_config(campaign_config(enforcing=True))
        oracle = TestOracle(cloud, monitor)
        oracle.run()
        return cloud, monitor, oracle

    cloud, monitor, oracle = benchmark(run_enforcing)
    blocked = [verdict for verdict in monitor.log
               if verdict.verdict == Verdict.PRE_BLOCKED]
    assert blocked, "unauthorized battery steps must be blocked"
    assert all(not verdict.forwarded for verdict in blocked)
    by_name = dict(oracle.results)
    assert by_name["post-user-denied"].status_code == 412
    print(f"\n[FIG-2] enforcing mode blocked {len(blocked)} requests "
          f"before they reached the cloud")
