"""COVERAGE: security-requirement traceability during testing.

Paper claim (Sections I and IV-C): the propagation of the requirement
annotations into the code lets security experts "observe the coverage of
the security requirements during the testing phase".

Reproduction: the standard Table-I battery must exercise every declared
requirement (100% coverage), and a deliberately partial battery must show
the gap.
"""

from repro.config import build_from_config
from repro.validation import BatteryStep, TestOracle, campaign_config


def test_bench_coverage_full_battery(benchmark):
    def run():
        cloud, monitor = build_from_config(campaign_config())
        oracle = TestOracle(cloud, monitor)
        oracle.run()
        return monitor.coverage

    coverage = benchmark(run)

    assert coverage.coverage == 1.0
    assert sorted(coverage.covered_ids()) == ["1.1", "1.2", "1.3", "1.4"]
    assert coverage.uncovered_ids() == []
    print("\n[COVERAGE] standard battery coverage report:")
    print(coverage.report())


def test_bench_coverage_partial_battery_shows_gap(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cloud, monitor = build_from_config(campaign_config())
    oracle = TestOracle(cloud, monitor)
    # A read-only battery: only SecReq 1.1 is exercised.
    oracle.run([
        BatteryStep("get-1", "alice", "GET", "/cmonitor/volumes"),
        BatteryStep("get-2", "carol", "GET", "/cmonitor/volumes"),
    ])
    coverage = monitor.coverage
    assert coverage.covered_ids() == ["1.1"]
    assert sorted(coverage.uncovered_ids()) == ["1.2", "1.3", "1.4"]
    assert coverage.coverage == 0.25
    print(f"\n[COVERAGE] read-only battery covers "
          f"{coverage.coverage:.0%}; gap: {coverage.uncovered_ids()}")
