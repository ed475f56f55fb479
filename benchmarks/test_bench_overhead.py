"""OVERHEAD: what the monitor costs per request.

Paper claim (Section V): "We believe this is not computationally expensive
because we do not need to save the copy of the whole resource(s) but only
the values that constitute the guards and invariants ... Usually, this only
requires a few bits of storage per method."

Reproduction: the same seeded workload runs directly against the cloud and
through the monitor; the bench reports the per-request latency of each path
(the monitored path pays the probe GETs plus two OCL evaluations) and the
snapshot size per method, which must stay tens of bytes.
"""

import time

from repro.config import build_from_config
from repro.validation import campaign_config
from repro.workloads import (
    WorkloadRunner,
    append_trajectory,
    make_workload,
    measure_overhead_ladder,
)

WORKLOAD = make_workload(60, seed=42)


def test_bench_overhead_direct(benchmark):
    def run_direct():
        cloud, monitor = build_from_config(campaign_config())
        runner = WorkloadRunner(cloud, monitor)
        return runner.execute(WORKLOAD, monitored=False)

    histogram = benchmark(run_direct)
    assert sum(histogram.values()) == len(WORKLOAD)
    print(f"\n[OVERHEAD] direct run histogram: {histogram}")


def test_bench_overhead_monitored(benchmark):
    def run_monitored():
        cloud, monitor = build_from_config(campaign_config())
        runner = WorkloadRunner(cloud, monitor)
        return runner.execute(WORKLOAD, monitored=True)

    histogram = benchmark(run_monitored)
    assert sum(histogram.values()) == len(WORKLOAD)
    print(f"\n[OVERHEAD] monitored run histogram: {histogram}")


def test_bench_overhead_factor_and_snapshot_size(benchmark):
    """The analysis row: overhead factor, probes, and snapshot bytes."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cloud, monitor = build_from_config(campaign_config())
    runner = WorkloadRunner(cloud, monitor)

    started = time.perf_counter()
    runner.execute(WORKLOAD, monitored=False)
    direct_elapsed = time.perf_counter() - started

    cloud, monitor = build_from_config(campaign_config())
    runner = WorkloadRunner(cloud, monitor)
    started = time.perf_counter()
    runner.execute(WORKLOAD, monitored=True)
    monitored_elapsed = time.perf_counter() - started

    factor = monitored_elapsed / max(direct_elapsed, 1e-9)
    probes_per_request = monitor.provider.probe_count / len(WORKLOAD)
    snapshot_sizes = [verdict.snapshot_bytes for verdict in monitor.log
                      if verdict.snapshot_bytes]
    max_snapshot = max(snapshot_sizes) if snapshot_sizes else 0

    print(f"\n[OVERHEAD] direct:    {direct_elapsed * 1e3:8.2f} ms "
          f"for {len(WORKLOAD)} requests")
    print(f"[OVERHEAD] monitored: {monitored_elapsed * 1e3:8.2f} ms "
          f"({factor:.1f}x, {probes_per_request:.1f} probe GETs/request)")
    print(f"[OVERHEAD] snapshot storage per method: max {max_snapshot} "
          f"bytes (paper: 'a few bits of storage per method')")

    # Shape assertions: the monitor costs a small constant factor (probes
    # + two OCL evaluations), and snapshots stay tiny.
    assert factor < 50, "monitoring must stay a constant-factor overhead"
    assert 0 < max_snapshot <= 64
    assert probes_per_request <= 10


def test_bench_overhead_probe_planning(benchmark):
    """The planning row: probe and latency deltas, plan on vs. off.

    Demand-driven planning must cut the GET probes the monitor pays per
    request while leaving every observable outcome -- verdict rows,
    status histogram, coverage counters -- byte-identical.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def run(probe_planning):
        cloud, monitor = build_from_config(campaign_config(
            probe_planning=probe_planning))
        runner = WorkloadRunner(cloud, monitor)
        started = time.perf_counter()
        histogram = runner.execute(WORKLOAD, monitored=True)
        elapsed = time.perf_counter() - started
        skipped = monitor.obs.metrics.counter(
            "monitor_probes_skipped_total",
            "GET probes the demand-driven plan proved unnecessary").value
        return {
            "histogram": histogram,
            "rows": [verdict.to_dict() for verdict in monitor.log],
            "coverage": {rid: (r.exercised, r.passed, r.failed)
                         for rid, r in monitor.coverage.records.items()},
            "probes": monitor.provider.probe_count,
            "skipped": skipped,
            "elapsed": elapsed,
        }

    unplanned = run(False)
    planned = run(True)

    probes = len(WORKLOAD)
    print(f"\n[OVERHEAD] probes/request unplanned: "
          f"{unplanned['probes'] / probes:5.2f}   planned: "
          f"{planned['probes'] / probes:5.2f}   "
          f"(skipped {planned['skipped']:.0f} GETs)")
    print(f"[OVERHEAD] monitored latency unplanned: "
          f"{unplanned['elapsed'] * 1e3:8.2f} ms   planned: "
          f"{planned['elapsed'] * 1e3:8.2f} ms")

    # Planning only removes probes; every verdict stays byte-identical.
    assert planned["histogram"] == unplanned["histogram"]
    assert planned["rows"] == unplanned["rows"]
    assert planned["coverage"] == unplanned["coverage"]
    assert planned["probes"] < unplanned["probes"]
    assert planned["skipped"] > 0


def test_bench_overhead_sampling_ladder(benchmark, tmp_path):
    """The obs-layer row: 1x/10x/100x volume through a sampled fleet.

    Sampling exists so the observability layer's cost stays bounded as
    volume grows; this ladder drives a Poisson-paced workload through a
    4-shard fleet at 10% sampling and gates the three claims:

    * retained-trace memory stays within the tracer rings at 100x,
    * every non-valid verdict's trace survives sampling on every rung,
    * p99 ``obs_overhead_seconds`` at 100x stays within 2x of 1x (the
      fleet runs on a manual clock, so the histogram counts operations,
      not host speed -- per-request obs cost must not grow with volume).

    The ladder entry is appended to a trajectory file under
    ``tmp_path`` and must read back; the tracked ``BENCH_scaling.json``
    is never rewritten.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    entry = measure_overhead_ladder(base=16, factors=(1, 10, 100))

    print("\n[OVERHEAD] volume  retained/bound  decisions "
          "(kept/dropped/forced)  p99 obs")
    for rung in entry["rungs"]:
        decisions = rung["decisions"]
        print(f"[OVERHEAD] {rung['requests']:<7} "
              f"{rung['retained']:>5}/{rung['ring_bound']:<7} "
              f"{decisions.get('kept', 0)}/{decisions.get('dropped', 0)}/"
              f"{decisions.get('forced', 0):<18} "
              f"{rung['overhead_p99']:.6f}s")
    print(f"[OVERHEAD] p99 ratio 100x/1x: {entry['p99_ratio']:.2f} "
          "(gate: <= 2.0)")

    for rung in entry["rungs"]:
        assert sum(rung["decisions"].values()) == rung["begun"], \
            "sampling decisions must reconcile with traces begun"
        assert rung["decisions"].get("dropped", 0) == rung["events_shed"], \
            "every dropped trace sheds exactly its one wide event"
    assert entry["retained_within_bound"], \
        "retained traces exceeded the tracer ring bound"
    assert entry["non_valid_retained"], \
        "a non-valid verdict's trace was sampled away"
    assert entry["p99_ratio"] <= 2.0, \
        "p99 obs overhead grew with volume"

    trajectory = append_trajectory(str(tmp_path / "BENCH_scaling.json"),
                                   {"timestamp": entry["timestamp"],
                                    "obs_overhead": entry})
    assert trajectory["entries"][-1]["obs_overhead"]["p99_ratio"] \
        == entry["p99_ratio"]
