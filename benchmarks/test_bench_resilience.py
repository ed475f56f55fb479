"""RESILIENCE: the transport layer's cost, and verdict parity under it.

Three questions the resilient transport must answer with numbers:

* what does the wrapper cost on a healthy substrate (no faults, no
  retries -- the overhead-only case)?
* what does absorbing recoverable faults cost (every probe URL fails
  once, retries recover everything)?
* and the correctness anchor the numbers are meaningless without:
  verdicts under recoverable faults are **byte-identical** to the
  fault-free baseline, while an unrecoverable substrate degrades every
  request to ``indeterminate``.
"""

from repro.validation import (
    chaos_config,
    indeterminate,
    recoverable_program,
    retries,
    run_leg,
    unrecoverable_program,
)
from repro.workloads import make_workload

COUNT = 30
SEED = 7
WORKLOAD = make_workload(COUNT, seed=SEED)


def leg(*faults):
    """The chaos workload through the resilient transport, under *faults*."""
    return run_leg(chaos_config(), WORKLOAD, faults)


def test_bench_resilient_fault_free(benchmark):
    record = benchmark(leg)
    assert retries(record) == 0
    assert indeterminate(record) == 0


def test_bench_resilient_recoverable_faults(benchmark):
    record = benchmark(leg, recoverable_program)
    assert retries(record) > 0
    assert indeterminate(record) == 0


def test_bench_resilient_dead_substrate(benchmark):
    record = benchmark(leg, unrecoverable_program)
    assert indeterminate(record) == len(record.rows)


def test_bench_resilience_verdict_parity(benchmark):
    """Parity report: recoverable faults leave the verdict stream intact."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    baseline = leg()
    faulted = leg(recoverable_program)
    assert faulted.rows == baseline.rows
    dead = leg(unrecoverable_program)
    assert {verdict.verdict for verdict in dead.verdicts} \
        == {"indeterminate"}
    # probe_count ticks once per *logical* probe; the retry attempts live
    # inside the transport, so the fault tax shows up as retries, not as
    # extra probes.
    assert faulted.probe_count == baseline.probe_count
    print(f"\n[RESILIENCE] {len(baseline.rows)} verdicts byte-identical "
          f"under recoverable faults; {retries(faulted):.0f} transport "
          f"retries absorbed over {baseline.probe_count} logical probes; "
          f"dead substrate -> {indeterminate(dead)}/{len(dead.rows)} "
          "indeterminate")
