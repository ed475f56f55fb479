"""SCALE: generation cost as the models grow, throughput as shards grow.

Section VI-B flags scalability as the standing challenge of model-driven
approaches.  The first half of this bench measures contract generation
and code generation over a family of synthetic models that replicate the
Cinder pattern n times (2n+1 classes, 3n states, 13n transitions) and
asserts the costs grow roughly linearly -- i.e., the pipeline itself is
not the bottleneck.

The second half measures the *runtime* scaling axis the fleet dispatcher
adds: monitored throughput across a shard ladder against a substrate
with realistic sleep-based probe latency.  The sweep is appended to a
trajectory file under pytest's ``tmp_path``, so a run never rewrites
the tracked ``BENCH_scaling.json``.
"""

import time

import pytest

from repro.core import ContractGenerator
from repro.core.codegen import generate_project
from repro.workloads import (
    append_trajectory,
    measure_fleet_throughput,
    scaling_sweep,
    synthetic_models,
)

SIZES = (1, 2, 4, 8, 16)


@pytest.mark.parametrize("size", [1, 4, 16])
def test_bench_scaling_contract_generation(benchmark, size):
    diagram, machine = synthetic_models(size)
    generator = ContractGenerator(machine, diagram)

    contracts = benchmark(generator.all_contracts)

    assert len(contracts) == 5 * size
    print(f"\n[SCALE] n={size}: {len(machine.transitions)} transitions "
          f"-> {len(contracts)} contracts")


@pytest.mark.parametrize("size", [1, 4, 16])
def test_bench_scaling_codegen(benchmark, size):
    diagram, machine = synthetic_models(size)

    project = benchmark(generate_project, f"monitor{size}", diagram, machine)

    views = project[f"monitor{size}/views.py"]
    assert views.count("def ") >= 5 * size
    print(f"\n[SCALE] n={size}: generated views.py has "
          f"{len(views.splitlines())} lines")


def test_bench_scaling_linearity(benchmark):
    """The series the paper's scalability discussion implies: cost vs n."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for size in SIZES:
        diagram, machine = synthetic_models(size)
        generator = ContractGenerator(machine, diagram)
        started = time.perf_counter()
        contracts = generator.all_contracts()
        contract_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        generate_project(f"m{size}", diagram, machine)
        codegen_elapsed = time.perf_counter() - started
        rows.append((size, len(machine.transitions), len(contracts),
                     contract_elapsed, codegen_elapsed))

    print("\n[SCALE] n  transitions  contracts  contract-gen(ms)  "
          "codegen(ms)")
    for size, transitions, contracts, cg, cc in rows:
        print(f"[SCALE] {size:<3} {transitions:>10} {contracts:>10} "
              f"{cg * 1e3:>16.2f} {cc * 1e3:>12.2f}")

    # Shape: cost per transition must not blow up with model size
    # (allowing generous noise for the small absolute times involved).
    small = rows[0]
    large = rows[-1]
    per_transition_small = small[3] / small[1]
    per_transition_large = large[3] / large[1]
    assert per_transition_large < per_transition_small * 10


@pytest.mark.parametrize("shards", [1, 4])
def test_bench_scaling_fleet_shape(benchmark, shards):
    """One fleet shape, timed: read-only workload, zero failures."""
    result = benchmark.pedantic(
        measure_fleet_throughput, args=(shards,),
        kwargs={"requests": 48, "latency": 0.002},
        rounds=1, iterations=1)
    assert result["failures"] == 0
    assert result["verdicts"] == 48
    assert sum(result["dispatched"]) == 48
    # Pre-partitioned synthetic tenants spread the load evenly.
    assert max(result["dispatched"]) - min(result["dispatched"]) <= 1
    print(f"\n[SCALE] {shards} shard(s): "
          f"{result['throughput']:.1f} req/s")


def test_bench_scaling_fleet_speedup(benchmark, tmp_path):
    """The acceptance line: >= 2x throughput at 4 shards vs 1.

    Shards overlap their substrate waits (the latency fault really
    sleeps), so 4 shards should approach 4x; the 2x bar leaves headroom
    for scheduling noise on loaded CI machines.  The sweep is appended
    to a temporary trajectory, which must read back.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    entry = scaling_sweep(shard_counts=(1, 2, 4), requests=96,
                          latency=0.002)

    print("\n[SCALE] shards  throughput(req/s)")
    for run in entry["runs"]:
        print(f"[SCALE] {run['shards']:<7} {run['throughput']:>12.1f}")
    print(f"[SCALE] speedup at 4 shards: {entry['speedup']:.2f}x")

    for run in entry["runs"]:
        assert run["failures"] == 0
    assert entry["speedup"] >= 2.0

    trajectory = append_trajectory(str(tmp_path / "BENCH_scaling.json"),
                                   entry)
    assert trajectory["entries"][-1] is not None
    assert trajectory["entries"][-1]["speedup"] == entry["speedup"]
