"""SCALE: generation cost as the models grow, throughput as shards grow.

Section VI-B flags scalability as the standing challenge of model-driven
approaches.  The first half of this bench measures contract generation
and code generation over a family of synthetic models that replicate the
Cinder pattern n times (2n+1 classes, 3n states, 13n transitions) and
asserts the costs grow roughly linearly -- i.e., the pipeline itself is
not the bottleneck.

The second half measures the *runtime* scaling axis the fleet dispatcher
adds: monitored throughput across a shard ladder against a substrate
with ``time.sleep``-based probe latency.  Shard driver threads overlap
their sleeps, so the speed-up measures overlapped waits, not CPU work.
"""

import threading
import time
from typing import Dict, List

import pytest

from repro.cloud import PrivateCloud
from repro.core import ContractGenerator, MonitorFleet
from repro.core.codegen import generate_project
from repro.core.options import MonitorOptions
from repro.httpsim import Latency, Request
from repro.obs.clock import system_clock
from repro.validation import HOSTS
from repro.workloads import synthetic_models

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


# -- the sleep-overlap shard ladder -------------------------------------------

def tenant_header_key(request: Request) -> str:
    """Shard key for bench traffic: the ``X-Tenant`` header.

    The simulated cloud only bootstraps three users, so the bench stamps
    each request with a synthetic tenant id and routes on that (falling
    back to the auth token, like the default key, when it is absent).
    """
    return request.headers.get("X-Tenant") or (request.auth_token or "")


def balanced_tenants(router) -> List[str]:
    """One synthetic tenant name per shard, ordered by shard index.

    Stamping request *j* with ``tenants[j % shards]`` spreads any
    workload evenly, so the bench measures shard parallelism, not hash
    luck.
    """
    found: Dict[int, str] = {}
    index = 0
    while len(found) < router.shards:
        name = f"tenant-{index:04d}"
        found.setdefault(router.route(name), name)
        index += 1
    return [found[shard] for shard in range(router.shards)]


def measure_fleet_throughput(shards: int, requests: int = 96,
                             latency: float = 0.002) -> Dict[str, object]:
    """Monitored ``GET /cmonitor/volumes`` throughput through a fleet.

    Every substrate send first sleeps *latency* seconds of real time.
    The workload is read-only, so concurrent shards never race on
    substrate writes; it is pre-partitioned per shard by synthetic
    tenant, and one driver thread per shard replays its partition.
    """
    cloud = PrivateCloud.paper_setup()
    for host in HOSTS:
        cloud.network.inject_fault(host, Latency(latency, system_clock))
    fleet = MonitorFleet.for_service(
        "cinder", cloud.network, "myProject", shards=shards,
        tenant_key=tenant_header_key, options=MonitorOptions(fanout=1))
    tokens = sorted(cloud.paper_tokens().values())
    tenants = balanced_tenants(fleet.router)
    partitions: List[List[Request]] = [[] for _ in range(shards)]
    for number in range(requests):
        shard = number % shards
        partitions[shard].append(Request(
            "GET", "http://cmonitor/cmonitor/volumes",
            headers={"X-Auth-Token": tokens[number % len(tokens)],
                     "X-Tenant": tenants[shard]}))

    statuses: List[int] = []
    status_lock = threading.Lock()
    barrier = threading.Barrier(shards + 1)

    def drive(partition: List[Request]) -> None:
        barrier.wait()
        seen = [fleet.handle(request).status_code for request in partition]
        with status_lock:
            statuses.extend(seen)

    threads = [threading.Thread(target=drive, args=(partition,))
               for partition in partitions]
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        fleet.close()
    assert len(statuses) == requests
    return {
        "shards": shards,
        "throughput": requests / elapsed,
        "failures": sum(1 for status in statuses if status >= 500),
        "dispatched": list(fleet.dispatched),
        "verdicts": len(fleet.log),
    }


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


def test_bench_scaling_fleet_speedup(benchmark):
    """The acceptance line: >= 2x throughput at 4 shards vs 1.

    Shards overlap their substrate waits (the latency fault really
    sleeps), so 4 shards should approach 4x; the 2x bar leaves headroom
    for scheduling noise on loaded CI machines.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    runs = [measure_fleet_throughput(shards, requests=96, latency=0.002)
            for shards in (1, 2, 4)]
    speedup = runs[-1]["throughput"] / runs[0]["throughput"]

    print("\n[SCALE] shards  throughput(req/s)")
    for run in runs:
        print(f"[SCALE] {run['shards']:<7} {run['throughput']:>12.1f}")
    print(f"[SCALE] speedup at 4 shards: {speedup:.2f}x")

    for run in runs:
        assert run["failures"] == 0
    assert speedup >= 2.0
