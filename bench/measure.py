"""Drive one workload, check its outputs, and compute its metrics.

One run, in one fresh interpreter, of a fixed amount of work (the same
on every commit):

1. **warm-up** -- a fixed number of untimed requests on the deployment
   the run measures; on single-monitor workloads the verdicts they
   produce are digest-pinned for the default seed;
2. **timed blocks** -- closed-loop clients (one per shard) send the
   run's timed requests in blocks of at least :data:`BLOCK` requests.
   Before each block one fresh deployment is built and timed for
   ``setup_s``, so set-up samples are spread over the run as the blocks
   are.  Each end-to-end metric is the median over the blocks (and
   ``setup_s`` the median over the builds): the machines this runs on
   are shared, and a median over a run's blocks sheds the seconds some
   other tenant took.

With tracing on, set-up is skipped and the timed requests are replaced
by an untraced quarter, which gives the reference latency and the
off-CPU time, and a traced quarter, which gives the per-layer numbers.
Every reply and every verdict of the run is then checked.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.monitor import Verdict

from .layers import LayerTracer, layer_report
from .workloads import Deployment, Workload

#: Fewest timed requests in a block: its p99 has ten samples beyond it.
BLOCK = 1000
#: Most blocks in one run.
MAX_BLOCKS = 16
#: Fewest fresh deployments timed for ``setup_s``.
SETUP_BUILDS = 7
#: The largest share of traced time the layers may leave unattributed.
UNATTRIBUTED_LIMIT = 0.05
#: Pinned warm-up digests and status histograms (default seed only).
EXPECTED = Path(__file__).resolve().parent / "expected.json"
ALLOWED_VERDICTS = {Verdict.VALID, Verdict.PRE_BLOCKED}


class Phase:
    """What the clients saw while sending one batch of requests."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: Reply status per request, in send order per client; ``None``
        #: means the request raised.
        self.statuses: List[Optional[int]] = []
        self.errors: List[str] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.offcpu = 0.0

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for status in self.statuses
                   if status is None or status >= 500)


def _client_loop(client, phase: Phase, lock: threading.Lock, quota: int,
                 tracer: Optional[LayerTracer], offcpu: bool) -> None:
    clock = time.perf_counter
    thread_clock = time.thread_time
    latencies, statuses, errors = [], [], []
    off = 0.0
    for _ in range(quota):
        if tracer is not None:
            tracer.begin_request()
        cpu_start = thread_clock() if offcpu else 0.0
        start = clock()
        try:
            status = client.step().status_code
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            status = None
            errors.append(repr(exc))
        end = clock()
        if offcpu:
            off += (end - start) - (thread_clock() - cpu_start)
        latencies.append(end - start)
        statuses.append(status)
    with lock:
        phase.latencies.extend(latencies)
        phase.statuses.extend(statuses)
        phase.errors.extend(errors)
        phase.offcpu += off


def drive(clients, quota: int, tracer: Optional[LayerTracer] = None,
          offcpu: bool = False) -> Phase:
    """Send *quota* requests, split evenly over the clients.

    Each client runs in its own thread; a single client runs on the
    calling thread.
    """
    phase = Phase()
    lock = threading.Lock()
    share, extra = divmod(quota, len(clients))
    gc.collect()
    cpu_start = time.process_time()
    start = time.perf_counter()
    if len(clients) == 1:
        _client_loop(clients[0], phase, lock, quota, tracer, offcpu)
    else:
        threads = [threading.Thread(
            target=_client_loop, name=f"bench-client-{index}",
            args=(client, phase, lock, share + (index < extra), tracer,
                  offcpu))
                   for index, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.wall = time.perf_counter() - start
    phase.cpu = time.process_time() - cpu_start
    return phase


def time_setup(workload: Workload) -> float:
    """Seconds one fresh deployment takes to answer every kind once."""
    gc.collect()
    start = time.perf_counter()
    deployment = Deployment(workload)
    deployment.touch_every_kind()
    elapsed = time.perf_counter() - start
    deployment.close()
    return elapsed


def block_sizes(timed_requests: int) -> List[int]:
    """Split *timed_requests* into blocks of at least :data:`BLOCK`."""
    count = min(MAX_BLOCKS, max(1, timed_requests // BLOCK))
    base, extra = divmod(timed_requests, count)
    return [base + (index < extra) for index in range(count)]


def warmup_record(phase: Phase, verdicts) -> Dict[str, Any]:
    """Digest of the warm-up's (trigger, verdict, status) sequence."""
    digest = hashlib.sha256()
    for verdict, status in zip(verdicts, phase.statuses):
        digest.update(f"{verdict.trigger}|{verdict.verdict}|{status}\n"
                      .encode())
    statuses = Counter(str(status) for status in phase.statuses)
    return {"requests": phase.requests, "sha256": digest.hexdigest(),
            "statuses": dict(sorted(statuses.items()))}


def check_outputs(workload: Workload, deployment: Deployment, seed: int,
                  phases: List[Phase],
                  warmup: Optional[Dict[str, Any]]) -> List[str]:
    """Every correctness check of a run; returns the failures found."""
    failures = []
    sent = sum(phase.requests for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if failed:
        errors = [error for phase in phases for error in phase.errors]
        failures.append(f"{failed} of {sent} requests answered 5xx or "
                        f"raised (first errors: {errors[:3]})")
    verdicts = deployment.verdicts
    if len(verdicts) != sent:
        failures.append(f"{len(verdicts)} verdicts for {sent} requests")
    allowed = ({Verdict.VALID} if deployment.fleet is not None
               else ALLOWED_VERDICTS)
    seen = Counter(verdict.verdict for verdict in verdicts)
    unexpected = {name: count for name, count in seen.items()
                  if name not in allowed}
    if unexpected:
        failures.append(f"verdicts outside {sorted(allowed)}: {unexpected}")
    if deployment.fleet is not None:
        dispatched = sum(deployment.fleet.dispatched)
        if dispatched != sent:
            failures.append(f"fleet dispatched {dispatched} of {sent} "
                            "requests")
    expected = json.loads(EXPECTED.read_text())
    pinned = expected["warmup"].get(workload.name)
    if seed == expected["seed"] and warmup is not None and pinned != warmup:
        failures.append(f"warm-up of seed {seed} differs from the pinned "
                        f"record: got {warmup}, pinned {pinned}")
    return failures


def percentile(samples: List[float], fraction: float) -> float:
    """The *fraction* quantile of *samples* (linear interpolation)."""
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(blocks: List[Phase], setup: List[float]) -> Dict[str, float]:
    """The user-visible metrics: medians over the timed blocks."""
    def median(per_block) -> float:
        return statistics.median(per_block(block) for block in blocks)

    return {
        "throughput_rps": median(lambda block: block.requests / block.wall),
        "latency_p50_ms": median(
            lambda block: percentile(block.latencies, 0.50) * 1e3),
        "latency_p99_ms": median(
            lambda block: percentile(block.latencies, 0.99) * 1e3),
        "cpu_us_per_req": median(
            lambda block: block.cpu / block.requests * 1e6),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(report: Dict[str, Dict[str, Any]], traced: Phase,
              reference: Phase, hit_ratio: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run."""
    def self_us(layer: str) -> float:
        return report.get(layer, {}).get("self_us", 0.0)

    def calls(layer: str) -> float:
        return report.get(layer, {}).get("calls", 0.0)

    traced_us = sum(traced.latencies) / traced.requests * 1e6
    reference_us = sum(reference.latencies) / reference.requests * 1e6
    attributed = sum(entry["self_us"] for entry in report.values())
    probes = (report.get("httpsim", {}).get("by_parent", {})
              .get("core.provider", {}).get("calls", 0.0))
    metrics = {
        "ocl.calls": calls("ocl"),
        "core.provider.probes": probes,
        "core.probecache.hit_ratio": hit_ratio,
        "core.fleet.offcpu_us": reference.offcpu / reference.requests * 1e6,
        "httpsim.sends": calls("httpsim"),
        "cloud.calls": calls("cloud"),
        "obs.metrics.calls": calls("obs.metrics"),
        "bench.traced_us": traced_us,
        "bench.unattributed_us": traced_us - attributed,
        "bench.trace_overhead": traced_us / reference_us,
    }
    for layer in ("ocl", "core.provider", "core.monitor", "core.fleet",
                  "httpsim", "cloud", "obs.metrics", "obs.tracing",
                  "obs.events", "obs.slo", "alerting"):
        metrics[f"{layer}.self_us"] = self_us(layer)
    metrics["cloud.io_us"] = self_us("cloud.io")
    return metrics


def probe_cache_hit_ratio(deployment: Deployment) -> float:
    """Probe-cache hits over lookups across every monitor (0 when off)."""
    hits = misses = 0.0
    for monitor in deployment.monitors:
        hits += monitor.obs.metrics.total("monitor_probe_cache_hits_total")
        misses += monitor.obs.metrics.total(
            "monitor_probe_cache_misses_total")
    return hits / (hits + misses) if hits + misses else 0.0


def run(workload: Workload, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    """One full run; returns metrics, checks and detail as one document.

    *seconds* sets the run length as a request count
    (:meth:`Workload.timed_requests`), so two commits always do the same
    work.
    """
    timed_requests = workload.timed_requests(seconds)
    blocks = [] if trace else block_sizes(timed_requests)
    setup: List[float] = []
    if not trace:
        # Runs with fewer blocks than SETUP_BUILDS time the rest here.
        setup = [time_setup(workload)
                 for _ in range(SETUP_BUILDS - len(blocks))]
    deployment = Deployment(workload)
    try:
        clients = deployment.clients(seed)
        warm = drive(clients, quota=workload.warmup)
        # Fleet clients interleave, so only a single monitor's warm-up
        # has one verdict sequence to pin.
        warmup = (warmup_record(warm, deployment.verdicts)
                  if deployment.fleet is None else None)
        phases = [warm]
        detail: Dict[str, Any] = {}
        if not trace:
            for size in blocks:
                setup.append(time_setup(workload))
                phases.append(drive(clients, quota=size))
            metrics = end_to_end(phases[1:], setup)
            detail["setup_samples_s"] = setup
            detail["blocks"] = [
                {"requests": block.requests, "wall_s": block.wall,
                 "cpu_s": block.cpu,
                 "p50_ms": percentile(block.latencies, 0.50) * 1e3,
                 "p99_ms": percentile(block.latencies, 0.99) * 1e3}
                for block in phases[1:]]
        else:
            quarter = max(len(clients), timed_requests // 4)
            reference = drive(clients, quota=quarter, offcpu=True)
            # Read before the registries are wrapped, so the read itself
            # is not traced.
            hit_ratio = probe_cache_hit_ratio(deployment)
            tracer = LayerTracer()
            tracer.instrument(deployment)
            traced = drive(clients, quota=quarter, tracer=tracer)
            phases += [reference, traced]
            report = layer_report(tracer.totals(), traced.requests)
            metrics = per_layer(report, traced, reference, hit_ratio)
            detail["layers"] = report
            detail["raw_spans"] = tracer.raw_spans()
        failures = check_outputs(workload, deployment, seed, phases, warmup)
        if trace and (metrics["bench.unattributed_us"]
                      > UNATTRIBUTED_LIMIT * metrics["bench.traced_us"]):
            failures.append(
                f"layers leave {metrics['bench.unattributed_us']:.1f} of "
                f"{metrics['bench.traced_us']:.1f} traced us/req "
                f"unattributed (limit {UNATTRIBUTED_LIMIT:.0%})")
        detail["warmup"] = warmup
        detail["verdicts"] = dict(Counter(
            verdict.verdict for verdict in deployment.verdicts))
    finally:
        deployment.close()
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "failures": failures,
        "attempted": sum(phase.requests for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metrics, "detail": detail,
    }
