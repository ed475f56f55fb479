"""Chaos campaign: the monitor's verdicts under injected transport faults.

The mutation campaign (Section VI-D) asks "does the monitor catch a buggy
cloud?"; this module asks the complementary resilience question: **does a
flaky substrate ever change what the monitor says?**  The answer the
design demands is two-sided:

* under *recoverable* faults (every probe fails once then succeeds, the
  transport retries) the verdict log must be **byte-identical** to a
  fault-free run -- retries are invisible to the verdict stream;
* under *unrecoverable* faults (a host that never answers) every
  monitored request must degrade to the ``indeterminate`` verdict --
  never an unhandled exception, never a spurious valid/invalid.

Both campaigns run the same seeded workload on the same deterministic
stack (seeded RNG, in-process network, ManualClock), so
the ``chaos`` gate (``scripts/gates.py``) can pin the exact digest of the
verdict rows.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

from ..config import (FleetSection, MonitorConfig, MonitorSection,
                      ObservabilitySection, ResilienceSection,
                      build_fleet_from_config, build_from_config)
from ..core import CloudMonitor, Verdict
from ..core.auditlog import verdict_to_json
from ..httpsim import Compose, FailN, Flake, FaultProgram, Latency, by_path
from ..obs.clock import system_clock
from ..workloads import WorkloadRunner, make_workload

#: The hosts the Cinder-scenario monitor talks to; chaos programs are
#: installed on each so probes and forwards both see faults.
CHAOS_HOSTS: Tuple[str, ...] = ("cinder", "keystone")


def chaos_config(enforcing: bool = False,
                 failure_threshold: int = 5,
                 recovery_time: float = 30.0,
                 fanout: int = 1,
                 probe_cache: bool = False,
                 shards: int = 1) -> MonitorConfig:
    """The chaos deployment as a config: resilient transport, manual clock.

    The paper setup behind a ResilientTransport (3 attempts, retry
    jitter seeded with 11) on a ManualClock, so everything is
    deterministic: backoff waits advance virtual time instead of
    sleeping.  *fanout* > 1 lets each probe phase overlap its
    independent probes once recent probes were slow, and *shards* > 1
    puts a :class:`~repro.core.fleet.MonitorFleet` in front (one shared
    ManualClock, one independent transport per shard) -- the verdict
    stream must not change either way, which is what the ``fanout``
    gate checks.  Stand it up with :func:`repro.config.build_from_config`,
    or :func:`repro.config.build_fleet_from_config` for a fleet at any
    width.
    """
    return MonitorConfig(
        monitor=MonitorSection(enforcing=enforcing, fanout=fanout,
                               probe_cache=probe_cache),
        observability=ObservabilitySection(clock="manual"),
        resilience=ResilienceSection(
            enabled=True, max_attempts=3, base_delay=0.05, seed=11,
            failure_threshold=failure_threshold,
            recovery_time=recovery_time),
        fleet=FleetSection(shards=shards))


def recoverable_program() -> FaultProgram:
    """Every distinct probe/forward URL fails once, then succeeds.

    Failures land *before* the application, so a retried POST never
    double-creates; one retry per URL recovers everything.
    """
    return FailN(1, key=by_path)


def flaky_program(rate: float = 0.3, seed: int = 5) -> FaultProgram:
    """Each probe URL flakes deterministically, independent of ordering.

    Keyed by ``(method, path)``: whether attempt *k* on a URL fails is a
    pure hash of (seed, URL, k), so serial, fan-out, and fleet runs see
    the *same* fault landscape even though they interleave requests
    differently -- the precondition for demanding byte-identical
    verdicts across all three under flaky faults.
    """
    return Flake(rate, seed=seed, key=by_path)


def unrecoverable_program() -> FaultProgram:
    """Every request fails, always -- the host is effectively down."""
    return Flake(1.0, seed=0)


def _inject_faults(network, latency: float,
                   fault_factory: Optional[Callable[[], FaultProgram]],
                   ) -> None:
    """Install *latency* (real sleeps) ahead of the fault program on
    every chaos host; either may be absent."""
    for host in CHAOS_HOSTS:
        programs = []
        if latency:
            # The system clock really sleeps: the injected ManualClock,
            # and so every digest, never sees the delay.
            programs.append(Latency(latency, system_clock))
        if fault_factory is not None:
            programs.append(fault_factory())
        if programs:
            network.inject_fault(host, programs[0] if len(programs) == 1
                                 else Compose(*programs))


class ChaosRun:
    """One campaign leg: the workload's verdict rows plus counters."""

    def __init__(self, rows: List[str], histogram: Dict[str, int],
                 retries: float, indeterminate: int, probe_count: int,
                 dispatched: int):
        #: One canonical JSONL row per verdict, in arrival order.
        self.rows = rows
        self.histogram = histogram
        self.retries = retries
        self.indeterminate = indeterminate
        self.probe_count = probe_count
        #: Probe tasks the leg's schedulers ran on pool threads: 0 when
        #: probing stayed serial.
        self.dispatched = dispatched

    def digest(self) -> str:
        """SHA-256 over the verdict rows -- the parity fingerprint."""
        digest = hashlib.sha256()
        for row in self.rows:
            digest.update(row.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


class ChaosReport:
    """Fault-free baseline vs. faulted leg, with the parity verdict."""

    def __init__(self, baseline: ChaosRun, faulted: ChaosRun):
        self.baseline = baseline
        self.faulted = faulted

    @property
    def parity(self) -> bool:
        """True when the faulted verdict rows match the baseline exactly."""
        return self.baseline.rows == self.faulted.rows

    def first_divergence(self) -> Optional[int]:
        """Index of the first differing row, ``None`` on parity."""
        for index, (left, right) in enumerate(
                zip(self.baseline.rows, self.faulted.rows)):
            if left != right:
                return index
        if len(self.baseline.rows) != len(self.faulted.rows):
            return min(len(self.baseline.rows), len(self.faulted.rows))
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "parity": self.parity,
            "baseline_digest": self.baseline.digest(),
            "faulted_digest": self.faulted.digest(),
            "verdict_count": len(self.baseline.rows),
            "faulted_retries": self.faulted.retries,
            "faulted_indeterminate": self.faulted.indeterminate,
        }


def _dispatched(monitors) -> int:
    return sum(monitor.scheduler.dispatched_count for monitor in monitors
               if monitor.scheduler is not None)


def run_leg(count: int = 40, seed: int = 7,
            fault_factory: Optional[Callable[[], FaultProgram]] = None,
            enforcing: bool = False, fanout: int = 1,
            probe_cache: bool = False, latency: float = 0.0) -> ChaosRun:
    """Run the seeded workload once, optionally under a fault program.

    A *fresh* cloud + monitor per leg: chaos must never leak state into
    the baseline it is compared against.  *fanout* > 1 runs the same
    workload with concurrent probe fan-out -- the rows must not change.
    *probe_cache* enables the cross-request probe cache -- the rows must
    not change either (the cache-parity gate).  *latency* makes every
    chaos-host request sleep that many real seconds first, which is
    what engages the adaptive fan-out (see
    :data:`repro.core.scheduler.OVERLAP_AFTER`).
    """
    cloud, monitor = build_from_config(chaos_config(
        enforcing=enforcing, fanout=fanout, probe_cache=probe_cache))
    try:
        _inject_faults(cloud.network, latency, fault_factory)
        runner = WorkloadRunner(cloud, monitor)
        histogram = runner.execute(make_workload(count, seed=seed),
                                   monitored=True)
        metrics = monitor.obs.metrics
        return ChaosRun(
            rows=[verdict_to_json(verdict) for verdict in monitor.log],
            histogram=histogram,
            retries=metrics.total("monitor_retries_total"),
            indeterminate=int(
                metrics.counter_value("monitor_indeterminate_total")),
            probe_count=monitor.provider.probe_count,
            dispatched=_dispatched([monitor]))
    finally:
        monitor.close()


def run_fleet_leg(count: int = 40, seed: int = 7,
                  fault_factory: Optional[Callable[[], FaultProgram]] = None,
                  enforcing: bool = False,
                  shards: int = 4, fanout: int = 1,
                  probe_cache: bool = False,
                  latency: float = 0.0) -> ChaosRun:
    """Run the seeded workload through a sharded fleet.

    Same workload, same deterministic stack, but traffic is partitioned
    across *shards* monitors behind the fleet dispatcher.  The merged,
    arrival-ordered verdict rows must be byte-identical to the serial
    single-monitor leg -- the fleet half of the parity gate.  *latency*
    is :func:`run_leg`'s.
    """
    cloud, fleet = build_fleet_from_config(chaos_config(
        shards=shards, enforcing=enforcing, fanout=fanout,
        probe_cache=probe_cache))
    try:
        _inject_faults(cloud.network, latency, fault_factory)
        runner = WorkloadRunner(cloud)
        histogram = runner.execute(make_workload(count, seed=seed),
                                   monitored=True)
        merged = fleet.merged_metrics()
        return ChaosRun(
            rows=[verdict_to_json(verdict) for verdict in fleet.log],
            histogram=histogram,
            retries=merged.total("monitor_retries_total"),
            indeterminate=int(
                merged.counter_value("monitor_indeterminate_total")),
            probe_count=sum(monitor.provider.probe_count
                            for monitor in fleet.shards),
            dispatched=_dispatched(fleet.shards))
    finally:
        fleet.close()


def run_chaos_campaign(count: int = 40, seed: int = 7,
                       fault_factory: Optional[
                           Callable[[], FaultProgram]] = None,
                       ) -> ChaosReport:
    """Baseline (fault-free) vs. faulted leg over the same workload.

    The default fault program is :func:`recoverable_program`, for which
    the report must come back with ``parity=True``.
    """
    baseline = run_leg(count, seed, None)
    faulted = run_leg(count, seed,
                      fault_factory if fault_factory is not None
                      else recoverable_program)
    return ChaosReport(baseline, faulted)


def run_cache_parity_campaign(count: int = 40, seed: int = 7,
                              fault_factory: Optional[
                                  Callable[[], FaultProgram]] = None,
                              ) -> ChaosReport:
    """Uncached serial leg vs. the same workload with the probe cache.

    The cross-request :class:`~repro.core.probecache.ProbeCache` must be
    invisible to the verdict stream: serving untouched roots from cache
    and re-probing after every mutation has to produce byte-identical
    verdict rows, fault program or not.  The report's ``baseline`` is the
    uncached leg, ``faulted`` the cached one; ``parity`` is the gate.
    """
    uncached = run_leg(count, seed, fault_factory)
    cached = run_leg(count, seed, fault_factory, probe_cache=True)
    return ChaosReport(uncached, cached)


#: The breaker lifecycle a recovery must walk, as (from, to) transitions:
#: failures open it, the recovery window half-opens it, and the trial
#: request's success closes it again.
EXPECTED_BREAKER_SEQUENCE: Tuple[Tuple[str, str], ...] = (
    ("closed", "open"),
    ("open", "half-open"),
    ("half-open", "closed"),
)


def run_breaker_sequence(failure_threshold: int = 2,
                         recovery_time: float = 5.0,
                         host: str = "cinder",
                         ) -> Tuple[CloudMonitor, List[Tuple[str, str]]]:
    """Drive one host's breaker through its full lifecycle.

    Kills *host* until its breaker opens, heals the substrate, advances
    the manual clock past the recovery window, and sends one more
    monitored request so the half-open trial succeeds.  Returns the
    monitor and the ``breaker_transition`` wide events' (from, to) pairs
    for *host*, in emission order -- the structured record the chaos
    campaign asserts instead of sampling the ``monitor_breaker_state``
    gauge between requests.
    """
    cloud, monitor = build_from_config(chaos_config(
        failure_threshold=failure_threshold, recovery_time=recovery_time))
    token = cloud.paper_tokens()["alice"]
    url = "http://cmonitor/cmonitor/volumes"

    cloud.network.inject_fault(host, unrecoverable_program())
    for _ in range(failure_threshold):
        monitor.app.get(url, headers={"X-Auth-Token": token})

    cloud.network.clear_fault(host)
    monitor.obs.clock.advance(recovery_time)
    monitor.app.get(url, headers={"X-Auth-Token": token})

    transitions = [
        (record.get("from_state"), record.get("to_state"))
        for record in monitor.obs.events.filter(event="breaker_transition",
                                                host=host)]
    return monitor, transitions


def assert_breaker_sequence(failure_threshold: int = 2,
                            recovery_time: float = 5.0,
                            host: str = "cinder",
                            ) -> List[Tuple[str, str]]:
    """Assert the closed -> open -> half-open -> closed event sequence.

    Raises ``AssertionError`` when the emitted ``breaker_transition``
    events do not match :data:`EXPECTED_BREAKER_SEQUENCE` exactly;
    returns the observed transitions otherwise.
    """
    monitor, transitions = run_breaker_sequence(
        failure_threshold=failure_threshold, recovery_time=recovery_time,
        host=host)
    assert tuple(transitions) == EXPECTED_BREAKER_SEQUENCE, (
        f"breaker on {host!r} walked {transitions}, expected "
        f"{list(EXPECTED_BREAKER_SEQUENCE)}")
    # The recovery request must have produced a usable verdict again.
    assert monitor.log[-1].verdict != Verdict.INDETERMINATE, (
        "the half-open trial succeeded but the verdict stayed "
        "indeterminate")
    return transitions


def assert_indeterminate_degradation(count: int = 20, seed: int = 7,
                                     ) -> ChaosRun:
    """Run under a dead substrate; every verdict must be indeterminate.

    Returns the run for further inspection; raises ``AssertionError``
    when any request produced something other than a clean
    ``indeterminate`` verdict.
    """
    leg = run_leg(count, seed, unrecoverable_program)
    verdicts = [json.loads(row)["verdict"] for row in leg.rows]
    unexpected = sorted(set(verdicts) - {Verdict.INDETERMINATE})
    assert not unexpected, (
        f"dead substrate produced non-indeterminate verdicts: {unexpected}")
    assert leg.indeterminate == len(leg.rows)
    return leg
