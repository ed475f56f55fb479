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

Both campaigns run the same seeded workload through
:func:`~repro.validation.legs.run_leg` on the same deterministic stack
(seeded RNG, in-process network, ManualClock), so the ``chaos`` gate
(``scripts/gates.py``) can pin the exact digest of the verdict rows.
The fault programs below are fault factories: ``run_leg`` calls each
once per substrate host with the deployment's clock.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import (FleetSection, MonitorConfig, MonitorSection,
                      ObservabilitySection, ResilienceSection,
                      build_from_config)
from ..core import CloudMonitor, Verdict
from ..httpsim import FailN, Flake, FaultProgram, Latency, by_path
from ..obs.clock import system_clock
from ..workloads import make_workload
from .legs import FaultFactory, LegRecord, run_leg


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
    gate checks.  Run it with :func:`~repro.validation.legs.run_leg`.
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


def recoverable_program(clock) -> FaultProgram:
    """Every distinct probe/forward URL fails once, then succeeds.

    Failures land *before* the application, so a retried POST never
    double-creates; one retry per URL recovers everything.  Like every
    fault factory here it ignores the deployment's *clock*.
    """
    return FailN(1, key=by_path)


def flaky_program(clock, rate: float = 0.3, seed: int = 5) -> FaultProgram:
    """Each probe URL flakes deterministically, independent of ordering.

    Keyed by ``(method, path)``: whether attempt *k* on a URL fails is a
    pure hash of (seed, URL, k), so serial, fan-out, and fleet runs see
    the *same* fault landscape even though they interleave requests
    differently -- the precondition for demanding byte-identical
    verdicts across all three under flaky faults.
    """
    return Flake(rate, seed=seed, key=by_path)


def unrecoverable_program(clock) -> FaultProgram:
    """Every request fails, always -- the host is effectively down."""
    return Flake(1.0, seed=0)


def real_latency(seconds: float) -> FaultFactory:
    """A fault factory: every send first sleeps *seconds* of real time.

    The system clock really sleeps, so the deployment's ManualClock --
    and so every digest -- never sees the delay; installed ahead of a
    fault program, it is what engages the adaptive fan-out (see
    :data:`repro.core.scheduler.OVERLAP_AFTER`).
    """
    return lambda clock: Latency(seconds, system_clock)


def retries(record: LegRecord) -> float:
    """Transport retries the leg absorbed."""
    return record.metrics.total("monitor_retries_total")


def indeterminate(record: LegRecord) -> int:
    """Requests the leg could not judge."""
    return int(record.metrics.counter_value("monitor_indeterminate_total"))


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
    clock = monitor.obs.clock
    token = cloud.paper_tokens()["alice"]
    url = "http://cmonitor/cmonitor/volumes"

    cloud.network.inject_fault(host, unrecoverable_program(clock))
    for _ in range(failure_threshold):
        monitor.app.get(url, headers={"X-Auth-Token": token})

    cloud.network.clear_fault(host)
    clock.advance(recovery_time)
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
                                     ) -> LegRecord:
    """Run under a dead substrate; every verdict must be indeterminate.

    Returns the leg for further inspection; raises ``AssertionError``
    when any request produced something other than a clean
    ``indeterminate`` verdict.
    """
    leg = run_leg(chaos_config(), make_workload(count, seed=seed),
                  (unrecoverable_program,))
    unexpected = sorted({verdict.verdict for verdict in leg.verdicts}
                        - {Verdict.INDETERMINATE})
    assert not unexpected, (
        f"dead substrate produced non-indeterminate verdicts: {unexpected}")
    assert indeterminate(leg) == len(leg.rows)
    return leg
