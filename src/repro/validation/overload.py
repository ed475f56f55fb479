"""Overload campaign: deadline budgets, shedding, and mode recovery.

The chaos campaign (:mod:`repro.validation.chaos`) answers "does a flaky
substrate change what the monitor says?"; this module answers the
capacity question: **does a traffic burst ever turn the monitor itself
into the outage?**  Two deterministic legs, both digest-pinned by
the ``overload`` gate in ``scripts/gates.py``:

* **parity** -- with the overload controls *enabled but generous* (a
  deadline far beyond any request, an admission queue nothing can
  overflow, a ladder nothing pressures), a calm paced workload must
  produce verdict rows, a metrics export, and a wide-event stream
  **byte-identical** to the same workload with every control disabled.
  The overload machinery must be invisible until it is needed.
* **burst** -- a 10x arrival-rate burst over the same substrate must
  never raise out of ``monitor_request``: every request is forwarded in
  *some* mode (``full``, ``cached_only``, or ``audit_only``), sheds and
  mode transitions appear in metrics and events, and once the burst
  drains the ladder recovers to ``full``.

Everything runs on one :class:`~repro.obs.clock.ManualClock` with
``tick=0``: arrival pacing (:meth:`~repro.workloads.trace.Trace.replay`)
advances the clock to each entry's ``at``, and a
:class:`~repro.httpsim.Latency` fault program on the substrate hosts
makes every probe/forward send *consume* virtual service time.  Load is
therefore a pure function of the trace and the per-send latency: when
arrivals outrun service time, virtual queue lag accrues, admission
sheds, and the ladder climbs -- byte-identically on every run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import (AdmissionSection, CloudSection, DeadlineSection,
                      DegradationSection, MonitorConfig, MonitorSection,
                      ObservabilitySection, ResilienceSection)
from ..core.admission import MODES
from ..httpsim import Latency
from ..workloads import Trace
from .legs import LegRecord, run_leg

#: Virtual seconds one substrate send costs in every campaign leg.
SERVICE_TIME = 0.05

#: "Never triggers" thresholds for the parity leg's enabled controls.
GENEROUS = 1e6

# -- burst shape (tuned so the ladder deterministically walks
#    full -> cached_only -> audit_only and back to full) -------------------
#
# The deadline sits *below* the shed threshold on purpose: as queue lag
# ramps up, requests first exhaust their budgets (probes abandoned,
# ``deadline_exceeded`` degraded forwards) and only then start shedding
# -- both overload paths appear in one burst.  The ladder is shed-driven
# (``alarm_escalation=False``): the Latency program inflates every span
# past the stage-latency SLO threshold, so alarm coupling here would pin
# the ladder at ``audit_only`` forever instead of testing recovery (the
# alarm-severity path is covered by unit tests).
BURST_DEADLINE = 0.35
BURST_QUEUE_SECONDS = 0.5
BURST_ESCALATE_AFTER = 2
BURST_CLEAR_AFTER = 3


def overload_config(enabled: bool = True,
                    timeout: float = 30.0,
                    max_inflight: int = 64,
                    queue_depth: int = 128,
                    queue_seconds: float = 1.0,
                    escalate_after: int = 1,
                    clear_after: int = 8,
                    alarm_escalation: bool = True,
                    probe_cache: bool = True):
    """The overload deployment as data: manual clock, resilient transport.

    ``enabled=False`` leaves every overload section at its disabled
    default -- the parity baseline.  ``probe_cache`` defaults on because
    the ``cached_only`` rung is only meaningful with a cache to serve
    from.
    """
    return MonitorConfig(
        cloud=CloudSection(volume_quota=5),
        monitor=MonitorSection(enforcing=False, probe_cache=probe_cache),
        observability=ObservabilitySection(clock="manual", tick=0.0),
        resilience=ResilienceSection(enabled=True, seed=11),
        deadline=DeadlineSection(enabled=enabled, timeout=timeout),
        admission=AdmissionSection(enabled=enabled,
                                   max_inflight=max_inflight,
                                   queue_depth=queue_depth,
                                   queue_seconds=queue_seconds),
        degradation=DegradationSection(enabled=enabled,
                                       escalate_after=escalate_after,
                                       clear_after=clear_after,
                                       alarm_escalation=alarm_escalation))


def generous_config():
    """Every control enabled, every threshold beyond reach (parity leg).

    ``alarm_escalation`` is the one ladder input with no numeric
    threshold to push out of reach -- any critical alarm triggers it, and
    the Latency program deliberately drives the stage-latency SLO
    critical -- so its generous setting is *off*.
    """
    return overload_config(enabled=True, timeout=GENEROUS,
                           queue_seconds=GENEROUS, escalate_after=1,
                           clear_after=1, alarm_escalation=False)


def burst_config():
    """The tuned burst deployment the overload gate pins."""
    return overload_config(enabled=True, timeout=BURST_DEADLINE,
                           queue_seconds=BURST_QUEUE_SECONDS,
                           escalate_after=BURST_ESCALATE_AFTER,
                           clear_after=BURST_CLEAR_AFTER,
                           alarm_escalation=False)


def make_calm_trace(count: int = 12, spacing: float = 1.0,
                    users: Tuple[str, ...] = ("carol", "alice"),
                    path: str = "/cmonitor/volumes") -> Trace:
    """A paced read workload whose arrivals never outrun service time."""
    trace = Trace()
    for index in range(count):
        trace.record(users[index % len(users)], "GET", path,
                     at=index * spacing)
    return trace


def make_burst_trace(healthy: int = 10, burst: int = 24,
                     recovery: int = 16,
                     healthy_spacing: float = 1.0,
                     burst_spacing: float = 0.02,
                     recovery_spacing: float = 5.0,
                     recovery_gap: float = 3601.0,
                     burst_write_at: Optional[int] = 12,
                     users: Tuple[str, ...] = ("carol", "alice"),
                     path: str = "/cmonitor/volumes") -> Trace:
    """Healthy -> 10x burst -> long-gap recovery, as arrival timestamps.

    * *healthy*: arrivals spaced well beyond the full-mode service time,
      so the probe cache warms and nothing sheds;
    * *burst*: arrivals packed tighter than even the cheapest
      (audit-only) service time, so virtual lag grows monotonically and
      admission sheds for the rest of the phase.  Entry *burst_write_at*
      (an index into the burst phase) is a POST: the forwarded mutation
      invalidates the warm probe cache, so the lagged GETs behind it
      must probe live on already-exhausted budgets -- the
      ``deadline_exceeded`` degradation path fires mid-burst;
    * *recovery*: after a gap long enough to drain both SLO burn windows
      (mirroring the alarm campaign's 3600.5s advance), calm arrivals
      let the ladder's ``clear_after`` hysteresis walk back to ``full``.
    """
    trace = Trace()
    index = 0

    def add(at: float) -> None:
        nonlocal index
        trace.record(users[index % len(users)], "GET", path, at=at)
        index += 1

    for step in range(healthy):
        add(step * healthy_spacing)
    burst_start = healthy * healthy_spacing
    for step in range(burst):
        at = burst_start + step * burst_spacing
        if step == burst_write_at:
            trace.record("bob", "POST", path,
                         payload={"volume": {"name": "burst-write"}},
                         at=at)
            index += 1
        else:
            add(at)
    recovery_start = burst_start + burst * burst_spacing + recovery_gap
    for step in range(recovery):
        add(recovery_start + step * recovery_spacing)
    return trace


def service_time(clock) -> Latency:
    """Every substrate send consumes :data:`SERVICE_TIME` on *clock*.

    The fault factory every overload and sampling parity leg installs,
    wired to the monitor's own clock, so probe and forward sends consume
    deterministic virtual time and the arrival schedule alone decides
    who sheds.
    """
    return Latency(SERVICE_TIME, clock)


def calm_leg(config) -> LegRecord:
    """:func:`make_calm_trace` through *config*, at :data:`SERVICE_TIME`."""
    return run_leg(config, make_calm_trace(), (service_time,))


def burst_leg() -> LegRecord:
    """The 10x-burst trace through the tuned burst deployment."""
    return run_leg(burst_config(), make_burst_trace(), (service_time,))


def stream_parity(baseline: LegRecord,
                  other: LegRecord) -> Dict[str, object]:
    """Verdict, metrics and event parity of two legs, with the
    baseline's digests; ``parity`` holds when all three streams are
    byte-identical."""
    verdicts = baseline.rows == other.rows
    metrics = baseline.metrics_digest() == other.metrics_digest()
    events = baseline.events_digest() == other.events_digest()
    return {
        "parity": verdicts and metrics and events,
        "verdict_parity": verdicts,
        "metrics_parity": metrics,
        "events_parity": events,
        "verdict_digest": baseline.digest(),
        "metrics_digest": baseline.metrics_digest(),
        "events_digest": baseline.events_digest(),
        "verdict_count": len(baseline.rows),
    }


def modes_seen(record: LegRecord) -> List[str]:
    """Distinct modes served, in the ladder's escalation order."""
    seen = {event["monitor_mode"] for event in record.events()
            if event["event"] == "monitor_request"}
    return [mode for mode in MODES if mode in seen]


def transitions(record: LegRecord) -> List[Tuple[str, str]]:
    """The ladder's (from, to) mode transitions, in emission order."""
    return [(event["from_mode"], event["to_mode"])
            for event in record.events()
            if event["event"] == "monitor_mode_transition"]


def shed(record: LegRecord) -> int:
    """Requests admission control shed."""
    return int(record.metrics.counter_value("monitor_shed_total"))


def final_mode(record: LegRecord) -> str:
    """The ladder's mode once the traffic drained."""
    ladder = record.monitors[0].ladder
    return ladder.mode if ladder is not None else "full"


def burst_summary(record: LegRecord) -> Dict[str, object]:
    """The burst leg's graceful-degradation facts and digests."""
    all_answered = (len(record.rows) == len(record.statuses)
                    and all(status < 500 for status in record.statuses))
    all_forwarded = all(verdict.forwarded for verdict in record.verdicts)
    seen = modes_seen(record)
    summary = {
        "requests": len(record.statuses),
        "verdicts": len(record.rows),
        "all_answered": all_answered,
        "all_forwarded": all_forwarded,
        "shed": shed(record),
        "modes_seen": seen,
        "transitions": [list(pair) for pair in transitions(record)],
        "final_mode": final_mode(record),
        "verdict_digest": record.digest(),
        "metrics_digest": record.metrics_digest(),
        "events_digest": record.events_digest(),
    }
    summary["ok"] = (all_answered and all_forwarded and summary["shed"] > 0
                     and seen == list(MODES)
                     and summary["final_mode"] == "full")
    return summary


def assert_burst_invariants(record: LegRecord) -> LegRecord:
    """Check the burst leg; raise on any broken invariant.

    The gate's hard contract, spelled out one assertion at a time so a
    failure names the broken property instead of a bare ``ok=False``.
    """
    requests = len(record.statuses)
    assert len(record.rows) == requests, (
        f"burst dropped requests: {len(record.rows)} verdicts for "
        f"{requests} requests")
    bad = [status for status in record.statuses if status >= 500]
    assert not bad, f"burst produced error responses: {bad}"
    assert all(verdict.forwarded for verdict in record.verdicts), (
        "a burst request was not forwarded; overload must degrade, "
        "never block")
    assert shed(record) > 0, "the burst never shed -- not an overload"
    seen = modes_seen(record)
    assert seen == ["full", "cached_only", "audit_only"], (
        f"expected all three modes served, saw {seen}")
    assert final_mode(record) == "full", (
        f"ladder never recovered: finished at {final_mode(record)}")
    assert transitions(record), "no monitor_mode_transition events emitted"
    return record
