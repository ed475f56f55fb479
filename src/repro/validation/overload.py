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

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.auditlog import verdict_to_json
from ..httpsim import Latency
from ..workloads import Trace

#: The hosts the Cinder-scenario monitor talks to; the Latency program
#: is installed on each so probes and forwards both consume service time.
OVERLOAD_HOSTS: Tuple[str, ...] = ("cinder", "keystone")

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
    from ..config import (AdmissionSection, CloudSection, DeadlineSection,
                          DegradationSection, MonitorConfig, MonitorSection,
                          ObservabilitySection, ResilienceSection)

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


class OverloadRun:
    """One campaign leg: verdicts, modes, and the three pinned digests."""

    def __init__(self, rows: List[str], statuses: List[int],
                 modes: List[str], shed: int,
                 transitions: List[Tuple[str, str]], final_mode: str,
                 metrics_digest: str, events_digest: str,
                 admission_stats: Optional[Dict[str, object]]):
        #: One canonical JSONL row per verdict, in arrival order.
        self.rows = rows
        #: The HTTP status each replayed request came back with.
        self.statuses = statuses
        #: ``monitor_mode`` per monitored request, in arrival order.
        self.modes = modes
        self.shed = shed
        self.transitions = transitions
        self.final_mode = final_mode
        self.metrics_digest = metrics_digest
        self.events_digest = events_digest
        self.admission_stats = admission_stats

    def verdict_digest(self) -> str:
        """SHA-256 over the verdict rows -- the parity fingerprint."""
        digest = hashlib.sha256()
        for row in self.rows:
            digest.update(row.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    @property
    def forwarded(self) -> List[bool]:
        """Per-request ``forwarded`` flags from the verdict rows."""
        return [json.loads(row)["forwarded"] for row in self.rows]

    @property
    def modes_seen(self) -> List[str]:
        """Distinct modes served, in the ladder's escalation order."""
        from ..core.admission import MODES

        seen = set(self.modes)
        return [mode for mode in MODES if mode in seen]


def _lines_digest(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def run_overload_leg(trace: Trace, config,
                     service_time: float = SERVICE_TIME) -> OverloadRun:
    """Replay *trace* (paced on the monitor's clock) through *config*.

    A fresh cloud + monitor per leg, a :class:`~repro.httpsim.Latency`
    program on every substrate host wired to the monitor's own clock --
    so probe and forward sends consume deterministic virtual time and
    the arrival schedule alone decides who sheds.
    """
    from ..config import build_from_config

    cloud, monitor = build_from_config(config)
    try:
        clock = monitor.obs.clock
        if service_time > 0:
            for host in OVERLOAD_HOSTS:
                cloud.network.inject_fault(
                    host, Latency(service_time, clock))
        tokens = cloud.paper_tokens()
        clients = {user: cloud.client(token)
                   for user, token in tokens.items()}
        responses = trace.replay(clients, "cmonitor", clock=clock)

        events = monitor.obs.events.to_dicts()
        modes = [record["monitor_mode"] for record in events
                 if record["event"] == "monitor_request"]
        transitions = [(record["from_mode"], record["to_mode"])
                       for record in events
                       if record["event"] == "monitor_mode_transition"]
        metrics = monitor.obs.metrics
        return OverloadRun(
            rows=[verdict_to_json(verdict) for verdict in monitor.log],
            statuses=[response.status_code for response in responses],
            modes=modes,
            shed=int(metrics.counter_value("monitor_shed_total")),
            transitions=transitions,
            final_mode=(monitor.ladder.mode
                        if monitor.ladder is not None else "full"),
            metrics_digest=hashlib.sha256(json.dumps(
                monitor.obs.export_json(with_traces=False),
                sort_keys=True).encode("utf-8")).hexdigest(),
            events_digest=_lines_digest(
                json.dumps(record, sort_keys=True) for record in events),
            admission_stats=(monitor.admission.stats()
                             if monitor.admission is not None else None))
    finally:
        monitor.close()


class OverloadParityReport:
    """Disabled-controls baseline vs. enabled-but-generous leg."""

    def __init__(self, baseline: OverloadRun, generous: OverloadRun):
        self.baseline = baseline
        self.generous = generous

    @property
    def verdict_parity(self) -> bool:
        return self.baseline.rows == self.generous.rows

    @property
    def metrics_parity(self) -> bool:
        return self.baseline.metrics_digest == self.generous.metrics_digest

    @property
    def events_parity(self) -> bool:
        return self.baseline.events_digest == self.generous.events_digest

    @property
    def parity(self) -> bool:
        """True when all three streams are byte-identical."""
        return (self.verdict_parity and self.metrics_parity
                and self.events_parity)

    def to_dict(self) -> Dict[str, object]:
        return {
            "parity": self.parity,
            "verdict_parity": self.verdict_parity,
            "metrics_parity": self.metrics_parity,
            "events_parity": self.events_parity,
            "verdict_digest": self.baseline.verdict_digest(),
            "metrics_digest": self.baseline.metrics_digest,
            "events_digest": self.baseline.events_digest,
            "verdict_count": len(self.baseline.rows),
        }


def run_parity_campaign(count: int = 12,
                        spacing: float = 1.0) -> OverloadParityReport:
    """Generous overload controls must be byte-invisible on a calm trace."""
    trace = make_calm_trace(count=count, spacing=spacing)
    baseline = run_overload_leg(trace, overload_config(enabled=False))
    generous = run_overload_leg(make_calm_trace(count=count,
                                                spacing=spacing),
                                generous_config())
    return OverloadParityReport(baseline, generous)


class OverloadBurstReport:
    """The burst leg plus its graceful-degradation invariants."""

    def __init__(self, run: OverloadRun, trace_len: int):
        self.run = run
        self.trace_len = trace_len

    @property
    def all_answered(self) -> bool:
        """Every replayed request produced a verdict and a 2xx answer."""
        return (len(self.run.rows) == self.trace_len
                and len(self.run.statuses) == self.trace_len
                and all(status < 500 for status in self.run.statuses))

    @property
    def all_forwarded(self) -> bool:
        return all(self.run.forwarded)

    @property
    def degraded_and_recovered(self) -> bool:
        """Sheds happened, all three modes served, ladder back at full."""
        return (self.run.shed > 0
                and self.run.modes_seen == ["full", "cached_only",
                                            "audit_only"]
                and self.run.final_mode == "full")

    @property
    def ok(self) -> bool:
        return (self.all_answered and self.all_forwarded
                and self.degraded_and_recovered)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "requests": self.trace_len,
            "verdicts": len(self.run.rows),
            "all_answered": self.all_answered,
            "all_forwarded": self.all_forwarded,
            "shed": self.run.shed,
            "modes_seen": self.run.modes_seen,
            "transitions": [list(t) for t in self.run.transitions],
            "final_mode": self.run.final_mode,
            "verdict_digest": self.run.verdict_digest(),
            "metrics_digest": self.run.metrics_digest,
            "events_digest": self.run.events_digest,
        }


def run_burst_campaign(**trace_kwargs) -> OverloadBurstReport:
    """The 10x-burst leg under the tuned burst deployment."""
    trace = make_burst_trace(**trace_kwargs)
    run = run_overload_leg(trace, burst_config())
    return OverloadBurstReport(run, len(trace))


def assert_burst_invariants(report: Optional[OverloadBurstReport] = None,
                            ) -> OverloadBurstReport:
    """Run (or check) the burst leg; raise on any broken invariant.

    The gate's hard contract, spelled out one assertion at a time so a
    failure names the broken property instead of a bare ``ok=False``.
    """
    if report is None:
        report = run_burst_campaign()
    run = report.run
    assert len(run.rows) == report.trace_len, (
        f"burst dropped requests: {len(run.rows)} verdicts for "
        f"{report.trace_len} requests")
    bad = [status for status in run.statuses if status >= 500]
    assert not bad, f"burst produced error responses: {bad}"
    assert all(run.forwarded), (
        "a burst request was not forwarded; overload must degrade, "
        "never block")
    assert run.shed > 0, "the burst never shed -- not an overload"
    assert run.modes_seen == ["full", "cached_only", "audit_only"], (
        f"expected all three modes served, saw {run.modes_seen}")
    assert run.final_mode == "full", (
        f"ladder never recovered: finished at {run.final_mode}")
    assert run.transitions, "no monitor_mode_transition events emitted"
    return report
