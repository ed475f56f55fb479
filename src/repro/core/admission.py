"""Deadline budgets, admission control, and the degradation ladder.

The monitor sits on the request path, so its availability bounds the
cloud's: a slow or dead substrate must never turn into an unbounded
stall inside ``monitor_request``, and a traffic burst must never turn
into an outage caused by the monitor itself.  This module is the
overload story, in three deterministic pieces:

* :class:`DeadlineBudget` -- a per-request time budget on the injectable
  clock.  The budget is threaded into
  :class:`~repro.core.resilience.ResilientTransport` (retry delays and
  attempt counts are capped by the remaining budget) and into
  :class:`~repro.core.scheduler.ProbeScheduler` (a probe phase abandons
  its pending probes once the budget is exhausted).  A request whose
  budget dies mid-workflow degrades to a pass-through forward with an
  ``indeterminate`` verdict carrying a ``deadline_exceeded`` reason --
  the deadline never blocks the forward.
* :class:`AdmissionController` -- bounded in-flight slots plus a queue
  with a *deterministic* shed decision.  Real thread concurrency is
  bounded by the slots; deterministic single-threaded replay (the
  overload campaign) sheds on *virtual queue lag*: when a request's
  scheduled arrival time (stamped by the paced trace replayer in
  :data:`ARRIVAL_HEADER`) trails the clock by more than
  ``queue_seconds``, the backlog has outrun capacity and the request is
  shed.  Shed requests are not dropped -- the monitor serves them in
  ``audit_only`` mode (forward + audit log, no contract evaluation).
* :class:`DegradationLadder` -- the mode state machine ``full ->
  cached_only -> audit_only`` driven by shed pressure and alarm
  severity, with hysteretic recovery mirroring the alarm engine's
  ``clear_after`` pattern: escalation is immediate (*escalate_after*
  consecutive pressure signals), de-escalation steps down one rung only
  after *clear_after* consecutive calm requests.

Everything here is disabled by default and adds **zero clock reads** to
the default monitored path, preserving byte-parity with the recorded
digest gates; the ``overload`` gate in ``scripts/gates.py`` pins both
the parity and the burst behavior.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import MonitorError
from ..obs.clock import Clock

#: Header the paced trace replayer stamps with the entry's scheduled
#: arrival time; the monitor reads it to measure virtual queue lag and
#: to start the deadline budget at *arrival* (queue wait counts against
#: the budget, exactly like a real server's deadline propagation).  It
#: is monitor-internal: the forward strips it.
ARRIVAL_HEADER = "X-Monitor-Arrival"

#: The degradation ladder's rungs, mildest first.
MODES = ("full", "cached_only", "audit_only")

#: Gauge encoding for the ``monitor_degraded_mode`` metric.
MODE_GAUGE = {mode: index for index, mode in enumerate(MODES)}


class DeadlineBudget:
    """A per-request time budget measured on the injectable clock.

    ``start`` defaults to a clock reading at construction; the overload
    path passes the request's *scheduled arrival* instead, so time spent
    queueing behind a backlog counts against the budget (that is what
    makes the deterministic burst campaign exhaust deadlines without any
    wall-clock sleeping).  All queries accept an optional ``now`` so
    callers that already hold a clock reading add no extra reads.
    """

    __slots__ = ("clock", "timeout", "start", "deadline")

    def __init__(self, timeout: float, clock: Clock,
                 start: Optional[float] = None):
        if timeout <= 0:
            raise MonitorError(
                f"a deadline budget needs a positive timeout, got {timeout}")
        self.clock = clock
        self.timeout = float(timeout)
        self.start = float(clock() if start is None else start)
        self.deadline = self.start + self.timeout

    def remaining(self, now: Optional[float] = None) -> float:
        """Seconds left before the deadline (never negative)."""
        if now is None:
            now = self.clock()
        return max(0.0, self.deadline - now)

    def exhausted(self, now: Optional[float] = None) -> bool:
        """True once the deadline has passed."""
        return self.remaining(now) <= 0.0

    def allows(self, delay: float, now: Optional[float] = None) -> bool:
        """True when waiting *delay* seconds still fits the budget.

        The transport asks this before every retry sleep: a delay that
        would overshoot the deadline is pointless -- the caller would
        abandon the request before the retry lands.
        """
        return delay <= self.remaining(now)

    def __repr__(self) -> str:
        return (f"<DeadlineBudget timeout={self.timeout} "
                f"deadline={self.deadline}>")


class AdmissionController:
    """Bounded in-flight slots + queue with a deterministic shed decision.

    Two independent shed triggers, one per execution style:

    * **slots** (threaded deployments): up to *max_inflight* requests
      hold slots concurrently; the next *queue_depth* are admitted as
      ``queued`` (over the soft limit, counted as queue pressure);
      beyond that the request is shed.  Admission never blocks -- a
      queued request proceeds immediately, the states are load
      bookkeeping, not a waiting room.
    * **virtual lag** (deterministic replay): when the caller knows the
      request's scheduled arrival time, ``now - scheduled_at`` is the
      time the request already spent queued behind the backlog; lag
      beyond *queue_seconds* sheds.  This is a pure function of the
      arrival sequence and the clock, so single-threaded burst replays
      shed byte-identically on every run.

    Shed requests do **not** hold a slot: the monitor serves them as a
    cheap audit-only pass-through.
    """

    #: Decision labels (also the values of the ``decision`` wide-event
    #: field and the keys of :meth:`stats`).
    ADMIT = "admitted"
    QUEUED = "queued"
    SHED = "shed"

    def __init__(self, max_inflight: int = 64, queue_depth: int = 128,
                 queue_seconds: float = 1.0):
        if max_inflight < 1:
            raise MonitorError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if queue_depth < 0:
            raise MonitorError(
                f"queue_depth cannot be negative, got {queue_depth}")
        if queue_seconds < 0:
            raise MonitorError(
                f"queue_seconds cannot be negative, got {queue_seconds}")
        self.max_inflight = int(max_inflight)
        self.queue_depth = int(queue_depth)
        self.queue_seconds = float(queue_seconds)
        self.in_flight = 0
        self.last_lag = 0.0
        self._counts = {self.ADMIT: 0, self.QUEUED: 0, self.SHED: 0}
        self._lock = threading.Lock()

    def admit(self, now: Optional[float] = None,
              scheduled_at: Optional[float] = None) -> str:
        """Decide one request; admitted/queued requests hold a slot.

        Callers must pair every non-shed decision with :meth:`release`.
        """
        lag = 0.0
        if now is not None and scheduled_at is not None:
            lag = max(0.0, now - scheduled_at)
        with self._lock:
            self.last_lag = lag
            if self.in_flight >= self.max_inflight + self.queue_depth:
                decision = self.SHED
            elif lag > self.queue_seconds:
                decision = self.SHED
            elif self.in_flight >= self.max_inflight:
                decision = self.QUEUED
            else:
                decision = self.ADMIT
            if decision != self.SHED:
                self.in_flight += 1
            self._counts[decision] += 1
        return decision

    def release(self) -> None:
        """Return the slot an admitted/queued request held."""
        with self._lock:
            if self.in_flight > 0:
                self.in_flight -= 1

    def stats(self) -> Dict[str, Any]:
        """Decision counts plus the live slot occupancy."""
        with self._lock:
            stats: Dict[str, Any] = dict(self._counts)
            stats["in_flight"] = self.in_flight
            stats["last_lag"] = self.last_lag
        return stats

    def __repr__(self) -> str:
        return (f"<AdmissionController in_flight={self.in_flight}/"
                f"{self.max_inflight}+{self.queue_depth} "
                f"shed={self._counts[self.SHED]}>")


class DegradationLadder:
    """The hysteretic mode state machine ``full -> cached_only -> audit_only``.

    :meth:`observe` is called once per request with two signals: whether
    admission shed the request (load pressure) and the alarm engine's
    overall severity.  *escalate_after* consecutive pressure signals
    climb one rung (escalation is eager, like the alarm engine's
    immediate WARN); *clear_after* consecutive calm signals step down
    one rung (recovery is hysteretic, mirroring the alarm engine's
    ``clear_after`` de-escalation -- one flapping request must not
    bounce the fleet between modes).
    """

    def __init__(self, escalate_after: int = 1, clear_after: int = 8,
                 alarm_escalation: bool = True):
        if escalate_after < 1:
            raise MonitorError(
                f"escalate_after must be >= 1, got {escalate_after}")
        if clear_after < 1:
            raise MonitorError(
                f"clear_after must be >= 1, got {clear_after}")
        self.escalate_after = int(escalate_after)
        self.clear_after = int(clear_after)
        #: When True, a ``critical`` alarm severity counts as pressure
        #: even without sheds: a monitor burning its error budget backs
        #: off live probing before admission ever triggers.
        self.alarm_escalation = bool(alarm_escalation)
        self._level = 0
        self._pressure_streak = 0
        self._calm_streak = 0
        #: Every mode change as ``(from_mode, to_mode)``, in order.
        self.transitions: list = []
        self._lock = threading.Lock()

    @property
    def mode(self) -> str:
        """The current rung."""
        return MODES[self._level]

    def observe(self, shed: bool, severity: str = "ok",
                ) -> Tuple[str, Optional[Tuple[str, str]]]:
        """Feed one request's signals; returns ``(mode, transition)``.

        *transition* is ``(from_mode, to_mode)`` when this observation
        changed the rung, else ``None``.
        """
        pressure = bool(shed) or (self.alarm_escalation
                                  and severity == "critical")
        with self._lock:
            before = self._level
            if pressure:
                self._pressure_streak += 1
                self._calm_streak = 0
                if (self._pressure_streak >= self.escalate_after
                        and self._level < len(MODES) - 1):
                    self._level += 1
                    self._pressure_streak = 0
            else:
                self._calm_streak += 1
                self._pressure_streak = 0
                if (self._calm_streak >= self.clear_after
                        and self._level > 0):
                    self._level -= 1
                    self._calm_streak = 0
            transition = None
            if self._level != before:
                transition = (MODES[before], MODES[self._level])
                self.transitions.append(transition)
            return MODES[self._level], transition

    def stats(self) -> Dict[str, Any]:
        """Current rung plus the transition history."""
        with self._lock:
            return {
                "mode": MODES[self._level],
                "transitions": [list(t) for t in self.transitions],
            }

    def __repr__(self) -> str:
        return (f"<DegradationLadder {self.mode} "
                f"transitions={len(self.transitions)}>")


# -- typed options (threaded through MonitorOptions / config) ---------------

@dataclass(frozen=True)
class DeadlineOptions:
    """Per-request deadline parameters; ``None`` on the options object
    keeps deadlines off entirely (zero clock reads added)."""

    timeout: float = 30.0

    def budget(self, clock: Clock,
               start: Optional[float] = None) -> DeadlineBudget:
        """A fresh budget for one request."""
        return DeadlineBudget(self.timeout, clock, start=start)


@dataclass(frozen=True)
class AdmissionOptions:
    """Admission-controller parameters (one controller per shard)."""

    max_inflight: int = 64
    queue_depth: int = 128
    queue_seconds: float = 1.0

    def build(self) -> AdmissionController:
        return AdmissionController(max_inflight=self.max_inflight,
                                   queue_depth=self.queue_depth,
                                   queue_seconds=self.queue_seconds)


@dataclass(frozen=True)
class DegradationOptions:
    """Degradation-ladder parameters (one ladder per shard)."""

    escalate_after: int = 1
    clear_after: int = 8
    alarm_escalation: bool = True

    def build(self) -> DegradationLadder:
        return DegradationLadder(escalate_after=self.escalate_after,
                                 clear_after=self.clear_after,
                                 alarm_escalation=self.alarm_escalation)


def parse_arrival(request) -> Optional[float]:
    """The scheduled arrival stamped on *request*, or ``None``.

    Tolerant by design: a malformed header means "no arrival known",
    never an error -- admission must not be a new way to 500.
    """
    raw = request.headers.get(ARRIVAL_HEADER)
    if raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None
