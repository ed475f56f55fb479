"""Head/tail trace sampling: keep every interesting trace, sample the rest.

At fleet volume the monitor cannot afford to retain every trace and every
wide event -- the observability layer itself would become the availability
risk it exists to catch.  :class:`TraceSampler` implements the classic
head/tail policy on top of the monitor's deterministic substrate:

* **tail (forced)** -- traces that carry signal are always retained: any
  non-``valid`` verdict (violations, blocks, indeterminates, degraded
  forwards), any trace slower than a configured threshold, and any trace
  referenced by an alarm transition or a freshly-installed latency-bucket
  exemplar.  Forced traces are *never* dropped, whatever the rate says.
* **head (sampled)** -- healthy ``valid`` traces are kept with
  probability :attr:`SamplingOptions.rate`, decided by hashing the trace
  id with the seed -- **not** by consuming an RNG stream -- so the same
  trace gets the same decision no matter which shard handles it or how
  many decisions came before.  A fleet whose shards share one
  :class:`~repro.obs.tracing.TraceIdAllocator` (the default wiring)
  therefore makes exactly the decisions the single-monitor run would.

Every decision is counted in ``monitor_traces_sampled_total`` with a
``decision`` label (``kept`` / ``dropped`` / ``forced``), so dropped
traces remain visible in the aggregate even though their spans are gone:
``kept + dropped + forced`` equals the tracer's ``started_count``.  The
same decision drives wide-event shedding -- a dropped trace's
``monitor_request`` event is shed (counted in
``monitor_events_shed_total``) while alarm, transition, and shed events
are structurally never shed.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, Set

__all__ = [
    "DECISIONS",
    "DECISION_DROPPED",
    "DECISION_FORCED",
    "DECISION_KEPT",
    "EVENTS_SHED_COUNTER",
    "SAMPLED_COUNTER",
    "SamplingOptions",
    "TraceSampler",
]

DECISION_KEPT = "kept"
DECISION_DROPPED = "dropped"
DECISION_FORCED = "forced"

#: Every decision class, in exposition order.
DECISIONS = (DECISION_KEPT, DECISION_DROPPED, DECISION_FORCED)

#: Counter family: one increment per finished trace, labelled by decision.
SAMPLED_COUNTER = "monitor_traces_sampled_total"

#: Counter: healthy ``monitor_request`` wide events shed by the sampler.
EVENTS_SHED_COUNTER = "monitor_events_shed_total"

#: The one verdict class the sampler may drop; everything else is tail.
HEALTHY_VERDICT = "valid"


@dataclass(frozen=True)
class SamplingOptions:
    """Typed sampling policy (the ``observability.sampling`` section).

    ``rate`` is the keep probability for healthy traces; ``seed`` makes
    the hash-based decision reproducible; ``slow_threshold`` (seconds,
    0 disables the class) forces traces whose total duration exceeds it;
    ``overhead`` additionally turns on the
    :class:`~repro.obs.overhead.OverheadRecorder` self-accounting.
    """

    rate: float = 0.1
    seed: int = 0
    slow_threshold: float = 0.0
    overhead: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.rate) <= 1.0:
            raise ValueError(
                f"sampling rate must be in [0, 1], got {self.rate}")
        if float(self.slow_threshold) < 0.0:
            raise ValueError(
                "sampling slow_threshold must be >= 0, got "
                f"{self.slow_threshold}")


class TraceSampler:
    """Deterministic head/tail sampling decisions, one per finished trace.

    The sampler is a pure function of ``(seed, trace_id)`` plus the
    forced-class inputs handed to :meth:`decide`; the only mutable state
    is the forced-id set (alarm/exemplar references arrive *before* the
    decision) and the per-decision tallies.  Decisions are counted into
    *metrics* (when given) under :data:`SAMPLED_COUNTER`.
    """

    def __init__(self, options: SamplingOptions, metrics=None):
        self.options = options
        self.metrics = metrics
        self._lock = threading.Lock()
        self._forced_ids: Set[str] = set()
        self.decisions: Dict[str, int] = {d: 0 for d in DECISIONS}
        self.events_shed = 0

    # -- the deterministic coin -------------------------------------------

    def score(self, trace_id: str) -> float:
        """The trace's hash coordinate in [0, 1) -- stable across shards.

        ``sha256(seed | trace_id)`` reduced to a unit float: the same
        trace id always scores the same, so sampling decisions are
        independent of arrival order, shard assignment, and how many
        decisions were made before -- the property that makes merged
        fleet registries equal the single-shard run.
        """
        digest = hashlib.sha256(
            f"{self.options.seed}|{trace_id}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    # -- forced-class bookkeeping -----------------------------------------

    def mark_forced(self, trace_id: str) -> None:
        """Pin *trace_id* into the tail: it will never be dropped.

        Called for traces referenced by an alarm transition or a
        freshly-installed histogram exemplar, before :meth:`decide`.
        """
        with self._lock:
            self._forced_ids.add(trace_id)

    def is_forced(self, trace_id: str) -> bool:
        with self._lock:
            return trace_id in self._forced_ids

    # -- the decision ------------------------------------------------------

    def classify(self, trace_id: str, verdict: str = HEALTHY_VERDICT,
                 duration: float = 0.0) -> str:
        """The decision for one trace, without counting it."""
        threshold = self.options.slow_threshold
        if (verdict != HEALTHY_VERDICT
                or (threshold > 0.0 and duration > threshold)
                or self.is_forced(trace_id)):
            return DECISION_FORCED
        if self.score(trace_id) < self.options.rate:
            return DECISION_KEPT
        return DECISION_DROPPED

    def decide(self, trace_id: str, verdict: str = HEALTHY_VERDICT,
               duration: float = 0.0) -> str:
        """Decide, tally, and count one finished trace.

        Exactly one call per finished trace keeps the reconciliation
        invariant ``kept + dropped + forced == begun``.
        """
        decision = self.classify(trace_id, verdict=verdict,
                                 duration=duration)
        with self._lock:
            self.decisions[decision] += 1
            if decision == DECISION_FORCED:
                # The id already did its job; keep the set bounded.
                self._forced_ids.discard(trace_id)
        if self.metrics is not None:
            self.metrics.counter(
                SAMPLED_COUNTER,
                "Sampling decisions per finished trace "
                "(kept + dropped + forced == traces begun)",
                decision=decision).inc()
        return decision

    def shed_event(self) -> None:
        """Count one healthy wide event shed alongside its dropped trace."""
        with self._lock:
            self.events_shed += 1
        if self.metrics is not None:
            self.metrics.counter(
                EVENTS_SHED_COUNTER,
                "Healthy monitor_request wide events shed by the "
                "sampler (alarm/transition/shed events never shed)"
                ).inc()

    # -- reporting ---------------------------------------------------------

    @property
    def decided(self) -> int:
        """Total decisions made (should equal the tracer's begun count)."""
        with self._lock:
            return sum(self.decisions.values())

    def stats(self) -> Dict[str, int]:
        """Decision tallies plus the shed-event count, JSON-ready."""
        with self._lock:
            stats: Dict[str, int] = dict(self.decisions)
            stats["events_shed"] = self.events_shed
            return stats

    def __repr__(self) -> str:
        return (f"<TraceSampler rate={self.options.rate} "
                f"seed={self.options.seed} decided={self.decided}>")
