"""Sampling campaign: the observability layer must never change the story.

Two deterministic legs, mirroring the overload campaign's split between
"invisible when idle" and "correct when active":

* **parity** -- a config whose ``observability.sampling`` block is
  *present but disabled* (:data:`DISABLED_SAMPLING`, with non-default
  knobs, so nothing can leak through them) must produce verdict rows, a
  metrics export, and a wide-event stream **byte-identical** to the same
  workload under a config with no sampling block at all.  Head/tail
  sampling has to be a pure opt-in: its existence in the schema must
  cost nothing.
* **invariants** -- with sampling *enabled*, the audit log and the
  counters must reconcile on every volume rung (:func:`overhead_rung`):
  ``kept + dropped + forced`` equals traces begun equals verdict rows,
  every dropped trace sheds exactly one wide event, no non-``valid``
  verdict's trace is ever sampled away, retained traces stay within
  the tracer rings, and the same seed replays the same decisions.

Both legs run on a :class:`~repro.obs.clock.ManualClock`, so every run
is byte-reproducible; ``scripts/gates.py --only overhead`` pins them.
"""

from __future__ import annotations

from typing import Dict, List

from ..config import (
    CloudSection,
    FleetSection,
    MonitorConfig,
    MonitorSection,
    ObservabilitySection,
    SamplingSection,
)
from ..obs.overhead import OVERHEAD_HISTOGRAM
from ..obs.sampling import EVENTS_SHED_COUNTER, SAMPLED_COUNTER
from ..workloads import Trace, poisson_arrivals, status_histogram
from .legs import LegRecord, run_leg

#: A present-but-disabled sampling block with deliberately non-default
#: knobs: if any of them leaked into a disabled run, parity would break.
DISABLED_SAMPLING = SamplingSection(enabled=False, rate=0.25, seed=7,
                                    slow_threshold=2.5)

#: The enabled-ladder shape the invariant leg replays.
INVARIANT_RATE = 0.25
INVARIANT_SEED = 3

#: Every Nth ladder request is carol's pre-blocked POST: a guaranteed
#: non-valid verdict the sampler must force-keep, at any volume.
OVERHEAD_FORCED_EVERY = 8

#: Poisson arrivals per second of :func:`overhead_trace`.
OVERHEAD_ARRIVAL_RATE = 50.0


def sampling_config(sampling=None):
    """The parity deployment as data: manual clock, optional sampling.

    With *sampling* ``None`` the ``observability.sampling`` block stays
    at its schema default (absent-equivalent) -- the baseline.  Passing
    a :class:`~repro.config.SamplingSection` produces the same
    deployment with the block spelled out.
    """
    section = sampling if sampling is not None else SamplingSection()
    return MonitorConfig(
        cloud=CloudSection(volume_quota=5),
        monitor=MonitorSection(enforcing=True),
        observability=ObservabilitySection(clock="manual", tick=1e-4,
                                           sampling=section))


def overhead_trace(count: int, seed: int = 0) -> Trace:
    """The ladder's request script at *count* entries, Poisson-paced.

    Read-only by construction: the only mutating entries are carol's
    ``POST`` attempts, which RBAC pre-blocks (Table I gives carol no
    create permission), so the script leaves the cloud untouched and the
    same shape replays identically at 1x, 10x, and 100x volume.
    """
    users = ("alice", "bob", "carol")
    trace = Trace()
    for index in range(count):
        if index % OVERHEAD_FORCED_EVERY == OVERHEAD_FORCED_EVERY - 1:
            trace.record("carol", "POST", "/cmonitor/volumes",
                         payload={"volume": {"name": f"ladder-{index}"}})
        else:
            trace.record(users[index % len(users)], "GET",
                         "/cmonitor/volumes")
    return trace.with_arrivals(
        poisson_arrivals(count, OVERHEAD_ARRIVAL_RATE, seed=seed))


def overhead_config(shards: int, rate: float, seed: int) -> MonitorConfig:
    """A sampled *shards*-wide fleet on a ManualClock with ``tick=1e-4``.

    Every clock read advances one tick, so the ``obs_overhead_seconds``
    histogram measures *operation counts*, not host speed -- the p99 at
    100x volume can be compared to the p99 at 1x without wall-clock
    noise.
    """
    return MonitorConfig(
        observability=ObservabilitySection(
            clock="manual", tick=1e-4,
            sampling=SamplingSection(enabled=True, rate=rate, seed=seed)),
        fleet=FleetSection(shards=shards))


def overhead_leg(requests: int, shards: int, rate: float,
                 seed: int) -> LegRecord:
    """:func:`overhead_trace` at *requests* through :func:`overhead_config`."""
    return run_leg(overhead_config(shards, rate, seed),
                   overhead_trace(requests, seed=seed))


def overhead_rung(record: LegRecord) -> Dict[str, object]:
    """One volume rung of an :func:`overhead_leg`: decision totals,
    retention and reconciliation facts, and the overhead percentiles."""
    merged = record.metrics
    tracers = [monitor.obs.tracer for monitor in record.monitors]
    decisions: Dict[str, int] = {}
    for labels, counter in merged.series(SAMPLED_COUNTER):
        decision = dict(labels).get("decision", "")
        decisions[decision] = decisions.get(decision, 0) + int(counter.value)
    non_valid = [verdict for verdict in record.verdicts
                 if verdict.verdict != "valid"]
    overhead = None
    for _, series in merged.series(OVERHEAD_HISTOGRAM):
        overhead = series if overhead is None else overhead.merge(series)
    sampling = record.monitors[0].options.sampling
    return {
        "requests": len(record.statuses),
        "shards": len(record.monitors),
        "rate": sampling.rate,
        "seed": sampling.seed,
        "statuses": status_histogram(record.statuses),
        "decisions": decisions,
        "events_shed": int(merged.total(EVENTS_SHED_COUNTER)),
        "begun": sum(tracer.started_count for tracer in tracers),
        "retained": sum(len(tracer.finished) for tracer in tracers),
        "ring_bound": sum(tracer.finished.maxlen or 0 for tracer in tracers),
        "non_valid": len(non_valid),
        "non_valid_missing": sum(
            1 for verdict in non_valid
            if not any(tracer.find(verdict.correlation_id)
                       for tracer in tracers)),
        "overhead_count": overhead.count if overhead else 0,
        "overhead_sum": round(overhead.sum, 9) if overhead else 0.0,
        "overhead_p50": (round(overhead.percentile(0.5), 9)
                         if overhead else 0.0),
        "overhead_p99": (round(overhead.percentile(0.99), 9)
                         if overhead else 0.0),
    }


def assert_sampling_invariants(rungs: List[Dict[str, object]],
                               ) -> List[Dict[str, object]]:
    """Check every rung of an enabled ladder; raise on a broken invariant.

    Spelled out one assertion at a time so a failure names the broken
    reconciliation property instead of a bare boolean.
    """
    for rung in rungs:
        label = f"{rung['requests']}-request rung"
        decided = sum(rung["decisions"].values())
        assert decided == rung["begun"], (
            f"{label}: {decided} sampling decisions for "
            f"{rung['begun']} traces begun -- the audit log and the "
            "monitor_traces_sampled_total counter no longer reconcile")
        assert rung["decisions"].get("dropped", 0) == rung["events_shed"], (
            f"{label}: {rung['events_shed']} wide events shed for "
            f"{rung['decisions'].get('dropped', 0)} dropped traces")
        assert rung["non_valid_missing"] == 0, (
            f"{label}: {rung['non_valid_missing']} of "
            f"{rung['non_valid']} non-valid verdicts lost their trace "
            "-- forced traces must never be dropped")
        assert rung["retained"] <= rung["ring_bound"], (
            f"{label}: {rung['retained']} retained traces exceed the "
            f"ring bound {rung['ring_bound']}")
    # Same seed, same workload => byte-identical decisions (rerun the
    # smallest rung and compare the full decision tally).
    first = rungs[0]
    replay = overhead_rung(overhead_leg(first["requests"], first["shards"],
                                        first["rate"], first["seed"]))
    assert replay["decisions"] == first["decisions"], (
        "re-running the same seeded ladder rung changed the sampling "
        f"decisions: {first['decisions']} vs {replay['decisions']}")
    assert replay["retained"] == first["retained"], (
        "re-running the same seeded ladder rung changed trace retention")
    return rungs
