"""Sampling campaign: the observability layer must never change the story.

Two deterministic legs, mirroring the overload campaign's split between
"invisible when idle" and "correct when active":

* **parity** -- a config whose ``observability.sampling`` block is
  *present but disabled* (with non-default knobs, so nothing can leak
  through them) must produce verdict rows, a metrics export, and a
  wide-event stream **byte-identical** to the same workload under a
  config with no sampling block at all.  Head/tail sampling has to be
  a pure opt-in: its existence in the schema must cost nothing.
* **invariants** -- with sampling *enabled*, the audit log and the
  counters must reconcile on every volume rung:
  ``kept + dropped + forced`` equals traces begun equals verdict rows,
  every dropped trace sheds exactly one wide event, no non-``valid``
  verdict's trace is ever sampled away, retained traces stay within
  the tracer rings, and the same seed replays the same decisions.

Both legs run on a :class:`~repro.obs.clock.ManualClock`, so every run
is byte-reproducible; ``scripts/gates.py --only overhead`` pins them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .overload import (
    SERVICE_TIME,
    OverloadParityReport,
    make_calm_trace,
    run_overload_leg,
)

#: Deliberately non-default knobs for the disabled-sampling parity leg:
#: if any of them leaked into a disabled run, parity would break.
PARITY_RATE = 0.25
PARITY_SEED = 7

#: The enabled-ladder shape the invariant leg replays.
INVARIANT_RATE = 0.25
INVARIANT_SEED = 3


def sampling_config(sampling=None):
    """The parity deployment as data: manual clock, optional sampling.

    With *sampling* ``None`` the ``observability.sampling`` block stays
    at its schema default (absent-equivalent) -- the baseline.  Passing
    a :class:`~repro.config.SamplingSection` produces the same
    deployment with the block spelled out.
    """
    from ..config import (CloudSection, MonitorConfig, MonitorSection,
                          ObservabilitySection, SamplingSection)

    section = sampling if sampling is not None else SamplingSection()
    return MonitorConfig(
        cloud=CloudSection(volume_quota=5),
        monitor=MonitorSection(enforcing=True),
        observability=ObservabilitySection(clock="manual", tick=1e-4,
                                           sampling=section))


def run_sampling_parity_campaign(count: int = 12,
                                 spacing: float = 1.0,
                                 ) -> OverloadParityReport:
    """A present-but-disabled sampling block must be byte-invisible."""
    from ..config import SamplingSection

    baseline = run_overload_leg(make_calm_trace(count=count,
                                                spacing=spacing),
                                sampling_config(),
                                service_time=SERVICE_TIME)
    disabled = run_overload_leg(
        make_calm_trace(count=count, spacing=spacing),
        sampling_config(SamplingSection(enabled=False, rate=PARITY_RATE,
                                        seed=PARITY_SEED,
                                        slow_threshold=2.5)),
        service_time=SERVICE_TIME)
    return OverloadParityReport(baseline, disabled)


def run_sampling_ladder(base: int = 16,
                        factors: Sequence[int] = (1, 4),
                        shards: int = 4,
                        rate: float = INVARIANT_RATE,
                        seed: int = INVARIANT_SEED,
                        ) -> List[Dict[str, object]]:
    """The enabled-invariant rungs (small by default -- this is a gate,
    not the bench; the 100x ladder lives in ``benchmarks``)."""
    from ..workloads import measure_overhead_volume

    return [measure_overhead_volume(base * factor, shards=shards,
                                    rate=rate, seed=seed)
            for factor in factors]


def assert_sampling_invariants(rungs=None) -> List[Dict[str, object]]:
    """Run (or check) the enabled ladder; raise on any broken invariant.

    Spelled out one assertion at a time so a failure names the broken
    reconciliation property instead of a bare boolean.
    """
    from ..workloads import measure_overhead_volume

    if rungs is None:
        rungs = run_sampling_ladder()
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
    replay = measure_overhead_volume(first["requests"],
                                     shards=first["shards"],
                                     rate=first["rate"],
                                     seed=first["seed"])
    assert replay["decisions"] == first["decisions"], (
        "re-running the same seeded ladder rung changed the sampling "
        f"decisions: {first['decisions']} vs {replay['decisions']}")
    assert replay["retained"] == first["retained"], (
        "re-running the same seeded ladder rung changed trace retention")
    return rungs
