"""Declarative SLOs with multi-window burn rates over the metrics registry.

The paper evaluates the monitor once, offline (Section VI); a monitor in
front of heavy traffic needs the *online* question answered continuously:
"is the monitor healthy right now, and how fast is it eating its error
budget?"  This module follows the SRE playbook:

* an :class:`SLO` is a named objective -- a target fraction of *good*
  events over *total* events, both read from the shared
  :class:`~repro.obs.metrics.MetricsRegistry` through declarative
  selectors (so an objective can be "requests with a definite verdict",
  "stage executions under 100 ms", or any counter/bucket arithmetic);
* an :class:`SLOEngine` snapshots the selector values over time (one
  snapshot per monitored request, driven by the injectable clock) and
  computes **burn rates** over multiple windows: the ratio of the
  bad-event fraction in the window to the total error budget.  A burn
  rate of 1 means the budget lasts exactly the SLO period; the classic
  fast/slow thresholds (14.4 / 6) page only when both windows agree,
  filtering blips without missing sustained burns;
* :meth:`SLOEngine.report` is a canonical, JSON-ready document --
  byte-stable under a ManualClock, which is what the ``slo`` gate in
  ``scripts/gates.py`` pins -- and :meth:`SLOEngine.render` is the
  human table behind ``cloudmon slo`` and the ``/-/health`` route.

All selector reads are O(series); nothing here retains observations.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import SLOError
from .clock import Clock, system_clock
from .metrics import Histogram, MetricsRegistry


def _round9(value: float) -> float:
    """Canonical 9-significant-digit rounding for byte-stable reports."""
    return float(f"{float(value):.9g}")


def _labels_match(series_labels: Tuple[Tuple[str, str], ...],
                  wanted: Optional[Dict[str, str]]) -> bool:
    """True when every wanted label appears with that value in the series."""
    if not wanted:
        return True
    actual = dict(series_labels)
    return all(actual.get(key) == value for key, value in wanted.items())


class Selector:
    """Something that reads one number out of a metrics registry."""

    def value(self, registry: MetricsRegistry) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class CounterTotal(Selector):
    """Sum of a counter/gauge family's values, optionally label-filtered."""

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels) if labels else None

    def value(self, registry: MetricsRegistry) -> float:
        return sum(metric.value
                   for series_labels, metric in registry.series(self.name)
                   if not isinstance(metric, Histogram)
                   and _labels_match(series_labels, self.labels))

    def describe(self) -> str:
        if self.labels:
            inner = ",".join(f'{k}="{v}"'
                             for k, v in sorted(self.labels.items()))
            return f"{self.name}{{{inner}}}"
        return self.name

    def __repr__(self) -> str:
        return f"<CounterTotal {self.describe()}>"


class ObservationCount(Selector):
    """Total observation count of a histogram family (label-filtered)."""

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels) if labels else None

    def value(self, registry: MetricsRegistry) -> float:
        return float(sum(
            metric.count
            for series_labels, metric in registry.series(self.name)
            if isinstance(metric, Histogram)
            and _labels_match(series_labels, self.labels)))

    def describe(self) -> str:
        return f"count({self.name})"

    def __repr__(self) -> str:
        return f"<ObservationCount {self.name}>"


class BucketCount(Selector):
    """Observations of a histogram family landing at or under a bound.

    *le* must coincide with a configured bucket bound of every matching
    series (the streaming histograms cannot answer sub-bucket questions);
    a mismatch raises :class:`~repro.errors.SLOError` rather than
    silently under-counting.
    """

    def __init__(self, name: str, le: float,
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.le = float(le)
        self.labels = dict(labels) if labels else None

    def value(self, registry: MetricsRegistry) -> float:
        total = 0
        for series_labels, metric in registry.series(self.name):
            if not isinstance(metric, Histogram):
                continue
            if not _labels_match(series_labels, self.labels):
                continue
            if self.le not in metric.bounds:
                raise SLOError(
                    f"SLO threshold {self.le} is not a bucket bound of "
                    f"{self.name} (bounds: {metric.bounds})")
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                if bound <= self.le:
                    total += count
        return float(total)

    def describe(self) -> str:
        return f"{self.name}{{le<={_round9(self.le)}}}"

    def __repr__(self) -> str:
        return f"<BucketCount {self.describe()}>"


class Linear(Selector):
    """A linear combination of selectors: ``sum(coef * selector)``."""

    def __init__(self, terms: Sequence[Tuple[float, Selector]]):
        if not terms:
            raise SLOError("a linear selector needs at least one term")
        self.terms: Tuple[Tuple[float, Selector], ...] = tuple(
            (float(coef), selector) for coef, selector in terms)

    def value(self, registry: MetricsRegistry) -> float:
        return sum(coef * selector.value(registry)
                   for coef, selector in self.terms)

    def describe(self) -> str:
        parts: List[str] = []
        for coef, selector in self.terms:
            sign = "-" if coef < 0 else ("+" if parts else "")
            magnitude = abs(coef)
            prefix = "" if magnitude == 1 else f"{_round9(magnitude)}*"
            parts.append(f"{sign}{prefix}{selector.describe()}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<Linear {self.describe()}>"


class SLO:
    """One objective: at least *objective* of *total* events are *good*."""

    def __init__(self, name: str, description: str, objective: float,
                 good: Selector, total: Selector):
        if not 0.0 < objective < 1.0:
            raise SLOError(
                f"objective must be strictly between 0 and 1, "
                f"got {objective}")
        self.name = name
        self.description = description
        self.objective = float(objective)
        self.good = good
        self.total = total

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad-event fraction."""
        return 1.0 - self.objective

    def measure(self, registry: MetricsRegistry) -> Tuple[float, float]:
        """Current (good, total) event counts, clamped to sanity."""
        total = max(0.0, self.total.value(registry))
        good = min(max(0.0, self.good.value(registry)), total)
        return good, total

    def __repr__(self) -> str:
        return f"<SLO {self.name} objective={self.objective}>"


class BurnWindow:
    """One burn-rate evaluation window with its paging threshold."""

    def __init__(self, label: str, seconds: float, threshold: float):
        if seconds <= 0:
            raise SLOError("a burn window must span positive time")
        self.label = label
        self.seconds = float(seconds)
        self.threshold = float(threshold)

    def __repr__(self) -> str:
        return (f"<BurnWindow {self.label} {self.seconds}s "
                f"threshold={self.threshold}>")


#: The classic multi-window pair: a fast window that reacts quickly and a
#: slow window that confirms the burn is sustained.  Paging requires both
#: to breach, which is what makes one retry blip non-alertable.
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow("fast", 300.0, 14.4),
    BurnWindow("slow", 3600.0, 6.0),
)

#: Stage-latency threshold (seconds) for the default latency SLO; must be
#: a bound of :data:`~repro.obs.metrics.DEFAULT_BUCKETS`.
STAGE_LATENCY_THRESHOLD = 0.1


def default_slos() -> List[SLO]:
    """The monitor's built-in objectives.

    * ``verdict-availability`` -- 99.9% of monitored requests end in a
      definite verdict (anything but ``indeterminate``): the monitor's
      promise that it answers even when the substrate misbehaves;
    * ``stage-latency`` -- 99% of Figure-2 stage executions finish
      within :data:`STAGE_LATENCY_THRESHOLD` seconds: the per-stage
      latency budget;
    * ``indeterminate-rate`` -- a 1% ceiling on transport-degraded
      verdicts, read from the labelled verdict counter (a deliberately
      different selector path than availability, so the two cross-check
      each other);
    * ``shed-rate`` -- a 1% ceiling on requests shed by admission
      control: sustained shedding means the deployment is undersized,
      not just momentarily bursty.  The default one-rule-per-SLO alarm
      set gives this objective its own ``shed-rate-burn`` alarm, which
      is what lets alarm severity feed the degradation ladder.
    """
    requests = CounterTotal("monitor_requests_total")
    return [
        SLO("verdict-availability",
            "monitored requests ending in a definite verdict",
            0.999,
            good=Linear([(1, requests),
                         (-1, CounterTotal("monitor_indeterminate_total"))]),
            total=requests),
        SLO("stage-latency",
            "Figure-2 stage executions within the 100ms budget",
            0.99,
            good=BucketCount("monitor_stage_seconds",
                             le=STAGE_LATENCY_THRESHOLD),
            total=ObservationCount("monitor_stage_seconds")),
        SLO("indeterminate-rate",
            "ceiling on transport-degraded (indeterminate) verdicts",
            0.99,
            good=Linear([(1, requests),
                         (-1, CounterTotal("monitor_verdicts_total",
                                           labels={"verdict":
                                                   "indeterminate"}))]),
            total=requests),
        SLO("shed-rate",
            "ceiling on requests shed by admission control",
            0.99,
            good=Linear([(1, requests),
                         (-1, CounterTotal("monitor_shed_total"))]),
            total=requests),
    ]


class SLOEngine:
    """Snapshots SLO measurements and turns them into burn-rate reports.

    The engine never retains raw observations: each snapshot is one
    ``(clock reading, {slo: (good, total)})`` tuple in a bounded ring.
    Window burn rates difference the newest measurement against the
    snapshot closest to the window's far edge; windows older than the
    engine clamp to "since start" (counters start at zero), which is the
    correct degenerate answer for a young monitor.
    """

    def __init__(self, registry: MetricsRegistry, clock: Clock = None,
                 slos: Optional[Sequence[SLO]] = None,
                 windows: Sequence[BurnWindow] = DEFAULT_WINDOWS,
                 keep: int = 4096):
        self.registry = registry
        self.clock: Clock = clock if clock is not None else system_clock
        self.slos: List[SLO] = list(slos) if slos is not None \
            else default_slos()
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise SLOError(f"duplicate SLO names: {sorted(names)}")
        self.windows: Tuple[BurnWindow, ...] = tuple(windows)
        self.keep = keep
        self._created = self.clock()
        #: Snapshot ring: (time, {slo_name: (good, total)}).
        self._snapshots: List[Tuple[float, Dict[str, Tuple[float, float]]]] \
            = []
        #: Snapshot times, parallel to the ring, for bisect lookups.
        self._times: List[float] = []

    @property
    def created(self) -> float:
        """The clock reading at engine construction (the implicit zero)."""
        return self._created

    # -- recording ---------------------------------------------------------

    def snapshot(self) -> float:
        """Record the current measurements; returns the snapshot time."""
        now = self.clock()
        measurements = {slo.name: slo.measure(self.registry)
                        for slo in self.slos}
        self._snapshots.append((now, measurements))
        self._times.append(now)
        if len(self._snapshots) > self.keep:
            excess = len(self._snapshots) - self.keep
            del self._snapshots[:excess]
            del self._times[:excess]
        return now

    def __len__(self) -> int:
        return len(self._snapshots)

    # -- evaluation --------------------------------------------------------

    def _reference(self, now: float, window: BurnWindow,
                   slo_name: str) -> Tuple[float, float]:
        """The (good, total) baseline for *window* ending at *now*.

        The newest retained snapshot at least ``window.seconds`` old; when
        every snapshot is younger (or none exist), the implicit zero
        snapshot at engine creation is the baseline.
        """
        edge = now - window.seconds
        index = bisect_right(self._times, edge) - 1
        while index >= 0:
            measurements = self._snapshots[index][1]
            if slo_name in measurements:
                return measurements[slo_name]
            index -= 1
        return (0.0, 0.0)

    @staticmethod
    def _burn(good_delta: float, total_delta: float, budget: float) -> float:
        """Bad fraction over the window divided by the error budget."""
        if total_delta <= 0:
            return 0.0
        bad_fraction = min(max(1.0 - good_delta / total_delta, 0.0), 1.0)
        return bad_fraction / budget

    def window_status(self, now: Optional[float] = None) \
            -> Dict[str, List[Dict[str, Any]]]:
        """Per-SLO window burn data at *now*, from the newest snapshot.

        Unlike :meth:`report`, the current measurement is the most recent
        snapshot rather than a fresh registry read, and the clock is only
        consulted when *now* is ``None`` -- so calling this right after
        :meth:`snapshot` with the snapshot's own time performs **zero**
        clock or registry reads.  This is the alarm engine's per-request
        evaluation path.
        """
        if now is None:
            now = self.clock()
        latest: Dict[str, Tuple[float, float]] = (
            self._snapshots[-1][1] if self._snapshots else {})
        status: Dict[str, List[Dict[str, Any]]] = {}
        for slo in self.slos:
            good, total = latest.get(slo.name, (0.0, 0.0))
            windows: List[Dict[str, Any]] = []
            for window in self.windows:
                ref_good, ref_total = self._reference(now, window, slo.name)
                burn = self._burn(good - ref_good, total - ref_total,
                                  slo.budget)
                windows.append({
                    "window": window.label,
                    "seconds": _round9(window.seconds),
                    "burn_rate": _round9(burn),
                    "threshold": _round9(window.threshold),
                    "breaching": burn > window.threshold,
                })
            status[slo.name] = windows
        return status

    def report(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The canonical JSON-ready health document (sort-stable).

        Deterministic inputs (ManualClock + seeded workload) make the
        rendered JSON byte-stable -- the property the SLO gate pins.
        *now* lets a caller that already holds a clock reading (e.g. a
        snapshot time) evaluate without advancing an injected clock.
        """
        if now is None:
            now = self.clock()
        slos: List[Dict[str, Any]] = []
        overall_ok = True
        for slo in self.slos:
            good, total = slo.measure(self.registry)
            compliance = good / total if total else 1.0
            bad_fraction = 1.0 - compliance
            budget_remaining = (slo.budget - bad_fraction) / slo.budget
            windows: List[Dict[str, Any]] = []
            breaches = 0
            for window in self.windows:
                ref_good, ref_total = self._reference(now, window, slo.name)
                burn = self._burn(good - ref_good, total - ref_total,
                                  slo.budget)
                breaching = burn > window.threshold
                breaches += breaching
                windows.append({
                    "window": window.label,
                    "seconds": _round9(window.seconds),
                    "burn_rate": _round9(burn),
                    "threshold": _round9(window.threshold),
                    "breaching": breaching,
                })
            status = "burning" if breaches == len(self.windows) else "ok"
            overall_ok = overall_ok and status == "ok"
            slos.append({
                "name": slo.name,
                "description": slo.description,
                "objective": _round9(slo.objective),
                "good": _round9(good),
                "total": _round9(total),
                "compliance": _round9(compliance),
                "budget_remaining": _round9(budget_remaining),
                "status": status,
                "windows": windows,
            })
        return {
            "generated_at": _round9(now),
            "overall": "ok" if overall_ok else "burning",
            "snapshots": len(self._snapshots),
            "slos": slos,
        }

    def healthy(self) -> bool:
        """True when no SLO breaches all of its burn windows."""
        return self.report()["overall"] == "ok"

    def render(self) -> str:
        """The report as an aligned text table (``cloudmon slo``)."""
        report = self.report()
        lines = [
            f"SLO report at t={report['generated_at']} "
            f"({report['snapshots']} snapshots)",
            f"overall: {report['overall']}",
            "",
            f"{'slo':<24} {'objective':>9} {'good/total':>13} "
            f"{'compliance':>10} {'budget':>8} "
            + " ".join(f"{w.label + '-burn':>10}" for w in self.windows)
            + "  status",
        ]
        for entry in report["slos"]:
            good_total = (f"{entry['good']:.0f}/{entry['total']:.0f}")
            burns = " ".join(
                f"{window['burn_rate']:>10.3f}"
                for window in entry["windows"])
            lines.append(
                f"{entry['name']:<24} {entry['objective'] * 100:>8.2f}% "
                f"{good_total:>13} {entry['compliance'] * 100:>9.3f}% "
                f"{entry['budget_remaining'] * 100:>7.1f}% {burns}  "
                f"{entry['status']}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<SLOEngine slos={len(self.slos)} "
                f"snapshots={len(self._snapshots)}>")
