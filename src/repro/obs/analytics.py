"""Post-hoc trace analytics: attribution, critical paths, exemplars.

The tracer's ring answers "show me request t-000042"; this module answers
the questions an operator actually starts from:

* :func:`stage_attribution` -- across every retained trace, which
  Figure-2 stage is eating the latency budget (total seconds, share,
  mean per execution)?
* :func:`critical_path` / :func:`dominant_stages` -- per trace, which
  stage dominated; across traces, how often each stage is the culprit?
* :func:`exemplar_index` / :func:`resolve_exemplars` -- walk the
  registry's histogram exemplars (see
  :class:`~repro.obs.metrics.Exemplar`) and link each bucket back to the
  exact retained trace that landed in it, so "which request blew p99"
  is one dictionary lookup, not a benchmark re-run.

Everything here is read-only over the registry and tracer; all output is
JSON-ready and deterministically ordered so it can sit behind CLI
subcommands and gated digests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from .metrics import Histogram, MetricsRegistry
from .tracing import Trace, Tracer


def _round9(value: float) -> float:
    """Canonical rounding shared with the SLO reports (byte-stability)."""
    return float(f"{float(value):.9g}")


def _traces(source: Union[Tracer, Iterable[Trace]]) -> List[Trace]:
    if isinstance(source, Tracer):
        return source.retained()
    return list(source)


def stage_attribution(source: Union[Tracer, Iterable[Trace]],
                      ) -> List[Dict[str, Any]]:
    """Per-stage latency attribution across traces, biggest spender first.

    Each entry carries the stage name, how many spans executed, the total
    seconds spent, the mean per execution, the share of all span time,
    and how many executions ended in error.  Ties (e.g. under a frozen
    ManualClock where every duration is identical) break on the stage
    name, so the order is deterministic.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for trace in _traces(source):
        for span in trace.spans:
            entry = totals.setdefault(
                span.name, {"count": 0, "seconds": 0.0, "errors": 0})
            entry["count"] += 1
            entry["seconds"] += span.duration
            entry["errors"] += span.status != "ok"
    grand_total = sum(entry["seconds"] for entry in totals.values())
    report = []
    for name in sorted(totals, key=lambda n: (-totals[n]["seconds"], n)):
        entry = totals[name]
        report.append({
            "stage": name,
            "count": int(entry["count"]),
            "seconds": _round9(entry["seconds"]),
            "mean": _round9(entry["seconds"] / entry["count"]
                            if entry["count"] else 0.0),
            "share": _round9(entry["seconds"] / grand_total
                             if grand_total else 0.0),
            "errors": int(entry["errors"]),
        })
    return report


def critical_path(trace: Trace) -> Dict[str, Any]:
    """The trace's spans ranked by cost, plus the dominant stage.

    The "critical path" of the strictly sequential Figure-2 pipeline is
    the whole span chain; what matters operationally is its *ordering by
    cost* and the share of the end-to-end time each stage took (the
    remainder is monitor bookkeeping between spans).
    """
    ranked = sorted(trace.spans,
                    key=lambda span: (-span.duration, span.name))
    total = trace.duration
    return {
        "trace_id": trace.trace_id,
        "name": trace.name,
        "duration": _round9(total),
        "dominant": ranked[0].name if ranked else None,
        "path": [{
            "stage": span.name,
            "seconds": _round9(span.duration),
            "share": _round9(span.duration / total if total else 0.0),
            "status": span.status,
        } for span in ranked],
    }


def dominant_stages(source: Union[Tracer, Iterable[Trace]],
                    ) -> Dict[str, int]:
    """How many retained traces each stage dominated (name-sorted)."""
    counts: Dict[str, int] = {}
    for trace in _traces(source):
        dominant = critical_path(trace)["dominant"]
        if dominant is not None:
            counts[dominant] = counts.get(dominant, 0) + 1
    return dict(sorted(counts.items()))


def exemplar_index(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Every histogram exemplar in the registry, deterministically ordered.

    One entry per (family, series, bucket) that holds an exemplar:
    family name, series labels, the bucket's ``le`` bound (``"+Inf"`` for
    the overflow bucket), and the exemplar itself (labels / value /
    timestamp).
    """
    entries: List[Dict[str, Any]] = []
    for family in registry:
        for labels, metric in sorted(family.series.items()):
            if not isinstance(metric, Histogram):
                continue
            for index in sorted(metric.exemplars):
                exemplar = metric.exemplars[index]
                le: Any = ("+Inf" if index == len(metric.bounds)
                           else metric.bounds[index])
                entries.append({
                    "family": family.name,
                    "labels": dict(labels),
                    "le": le,
                    "exemplar": exemplar.to_dict(),
                })
    return entries


def resolve_exemplars(registry: MetricsRegistry, tracer: Tracer,
                      ) -> List[Dict[str, Any]]:
    """:func:`exemplar_index` joined against the tracer's retained ring.

    Adds ``resolved`` (is the exemplar's trace still retained?) and, when
    it is, the trace's name and duration -- the complete hop from "this
    bucket" to "this request".  Exemplars without a ``trace_id`` label
    resolve to ``False``.

    An exemplar whose trace is *gone* -- evicted from the bounded ring,
    or dropped by the trace sampler after a later observation replaced
    the bucket's exemplar -- degrades gracefully: the join still returns
    the trace id, marked ``evicted: true``, instead of silently dropping
    the pointer.  The id remains greppable in the audit log even though
    the spans are no longer retained.
    """
    entries = exemplar_index(registry)
    for entry in entries:
        trace_id: Optional[str] = entry["exemplar"]["labels"].get("trace_id")
        trace = tracer.find(trace_id) if trace_id else None
        entry["resolved"] = trace is not None
        if trace is not None:
            entry["trace"] = {
                "trace_id": trace.trace_id,
                "name": trace.name,
                "duration": _round9(trace.duration),
            }
        elif trace_id:
            entry["trace"] = {
                "trace_id": trace_id,
                "evicted": True,
            }
    return entries


def trace_report(registry: MetricsRegistry, tracer: Tracer,
                 ) -> Dict[str, Any]:
    """The combined analytics document (``/-/traces`` without an id).

    Attribution + dominant-stage counts + the exemplar join, over
    whatever the ring currently retains.
    """
    return {
        "retained": len(tracer.finished),
        "started": tracer.started_count,
        "attribution": stage_attribution(tracer),
        "dominant_stages": dominant_stages(tracer),
        "exemplars": resolve_exemplars(registry, tracer),
    }
