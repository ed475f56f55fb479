"""Assembling a validation report from a monitoring session.

The paper's users (Section III-B) are developers, testers, and security
experts; what they take away from a validation session is a document:
which requirements were exercised, what the monitor flagged, which faults
the campaign killed, and where to look.  :func:`session_report` renders
all of that as Markdown from the in-memory objects, so a CI job can attach
it to a build.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.coverage import CoverageTracker
from ..core.monitor import CloudMonitor
from ..core.verdicts import MonitorVerdict
from .campaign import CampaignResult
from .localization import localize, render_report


def _verdict_histogram(log: List[MonitorVerdict]) -> str:
    counts = {}
    for verdict in log:
        counts[verdict.verdict] = counts.get(verdict.verdict, 0) + 1
    lines = ["| verdict | count |", "|---|---|"]
    for verdict, count in sorted(counts.items()):
        lines.append(f"| {verdict} | {count} |")
    return "\n".join(lines)


def _coverage_table(coverage: CoverageTracker) -> str:
    lines = ["| SecReq | exercised | passed | failed |", "|---|---|---|---|"]
    for requirement_id in sorted(coverage.records):
        record = coverage.records[requirement_id]
        lines.append(f"| {requirement_id} | {record.exercised} | "
                     f"{record.passed} | {record.failed} |")
    lines.append(f"\nCoverage: **{coverage.coverage:.0%}** of declared "
                 f"requirements exercised.")
    if coverage.uncovered_ids():
        lines.append(f"Uncovered: {', '.join(coverage.uncovered_ids())} — "
                     f"extend the battery to reach them.")
    return "\n".join(lines)


def _latency_section(monitor: CloudMonitor) -> Optional[str]:
    """Per-stage latency table from the monitor's metrics, if any."""
    series = monitor.obs.metrics.series("monitor_stage_seconds")
    if not series:
        return None
    lines = ["| stage | count | mean | p50 | p95 | max |",
             "|---|---|---|---|---|---|"]
    for labels, histogram in series:
        stage = dict(labels).get("stage", "?")
        summary = histogram.summary()
        lines.append(
            f"| {stage} | {summary['count']} "
            f"| {summary['mean'] * 1000:.3f} ms "
            f"| {summary['p50'] * 1000:.3f} ms "
            f"| {summary['p95'] * 1000:.3f} ms "
            f"| {summary['max'] * 1000:.3f} ms |")
    probes = monitor.obs.metrics.counter_value("monitor_probe_requests_total")
    lines.append(f"\nState probes issued: {int(probes)}.")
    return "\n".join(lines)


def _campaign_section(result: CampaignResult) -> str:
    lines = [
        "| mutant | category | killed | violations | implicated SecReqs |",
        "|---|---|---|---|---|",
    ]
    for record in result.records:
        mutant = record.mutant
        lines.append(
            f"| {mutant.mutant_id} ({mutant.description}) "
            f"| {mutant.category} "
            f"| {'yes' if record.killed else '**NO**'} "
            f"| {record.violation_count} "
            f"| {', '.join(record.implicated_requirements) or '—'} |")
    lines.append(f"\nKill rate: **{len(result.killed)}/"
                 f"{len(result.records)}** "
                 f"(baseline {'clean' if result.baseline_clean else 'DIRTY'}).")
    if result.survived:
        survivors = ", ".join(record.mutant.mutant_id
                              for record in result.survived)
        lines.append(f"Survivors: {survivors} — either extend the battery "
                     f"or model the violated property.")
    return "\n".join(lines)


def session_report(monitor: Optional[CloudMonitor] = None,
                   campaign: Optional[CampaignResult] = None,
                   title: str = "Cloud monitor validation report") -> str:
    """Render a Markdown report from a monitor session and/or a campaign."""
    sections: List[str] = [f"# {title}", ""]

    if monitor is not None:
        sections.append("## Monitored traffic")
        sections.append("")
        sections.append(f"{len(monitor.log)} requests monitored, "
                        f"{len(monitor.violations())} violation(s).")
        sections.append("")
        sections.append(_verdict_histogram(monitor.log))
        sections.append("")
        if monitor.coverage is not None:
            sections.append("## Security-requirement coverage")
            sections.append("")
            sections.append(_coverage_table(monitor.coverage))
            sections.append("")
        latency = _latency_section(monitor)
        if latency is not None:
            sections.append("## Stage latency")
            sections.append("")
            sections.append(latency)
            sections.append("")
        if monitor.violations():
            sections.append("## Fault localization")
            sections.append("")
            sections.append("```")
            sections.append(render_report(localize(monitor.log)))
            sections.append("```")
            sections.append("")

    if campaign is not None:
        sections.append("## Mutation campaign")
        sections.append("")
        sections.append(_campaign_section(campaign))
        sections.append("")

    return "\n".join(sections).rstrip() + "\n"
