"""Composing several scenario monitors into one deployment.

The paper scopes each behavioral model to one critical scenario
(Section VI-B); a real private cloud has several.  A
:class:`CompositeMonitor` mounts multiple :class:`CloudMonitor` instances
under one application (path-disjoint mounts), exposing a merged verdict
log and an aggregate coverage view, so "the monitor" stays one endpoint
for the cloud's users no matter how many scenarios the experts modelled.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..errors import MonitorError
from ..httpsim import Application, Request, Response, path
from .coverage import CoverageTracker
from .monitor import CloudMonitor
from .verdicts import MonitorVerdict


class CompositeMonitor:
    """Several scenario monitors behind a single application."""

    def __init__(self, monitors: Iterable[CloudMonitor],
                 name: str = "cmonitor"):
        self.monitors: List[CloudMonitor] = list(monitors)
        if not self.monitors:
            raise MonitorError("composite monitor needs at least one monitor")
        self._check_mounts_disjoint()
        self.app = Application(name)
        # A catch-all route; dispatch picks the scenario by mount prefix.
        self.app.add_route(path("<path:anything>", self._delegate,
                                name="composite"))

    def _check_mounts_disjoint(self) -> None:
        prefixes: Dict[str, CloudMonitor] = {}
        for monitor in self.monitors:
            for operation in monitor.operations:
                prefix = operation.monitor_path.split("/")[0]
                owner = prefixes.get(prefix)
                if owner is not None and owner is not monitor:
                    raise MonitorError(
                        f"mount prefix {prefix!r} is claimed by two "
                        f"monitors; give each scenario a distinct mount")
                prefixes[prefix] = monitor

    def _delegate(self, request: Request, **_kwargs) -> Response:
        prefix = request.path.lstrip("/").split("/")[0]
        for monitor in self.monitors:
            if any(operation.monitor_path.split("/")[0] == prefix
                   for operation in monitor.operations):
                return monitor.app.handle(request)
        return Response.error(404, f"no monitored scenario under {prefix!r}")

    # -- merged views -----------------------------------------------------------

    @property
    def log(self) -> List[MonitorVerdict]:
        """All verdicts across scenarios, in a stable per-monitor order."""
        merged: List[MonitorVerdict] = []
        for monitor in self.monitors:
            merged.extend(monitor.log)
        return merged

    def violations(self) -> List[MonitorVerdict]:
        """All violations across the mounted scenarios."""
        return [verdict for verdict in self.log if verdict.violation]

    def coverage(self) -> CoverageTracker:
        """An aggregate coverage tracker over every scenario's requirements."""
        aggregate = CoverageTracker()
        for monitor in self.monitors:
            if monitor.coverage is None:
                continue
            for requirement_id, record in monitor.coverage.records.items():
                entry = aggregate.records.setdefault(
                    requirement_id,
                    type(record)(requirement_id))
                entry.exercised += record.exercised
                entry.passed += record.passed
                entry.failed += record.failed
        return aggregate

    def clear_logs(self) -> None:
        """Clear every mounted monitor's verdict log."""
        for monitor in self.monitors:
            monitor.clear_log()

    def __repr__(self) -> str:
        return f"<CompositeMonitor scenarios={len(self.monitors)}>"
