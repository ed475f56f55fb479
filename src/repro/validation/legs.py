"""One leg of the Section VI-D experiment, and the record it leaves.

Every campaign and digest gate is a variant of one experiment: stand up
a deployment, seed faults into the substrate (and maybe a mutant into
the cloud), drive a testing script through the monitor, and read back
what it said.  :func:`run_leg` is that experiment, run one way:

1. build the deployment with :func:`~repro.config.build_from_config`
   (a fleet when ``fleet.shards > 1``), or call a zero-argument setup
   that returns ``(cloud, deployment)`` for substituted models;
2. install the fault programs on the substrate hosts;
3. apply the mutant;
4. drive the traffic with the driver its type names -- request plans
   through a :class:`~repro.workloads.WorkloadRunner`, a
   :class:`~repro.workloads.Trace` paced on the deployment's clock, or
   a battery of :class:`~repro.validation.oracle.BatteryStep` through a
   :class:`~repro.validation.oracle.TestOracle`;
5. revert the mutant and close the deployment, whatever the traffic did.

The runner itself reads no clock: every
:class:`~repro.obs.clock.ManualClock` read advances virtual time, so one
extra read would move every pinned digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, List, Optional, Sequence

from ..cloud import Mutant
from ..config import build_from_config
from ..core.auditlog import verdict_to_json
from ..httpsim import Compose, FaultProgram
from ..obs.clock import Clock
from ..obs.exporters import render_json
from ..workloads import Trace, WorkloadRunner
from .oracle import BatteryStep, TestOracle

#: The substrate hosts a Cinder deployment talks to; every leg's fault
#: programs land on each, in this order, so probes and forwards both
#: see them.
HOSTS = ("cinder", "keystone")

#: Builds one host's fault program from the deployment's clock.
FaultFactory = Callable[[Clock], FaultProgram]


def _lines_digest(lines: Iterable[str]) -> str:
    """SHA-256 over *lines*, each newline-terminated."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class LegRecord:
    """What one leg left behind, read after its deployment closed."""

    def __init__(self, verdicts, statuses: List[int], metrics, monitors):
        #: Verdicts in arrival order (a fleet's merged log).
        self.verdicts = verdicts
        #: The HTTP status of every request the traffic sent, in order.
        self.statuses = statuses
        #: The merged metrics registry (a single monitor's own).
        self.metrics = metrics
        #: The fleet's shards, or the one monitor: tracer rings, ladder
        #: mode and admission stats are read from these.
        self.monitors = monitors
        #: One canonical JSONL row per verdict.
        self.rows = [verdict_to_json(verdict) for verdict in verdicts]
        self.probe_count = sum(monitor.provider.probe_count
                               for monitor in monitors)
        #: Probe tasks the schedulers ran on pool threads: 0 when
        #: probing stayed serial.
        self.dispatched = sum(monitor.scheduler.dispatched_count
                              for monitor in monitors
                              if monitor.scheduler is not None)

    def digest(self) -> str:
        """SHA-256 over the verdict rows -- the parity fingerprint."""
        return _lines_digest(self.rows)

    def events(self) -> List[dict]:
        """The retained wide events, monitor by monitor."""
        return [record for monitor in self.monitors
                for record in monitor.obs.events.to_dicts()]

    def metrics_digest(self) -> str:
        """SHA-256 over the canonical JSON metrics export (no traces)."""
        return hashlib.sha256(json.dumps(
            render_json(self.metrics), sort_keys=True).encode(
                "utf-8")).hexdigest()

    def events_digest(self) -> str:
        """SHA-256 over the retained wide events, one JSON line each."""
        return _lines_digest(json.dumps(record, sort_keys=True)
                            for record in self.events())


def first_divergence(baseline: LegRecord,
                     other: LegRecord) -> Optional[int]:
    """Index of the first verdict row the legs disagree on, ``None`` on
    parity."""
    for index, (left, right) in enumerate(zip(baseline.rows, other.rows)):
        if left != right:
            return index
    if len(baseline.rows) != len(other.rows):
        return min(len(baseline.rows), len(other.rows))
    return None


def _drive(cloud, deployment, traffic, clock) -> List[int]:
    """Send *traffic* through the monitor; one status per request."""
    if isinstance(traffic, Trace):
        clients = {user: cloud.client(token)
                   for user, token in cloud.paper_tokens().items()}
        return [response.status_code for response in
                traffic.replay(clients, "cmonitor", clock=clock)]
    if traffic and isinstance(traffic[0], BatteryStep):
        return [response.status_code for _, response in
                TestOracle(cloud, deployment).run(traffic)]
    return WorkloadRunner(cloud).execute(traffic, monitored=True)


def run_leg(config, traffic, faults: Sequence[FaultFactory] = (),
            mutant: Optional[Mutant] = None) -> LegRecord:
    """Build *config*, seed *faults* and *mutant*, drive *traffic*.

    *config* is a :class:`~repro.config.MonitorConfig`, or a
    zero-argument setup returning ``(cloud, deployment)``.  Each fault
    factory is called once per host in :data:`HOSTS` with the
    deployment's clock, and a host's programs are composed in the order
    given.  The mutant is reverted and the deployment closed even when
    the traffic raises.
    """
    cloud, deployment = (config() if callable(config)
                         else build_from_config(config))
    shards = getattr(deployment, "shards", None)
    monitors = list(shards) if shards else [deployment]
    try:
        clock = monitors[0].obs.clock
        if faults:
            for host in HOSTS:
                cloud.network.inject_fault(
                    host, Compose(*(factory(clock) for factory in faults)))
        if mutant is not None:
            mutant.apply(cloud)
        try:
            statuses = _drive(cloud, deployment, traffic, clock)
        finally:
            if mutant is not None:
                mutant.revert(cloud)
        metrics = (deployment.merged_metrics() if shards
                   else deployment.obs.metrics)
        return LegRecord(list(deployment.log), statuses, metrics, monitors)
    finally:
        deployment.close()
