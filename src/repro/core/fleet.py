"""A sharded monitor fleet: N monitors partitioning one cloud's traffic.

One :class:`~repro.core.monitor.CloudMonitor` serializes every monitored
request through one provider, one transport, one breaker landscape.  A
:class:`MonitorFleet` runs *N* full monitor shards against the same
cloud and routes each incoming request to exactly one of them by tenant
key (the requesting token by default):

* **isolation** -- every shard owns its own provider, resilient
  transport (breakers and retry bookkeeping), probe cache, metrics
  registry, trace ring, and wide-event ring; a tenant hammering one
  shard's breakers cannot open another tenant's circuits;
* **determinism** -- routing is a pure function of the tenant key
  (:class:`ShardRouter`), and all shards draw trace ids from one shared
  :class:`~repro.obs.tracing.TraceIdAllocator`, so serially dispatched
  fleet traffic reproduces the exact verdict rows (including
  ``correlation_id``) a single monitor would emit -- the property the
  fan-out parity gate pins;
* **merged views** -- the fleet exposes the union of its shards: an
  arrival-ordered merged verdict log, a merged metrics registry
  (:func:`~repro.obs.metrics.merge_registries`), an SLO report over it,
  and batched (cursor-tracked, append-only) audit-log and wide-event
  flushes.

The fleet quacks like an application (it has ``handle``), so
``network.register("cmonitor", fleet)`` drops it in wherever a single
monitor's app was registered.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from typing import (Any, Callable, Dict, IO, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from ..errors import MonitorError
from ..httpsim import Network, Request, Response
from ..obs import Observability, SLOEngine, TraceIdAllocator, merge_registries
from ..alerting import SEVERITY_ORDER
from .auditlog import verdict_to_json
from .monitor import CloudMonitor
from .options import MonitorOptions
from .verdicts import MonitorVerdict

#: How a request is reduced to the key the router shards on.
TenantKeyFn = Callable[[Request], str]


def tenant_from_token(request: Request) -> str:
    """The default tenant key: the requesting user's auth token.

    The paper's monitor probes with the requesting user's own token, so
    the token is the natural partition axis: all of one principal's
    traffic (and the breaker/cache state it induces) lands on one shard.
    """
    return request.auth_token or ""


class ShardRouter:
    """Deterministic tenant -> shard assignment.

    A pure function: ``route(tenant)`` hashes ``"<seed>|<tenant>"`` with
    sha256 and reduces it modulo the shard count.  No state, no RNG, no
    dependence on arrival order -- the property test battery pins this.
    """

    def __init__(self, shards: int, seed: int = 0):
        if shards < 1:
            raise MonitorError("a fleet needs at least one shard")
        self.shards = int(shards)
        self.seed = int(seed)

    def route(self, tenant: str) -> int:
        """The shard index (``0 <= index < shards``) for *tenant*."""
        digest = hashlib.sha256(
            f"{self.seed}|{tenant}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.shards

    def __repr__(self) -> str:
        return f"<ShardRouter shards={self.shards} seed={self.seed}>"


class MonitorFleet:
    """N monitor shards behind one deterministic dispatcher."""

    def __init__(self, monitors: Sequence[CloudMonitor],
                 router: Optional[ShardRouter] = None,
                 tenant_key: Optional[TenantKeyFn] = None):
        if not monitors:
            raise MonitorError("a fleet needs at least one shard")
        self.shards: List[CloudMonitor] = list(monitors)
        self.router = (router if router is not None
                       else ShardRouter(len(self.shards)))
        if self.router.shards != len(self.shards):
            raise MonitorError(
                f"router is sized for {self.router.shards} shards, "
                f"fleet has {len(self.shards)}")
        self.tenant_key: TenantKeyFn = (tenant_key if tenant_key is not None
                                        else tenant_from_token)
        #: One lock per shard: a shard is a serial monitor, so concurrent
        #: requests routed to it queue here (different shards proceed in
        #: parallel).
        self._shard_locks = [threading.Lock() for _ in self.shards]
        #: Global arrival order across shards; the merged log replays it.
        self._arrivals = itertools.count()
        self._merge_lock = threading.Lock()
        self._verdicts: List[Tuple[int, int, MonitorVerdict]] = []
        #: Batched-flush cursors: verdict rows / per-shard event seqs
        #: already written out.
        self._audit_cursor = 0
        self._event_cursors = [0 for _ in self.shards]
        #: Requests dispatched per shard (diagnostic, not authoritative).
        self.dispatched = [0 for _ in self.shards]

    # -- construction ------------------------------------------------------

    @classmethod
    def for_service(cls, name: str, network: Network, project_id: str,
                    shards: int = 2,
                    clock=None,
                    router_seed: int = 0,
                    tenant_key: Optional[TenantKeyFn] = None,
                    options: Optional[MonitorOptions] = None,
                    **kwargs) -> "MonitorFleet":
        """Build a fleet of *shards* monitors for a registered scenario.

        Every shard gets its own :class:`~repro.obs.Observability` (on
        the shared *clock*), and *options* shapes every shard: each
        builds its own transport from ``options.resilience`` and its own
        probe cache, so breaker and cache state never cross shards.  All
        shards share one :class:`~repro.obs.tracing.TraceIdAllocator`.
        Remaining keyword arguments go to the scenario builder
        (``enforcing``, ``probe_planning``, ...).
        """
        if shards < 1:
            raise MonitorError("a fleet needs at least one shard")
        trace_ids = TraceIdAllocator()
        monitors = [CloudMonitor.for_service(
            name, network, project_id,
            observability=Observability(clock=clock, trace_ids=trace_ids),
            options=options, **kwargs) for _ in range(shards)]
        return cls(monitors, router=ShardRouter(shards, seed=router_seed),
                   tenant_key=tenant_key)

    # -- dispatch ----------------------------------------------------------

    def shard_for(self, request: Request) -> int:
        """The shard index *request* routes to (pure, stateless)."""
        return self.router.route(self.tenant_key(request))

    def handle(self, request: Request) -> Response:
        """Dispatch one request to its tenant's shard.

        The shard lock serializes requests *within* a shard (a monitor
        is a serial pipeline); requests on different shards overlap
        freely.  Verdicts the shard produced for this request are merged
        into the fleet log under the request's global arrival number.
        """
        index = self.shard_for(request)
        arrival = next(self._arrivals)
        monitor = self.shards[index]
        with self._shard_locks[index]:
            self.dispatched[index] += 1
            before = len(monitor.log)
            response = monitor.app.handle(request)
            produced = list(monitor.log[before:])
        if produced:
            with self._merge_lock:
                for verdict in produced:
                    self._verdicts.append((arrival, index, verdict))
        if request.method != "GET":
            self._broadcast_invalidation(index)
        return response

    def _broadcast_invalidation(self, origin: int) -> None:
        """Evict every *other* shard's probe cache after a mutation.

        Shards partition traffic, not cloud state: a mutation one shard
        forwards changes what every shard's probes observe, so the
        origin shard's own eviction (done inside ``monitor_request``)
        is not enough.  Over-invalidation (e.g. a blocked mutation) is
        safe -- it only costs cache hits, never verdicts.
        """
        for index, monitor in enumerate(self.shards):
            if index == origin or monitor.probe_cache is None:
                continue
            monitor._invalidate_probe_cache()

    def close(self) -> None:
        """Release every shard's probe scheduler pool."""
        for monitor in self.shards:
            monitor.close()

    def __enter__(self) -> "MonitorFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- merged views ------------------------------------------------------

    @property
    def log(self) -> List[MonitorVerdict]:
        """The merged verdict log in global arrival order.

        For serially dispatched traffic this is byte-for-byte the log a
        single monitor would have produced (same rows, same order, same
        correlation ids -- the shards share one trace-id allocator).
        """
        with self._merge_lock:
            ordered = sorted(self._verdicts, key=lambda entry: entry[0])
        return [verdict for _, _, verdict in ordered]

    def violations(self) -> List[MonitorVerdict]:
        """All violation verdicts across the fleet, arrival-ordered."""
        return [verdict for verdict in self.log if verdict.violation]

    def merged_metrics(self):
        """One registry summing every shard's counters/gauges/histograms.

        Built fresh on each call via
        :func:`~repro.obs.metrics.merge_registries`; the shards keep
        writing to their own registries, this is a snapshot union.
        """
        return merge_registries(
            [monitor.obs.metrics for monitor in self.shards],
            clock=self.shards[0].obs.clock)

    def slo_report(self) -> Dict[str, Any]:
        """The SLO burn report over the merged registry."""
        engine = SLOEngine(self.merged_metrics(),
                           clock=self.shards[0].obs.clock)
        engine.snapshot()
        return engine.report()

    def alarm_report(self) -> Dict[str, Any]:
        """Every shard's alarm document, plus the fleet-wide worst state.

        Alarm state lives per shard (each shard evaluates its own SLO
        windows); the fleet view unions them so one poll answers "is any
        shard alarming?".
        """
        shards = [monitor.alarms.report() for monitor in self.shards]
        overall = max((report["overall"] for report in shards),
                      key=lambda state: SEVERITY_ORDER[state])
        return {"overall": overall, "shards": shards}

    def stats(self) -> Dict[str, Any]:
        """Dispatch and outcome counts, per shard and fleet-wide."""
        per_shard = []
        for index, monitor in enumerate(self.shards):
            per_shard.append({
                "shard": index,
                "dispatched": self.dispatched[index],
                "verdicts": len(monitor.log),
                "violations": len(monitor.violations()),
                "probes": monitor.provider.probe_count,
                "traces": monitor.obs.tracer.started_count,
                "events": monitor.obs.events.emitted_count,
                # Per-shard probe-cache counters (None when the fleet's
                # options leave the cache off): each shard owns its own
                # ProbeCache, so hits never cross shards.
                "probe_cache": (monitor.probe_cache.stats()
                                if monitor.probe_cache is not None
                                else None),
                # Per-shard overload bulkhead: admission decisions and
                # the ladder rung (None when the overload controls are
                # off).  Each shard owns its own controller/ladder, so
                # one overloaded shard degrades without dragging its
                # siblings down.
                "admission": (monitor.admission.stats()
                              if monitor.admission is not None else None),
                "mode": (monitor.ladder.stats()
                         if monitor.ladder is not None else None),
            })
        return {
            "shards": len(self.shards),
            "requests": sum(self.dispatched),
            "violations": sum(entry["violations"] for entry in per_shard),
            "shed": sum(entry["admission"]["shed"] for entry in per_shard
                        if entry["admission"] is not None),
            "per_shard": per_shard,
        }

    # -- batched persistence ----------------------------------------------

    def flush_audit(self, destination: Union[str, IO[str]]) -> int:
        """Append verdict rows not yet flushed, each batch in arrival order.

        Writes one batch per call instead of one write per request --
        the fleet's answer to audit persistence under high request
        rates.  The cursor follows the order verdicts were merged, so
        each row is written exactly once even when a concurrent shard
        merges a lower arrival number after a flush.  A path is opened
        in append mode; pass an open file to control buffering
        yourself.  Returns the rows written.
        """
        with self._merge_lock:
            batch = sorted(self._verdicts[self._audit_cursor:],
                           key=lambda entry: entry[0])
            self._audit_cursor = len(self._verdicts)
        lines = [verdict_to_json(verdict) + "\n"
                 for _, _, verdict in batch]
        self._write(destination, lines)
        return len(lines)

    def flush_events(self, destination: Union[str, IO[str]]) -> int:
        """Append wide events not yet flushed, shard by shard.

        Each record carries an extra ``shard`` field.  Events a shard's
        bounded ring already evicted before the flush are lost to the
        file (the ring is the source); flush often enough for the
        retention window.  Shards may keep emitting during the flush:
        each cursor advances to the last seq actually written, so later
        events wait for the next flush.  Returns the records written.
        """
        lines: List[str] = []
        for index, monitor in enumerate(self.shards):
            cursor = self._event_cursors[index]
            fresh = [record for record in monitor.obs.events.retained()
                     if record.seq > cursor]
            for record in fresh:
                payload = record.to_dict()
                payload["shard"] = index
                lines.append(json.dumps(payload, sort_keys=True) + "\n")
            if fresh:
                self._event_cursors[index] = fresh[-1].seq
        self._write(destination, lines)
        return len(lines)

    @staticmethod
    def _write(destination: Union[str, IO[str]],
               lines: Iterable[str]) -> None:
        if isinstance(destination, str):
            with open(destination, "a", encoding="utf-8") as handle:
                handle.writelines(lines)
        else:
            destination.writelines(lines)

    def __repr__(self) -> str:
        return (f"<MonitorFleet shards={len(self.shards)} "
                f"requests={sum(self.dispatched)}>")
