"""Binding the OCL roots: the probe stage of the Figure-2 workflow.

A :class:`CloudStateProvider` answers "what does the cloud look like to
this user right now" by issuing GET probes with the requesting user's
own token (exactly what the paper's wrapper does with urllib2) and
mapping the answers to OCL root bindings.  Which probe binds which root
is one declarative table, :attr:`CloudStateProvider.probes`; a scenario
(Nova, Keystone, or a service you modelled yourself) declares its own
table and probe methods and inherits the single :meth:`bindings` loop,
the per-phase single-flight cache, the cross-request probe cache,
concurrent fan-out, and the overload seams.
"""

from __future__ import annotations

import threading
from functools import partial
from time import perf_counter
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)

from ..httpsim import Network, Request, Response, status
from ..obs import Observability
from ..ocl import Context
from ..ocl.values import UNDEFINED
from .admission import DeadlineBudget
from .planning import PROBE_COSTS, PROBE_ROOTS
from .probecache import ProbeCache
from .resilience import ProbeFailure, transport_failure
from .scheduler import ProbeScheduler, SingleFlight

#: A probe phase's work list: ``(root, thunk)`` pairs in probe order.
ProbeTasks = List[Tuple[str, Callable[[], Any]]]


class CloudStateProvider:
    """Binds the OCL roots by probing the cloud's REST surface.

    The paper defines state invariants "as a boolean expression over the
    addressable resources" (Section IV-B): a resource exists iff GET on its
    URI returns 200.  Every probe uses the requesting user's token.
    """

    #: The OCL roots this provider can bind; probe plans are computed
    #: against this set, so scenario-specific subclasses override it.
    roots: Tuple[str, ...] = PROBE_ROOTS

    #: GET cost of binding each root -- shared with the probe planner's
    #: estimates and the skipped-probe accounting (see
    #: :data:`repro.core.planning.PROBE_COSTS`).  Scenario subclasses
    #: override alongside :attr:`roots`.
    probe_costs: Dict[str, int] = PROBE_COSTS

    #: Roots whose probes read the *item* addressed by the request URI;
    #: their cache entries are keyed by the item id so two items never
    #: share a binding, and on a collection route (no item id) they bind
    #: ``{}`` without a GET.  Scenario subclasses override alongside
    #: :attr:`roots`.
    item_scoped_roots: Tuple[str, ...] = ("volume",)

    #: Roots a forwarded POST/PUT/DELETE may dirty -- what the monitor
    #: evicts from the probe cache after every mutation.  The Cinder
    #: scenario's data-plane mutations cannot change a token's identity,
    #: so ``user`` survives; subclasses whose mutations touch the
    #: identity plane must include it.
    mutation_dirty_roots: Tuple[str, ...] = ("project", "volume",
                                             "quota_sets")

    #: ``(root, probe method name)`` pairs in probe order: the one table
    #: :meth:`bindings` walks.  A probe method takes ``(token, item_id,
    #: cache)`` and returns the root's binding; scenario subclasses
    #: declare their own table alongside :attr:`roots`.
    probes: Tuple[Tuple[str, str], ...] = (
        ("project", "_probe_project"),
        ("quota_sets", "_probe_quota"),
        ("volume", "_probe_volume"),
        ("user", "_identity"),
    )

    def __init__(self, network: Network, project_id: str,
                 keystone_host: str = "keystone",
                 cinder_host: str = "cinder",
                 observability: Optional[Observability] = None,
                 transport=None):
        self.network = network
        self.project_id = project_id
        self.keystone_host = keystone_host
        self.cinder_host = cinder_host
        #: Probe counter for the OVERHEAD bench.
        self.probe_count = 0
        #: Optional shared observability; the owning monitor attaches its
        #: own when the provider was built without one.
        self.observability = observability
        #: What probes are sent through: the bare network by default, or a
        #: :class:`~repro.core.resilience.ResilientTransport` layering
        #: retries and circuit breaking over it.
        self.transport = transport if transport is not None else network
        #: Optional :class:`~repro.core.scheduler.ProbeScheduler`; when
        #: set (the owning monitor installs one for ``fanout > 1``), every
        #: probe send is timed into it, and a phase whose recent probes
        #: were slow issues its independent root probes concurrently.
        self.scheduler: Optional[ProbeScheduler] = None
        #: probe_count is read against per-request baselines, so its
        #: read-modify-write must not tear under concurrent fan-out; the
        #: scheduler's timing ring is written under the same lock.
        self._count_lock = threading.Lock()
        #: Thread-local state (unbound roots of the *calling thread's*
        #: last bindings call): concurrent requests through one provider
        #: must not read each other's probe outcomes.
        self._local = threading.local()
        #: Optional cross-request :class:`~repro.core.probecache.ProbeCache`
        #: (the owning monitor installs one when its
        #: ``options.probe_cache`` is on): untouched roots are served from
        #: cache instead of re-probing, and the monitor evicts the dirty
        #: roots after every forwarded mutation.
        self.probe_cache: Optional[ProbeCache] = None

    @property
    def unbound_roots(self) -> FrozenSet[str]:
        """Roots the calling thread's last :meth:`bindings` call failed to
        bind because the transport gave up on their probes; the monitor
        reads this to decide between evaluating the contract and an
        :data:`~repro.core.verdicts.Verdict.INDETERMINATE` verdict.
        Thread-local so concurrent requests keep separate outcomes."""
        return getattr(self._local, "unbound_roots", frozenset())

    @unbound_roots.setter
    def unbound_roots(self, value: FrozenSet[str]) -> None:
        self._local.unbound_roots = frozenset(value)

    @property
    def current_budget(self) -> Optional[DeadlineBudget]:
        """The calling thread's per-request deadline budget (or ``None``).

        The owning monitor installs it for the request's duration; probe
        sends pass it to a budget-aware transport and probe phases
        abandon their pending tasks once it is exhausted.  Thread-local
        so concurrent requests never share (or cap) each other's budget.
        """
        return getattr(self._local, "budget", None)

    @current_budget.setter
    def current_budget(self, value: Optional[DeadlineBudget]) -> None:
        self._local.budget = value

    @property
    def probe_mode(self) -> str:
        """``"live"`` (default) or ``"cache"`` for the calling thread.

        In ``"cache"`` mode (the degradation ladder's ``cached_only``
        rung) a probe phase answers only from the cross-request
        :attr:`probe_cache`; roots without a cached binding are reported
        unbound instead of issuing live GETs.
        """
        return getattr(self._local, "probe_mode", "live")

    @probe_mode.setter
    def probe_mode(self, value: str) -> None:
        self._local.probe_mode = value

    def _get(self, token: str, url: str,
             extra_headers: Optional[Dict[str, str]] = None,
             cache=None) -> Response:
        """Issue one probe GET; *cache* single-flights repeated URLs.

        The cache lives for one :meth:`bindings` call (one probe phase):
        two roots asking for the same URL with the same headers share a
        single network round trip and a single ``probe_count`` tick.  It
        is either a plain dict (serial probing) or a
        :class:`~repro.core.scheduler.SingleFlight` (concurrent fan-out,
        where two pool threads may race to the same URL).
        """
        key = (url, tuple(sorted((extra_headers or {}).items())))
        do = getattr(cache, "do", None)
        if do is not None:
            return do(key,
                      lambda: self._send_probe(token, url, extra_headers))
        if cache is not None and key in cache:
            return cache[key]
        response = self._send_probe(token, url, extra_headers)
        if cache is not None:
            cache[key] = response
        return response

    def _send_probe(self, token: str, url: str,
                    extra_headers: Optional[Dict[str, str]] = None,
                    ) -> Response:
        """The uncached probe send: GET, count, reject transport loss.

        With a concurrent scheduler installed the send is timed on the
        wall clock (never the injected clock, whose reads the digest
        gates pin) and the sample goes to the scheduler's ring.
        """
        headers = {"X-Auth-Token": token}
        if extra_headers:
            headers.update(extra_headers)
        if self.observability is not None:
            self.observability.metrics.counter(
                "monitor_probe_requests_total",
                "GET probes issued to bind the OCL roots").inc()
        probe = Request("GET", url, headers=headers)
        budget = self.current_budget
        scheduler = self.scheduler
        timed = scheduler is not None and scheduler.concurrent
        started = perf_counter() if timed else 0.0
        if budget is not None and getattr(self.transport,
                                          "supports_budget", False):
            response = self.transport.send(probe, budget=budget)
        else:
            response = self.transport.send(probe)
        with self._count_lock:
            self.probe_count += 1
            if timed:
                scheduler.record(perf_counter() - started)
        reason = transport_failure(response)
        if reason is not None:
            # The transport layer gave up (retries exhausted / breaker
            # open): this is NOT a cloud answer, so the binding must not
            # degrade to "resource absent" -- it is unknowable.
            raise ProbeFailure(f"probe {url} failed: {reason}")
        return response

    @staticmethod
    def probe_body(response: Response) -> Optional[Dict[str, Any]]:
        """The probe's JSON object, or ``None`` when unusable.

        A 2xx response with a malformed or non-object body (a mangling
        proxy, a half-written release) is treated like an unreachable
        resource: the binding stays undefined instead of crashing the
        monitor -- the addressable-state semantics degrade gracefully.
        """
        if not status.indicates_existence(response.status_code):
            return None
        try:
            body = response.json()
        except ValueError:
            return None
        return body if isinstance(body, dict) else None

    def bindings(self, token: str,
                 item_id: Optional[str] = None,
                 roots: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """Probe and return the OCL root bindings for one evaluation.

        *item_id* is the id captured from the monitored item URI (for the
        Cinder scenario, the volume id).  One rule covers every root of
        the :attr:`probes` table:

        * a requested root becomes a probe task;
        * an unrequested root adds its :attr:`probe_costs` (one GET when
          the table does not name it) to the
          ``monitor_probes_skipped_total`` metric;
        * an :attr:`item_scoped_roots` root on a route without an item id
          binds ``{}`` without a GET and counts nothing.

        *roots* is a :class:`~repro.core.planning.ProbePlan` phase set
        (``None`` binds everything).  Probes within one call share a
        single-flight cache, so identical URLs cost one round trip.
        Roots whose probes die in the transport layer are collected in
        :attr:`unbound_roots` instead of raising.

        Whether the phase overlaps is decided once, here, by the
        scheduler's ``should_overlap()``: an overlapped phase may race
        two pool threads to the same URL, so only it pays for a
        :class:`~repro.core.scheduler.SingleFlight`; a serial phase keeps
        the plain dict.
        """
        requested: FrozenSet[str] = (frozenset(self.roots) if roots is None
                                     else frozenset(roots))
        scheduler = self.scheduler
        overlap = scheduler is not None and scheduler.should_overlap()
        cache = SingleFlight() if overlap else {}
        tasks: ProbeTasks = []
        skipped = 0
        for root, probe in self.probes:
            # A collection route addresses no item: an item-scoped root
            # binds {} without a GET, so skipping it saves nothing.
            unaddressed = item_id is None and root in self.item_scoped_roots
            if root not in requested:
                if not unaddressed:
                    skipped += self.probe_costs.get(root, 1)
            elif unaddressed:
                tasks.append((root, dict))
            else:
                tasks.append((root, partial(getattr(self, probe), token,
                                            item_id, cache)))
        if skipped and self.observability is not None:
            self.observability.metrics.counter(
                "monitor_probes_skipped_total",
                "GET probes the demand-driven plan proved unnecessary").inc(
                    skipped)
        return self._execute_probe_tasks(tasks, token, item_id, overlap)

    def _execute_probe_tasks(self, tasks: ProbeTasks, token: str,
                             item_id: Optional[str],
                             overlap: bool) -> Dict[str, Any]:
        """Run one phase's ``(root, probe)`` tasks and merge their results.

        With *overlap* (and two or more tasks left) the probes overlap on
        the scheduler's pool; outcomes are merged **in task order**, so
        the returned bindings dict (and :attr:`unbound_roots`) are
        byte-identical to the serial loop.  A
        :class:`~repro.core.resilience.ProbeFailure` means the transport
        exhausted its retries (or the breaker is open): the root's value
        is unknowable, which is different from "the resource does not
        exist" -- so the root is recorded as unbound rather than bound to
        an empty value the contract would happily mis-evaluate.

        With a :attr:`probe_cache` installed, cached roots are answered
        without probing -- no network send, no ``probe_count`` tick --
        and freshly probed bindings are stored for the next request;
        failed probes are never cached.

        Two overload seams gate the live probing itself: in
        :attr:`probe_mode` ``"cache"`` every root the cache could not
        serve is reported unbound without a single GET, and an exhausted
        :attr:`current_budget` abandons the pending tasks of the phase
        (serially task by task; concurrently at submission, see
        :meth:`~repro.core.scheduler.ProbeScheduler.map`).
        """
        bindings: Dict[str, Any] = {}
        unbound: set = set()
        budget = self.current_budget
        if self.probe_cache is not None:
            tasks = self._consult_probe_cache(tasks, bindings, token,
                                              item_id)
        if self.probe_mode == "cache":
            # cached_only degradation: whatever the cache could not
            # answer stays unbound -- live GETs are exactly what this
            # mode exists to avoid.
            unbound.update(root for root, _ in tasks)
            tasks = []
        if overlap and len(tasks) > 1:
            thunks = [thunk for _, thunk in tasks]
            if budget is not None:
                # Pool threads have their own thread-locals: re-install
                # the request's budget inside each worker so its probe
                # sends stay capped.
                thunks = [self._budgeted(thunk, budget) for thunk in thunks]
            outcomes = self.scheduler.map(thunks, budget=budget)
            for (root, _), outcome in zip(tasks, outcomes):
                if outcome.ok:
                    bindings[root] = outcome.value
                else:
                    unbound.add(root)
        else:
            for root, thunk in tasks:
                if budget is not None and budget.exhausted():
                    unbound.add(root)
                    continue
                try:
                    bindings[root] = thunk()
                except ProbeFailure:
                    unbound.add(root)
        self.unbound_roots = frozenset(unbound)
        return bindings

    def _budgeted(self, thunk: Callable[[], Any],
                  budget: DeadlineBudget) -> Callable[[], Any]:
        """Wrap *thunk* to carry *budget* into the worker thread."""
        def run() -> Any:
            previous = self.current_budget
            self.current_budget = budget
            try:
                return thunk()
            finally:
                self.current_budget = previous

        return run

    def _consult_probe_cache(
            self, tasks: ProbeTasks, bindings: Dict[str, Any], token: str,
            item_id: Optional[str]) -> ProbeTasks:
        """Serve cached roots into *bindings*; wrap the rest to cache.

        Returns the remaining ``(root, probe)`` tasks, each wrapped so a
        *successful* probe stores its binding under ``(root, resource
        id, token)``.  Hits and misses tick the
        ``monitor_probe_cache_{hits,misses}_total`` counters.
        """
        cache = self.probe_cache
        remaining: ProbeTasks = []
        for root, thunk in tasks:
            scoped_id = item_id if root in self.item_scoped_roots else None
            hit, value = cache.get(root, scoped_id, token)
            if hit:
                bindings[root] = value
                self._count_cache(
                    "monitor_probe_cache_hits_total",
                    "Probe bindings served from the cross-request cache")
            else:
                self._count_cache(
                    "monitor_probe_cache_misses_total",
                    "Probe lookups the cross-request cache could not serve")
                remaining.append((root, self._caching_probe(
                    cache, root, scoped_id, token, thunk)))
        return remaining

    @staticmethod
    def _caching_probe(cache: ProbeCache, root: str,
                       scoped_id: Optional[str], token: str,
                       thunk: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap *thunk* so its successful result enters the cache.

        A :class:`~repro.core.resilience.ProbeFailure` propagates without
        caching -- an unreachable substrate is not an observation.
        """
        def probe_and_store() -> Any:
            value = thunk()
            cache.put(root, scoped_id, token, value)
            return value

        return probe_and_store

    def _count_cache(self, name: str, help_text: str) -> None:
        if self.observability is not None:
            self.observability.metrics.counter(name, help_text).inc()

    # -- per-root probes ---------------------------------------------------------

    def _probe_project(self, token: str, item_id: Optional[str],
                       cache) -> Dict[str, Any]:
        project: Dict[str, Any] = {}
        response = self._get(
            token,
            f"http://{self.keystone_host}/v3/projects/{self.project_id}",
            cache=cache)
        if self.probe_body(response) is not None:
            project["id"] = self.project_id
        volumes_body = self.probe_body(self._get(
            token,
            f"http://{self.cinder_host}/v3/{self.project_id}/volumes",
            cache=cache))
        if volumes_body is not None:
            project["volumes"] = volumes_body.get("volumes", [])
        return project

    def _probe_quota(self, token: str, item_id: Optional[str],
                     cache) -> Any:
        quota: Any = UNDEFINED
        quota_body = self.probe_body(self._get(
            token,
            f"http://{self.cinder_host}/v3/{self.project_id}/quota_sets",
            cache=cache))
        if quota_body is not None:
            quota = quota_body.get("quota_set", {})
        return quota

    def _probe_volume(self, token: str, volume_id: str,
                      cache) -> Dict[str, Any]:
        volume: Dict[str, Any] = {}
        item_body = self.probe_body(self._get(
            token,
            f"http://{self.cinder_host}/v3/{self.project_id}"
            f"/volumes/{volume_id}", cache=cache))
        if item_body is not None:
            volume = dict(item_body.get("volume", {}))
            # Release-2 clouds expose snapshots; on older releases the
            # probe 404s and the binding stays undefined (size 0).
            snaps_body = self.probe_body(self._get(
                token,
                f"http://{self.cinder_host}/v3/{self.project_id}"
                f"/snapshots?volume_id={volume_id}", cache=cache))
            if snaps_body is not None:
                volume["snapshots"] = snaps_body.get("snapshots", [])
        return volume

    def _identity(self, token: str, item_id: Optional[str] = None,
                  cache=None) -> Dict[str, Any]:
        """Resolve the requesting user via token introspection.

        With a cross-request :attr:`probe_cache` installed, the binding
        is cached per token like every other root.
        """
        user: Dict[str, Any] = {}
        whoami_body = self.probe_body(self._get(
            token, f"http://{self.keystone_host}/v3/auth/tokens",
            extra_headers={"X-Subject-Token": token}, cache=cache))
        if whoami_body is not None:
            info = whoami_body.get("token", {})
            user = {
                "id": info.get("user", {}).get("id"),
                "roles": [r["name"] for r in info.get("roles", [])],
                "groups": [g["name"] for g in info.get("groups", [])],
            }
        return user

    def context(self, token: str,
                item_id: Optional[str] = None,
                roots: Optional[Iterable[str]] = None) -> Context:
        """A lenient OCL context over freshly probed state.

        *roots* restricts probing to one plan phase's bindings; the
        context stays lenient, so a planned-away root resolves to
        undefined -- which the plan guarantees no expression will ask for.
        """
        return Context(self.bindings(token, item_id, roots=roots),
                       strict=False)

