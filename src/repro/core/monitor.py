"""The runtime cloud monitor: the Figure 2 workflow as a proxy wrapper.

Per monitored request the monitor:

1. **probes** the addressable state of the private cloud with GET requests
   (carrying the requesting user's own token -- exactly what the paper's
   wrapper does with urllib2) and binds the OCL roots ``project``,
   ``volume``, ``quota_sets``, ``user``;
2. **checks the pre-condition** of the method contract; in enforcing mode
   a failing pre-condition blocks the request with 412 ("the HTTP method
   request from CM user is forwarded to the private cloud if the
   pre-condition is satisfied"), in audit mode (the automated-testing-script
   user of Section III-B) the request is forwarded anyway and a success
   response despite a false pre-condition is reported as a violation --
   that is how privilege-escalation mutants are killed;
3. **snapshots** the ``pre()`` old values the post-condition references
   ("we save the resource state before the method execution in the local
   variables of the monitor");
4. **forwards** the request to the private cloud;
5. **checks the response code** against the method's expected success codes
   and **re-probes** to evaluate the post-condition;
6. returns the cloud's response when everything holds, otherwise "an
   invalid response specifying the faulty behavior".

With demand-driven probe planning (the default, see
:mod:`repro.core.planning`) each probe round binds only the roots the
contract's expressions actually read, instead of the full
project/volume/quota/user sweep the paper's wrapper pays on every phase.

This module runs the stages; the probing lives in
:mod:`repro.core.provider` and the outcome rules -- which verdict, which
HTTP answer -- in the pure :func:`repro.core.verdicts.decide`.
"""

from __future__ import annotations

import re
import threading
from contextlib import nullcontext
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..alerting import AlarmEngine
from ..errors import MonitorError
from ..httpsim import Application, Network, Request, Response, path
from ..obs import Observability, ObservabilityMiddleware, SLOEngine
from ..obs.analytics import critical_path, trace_report
from ..obs.overhead import OverheadRecorder
from ..obs.sampling import DECISION_DROPPED, TraceSampler
from ..ocl import Context
from ..uml import ClassDiagram, StateMachine, Trigger
from .admission import (
    ARRIVAL_HEADER,
    MODE_GAUGE,
    AdmissionController,
    DeadlineBudget,
    parse_arrival,
)
from .contracts import MethodContract
from .coverage import CoverageTracker
from .options import MonitorOptions, resolve_options
from .planning import ProbePlan
from .probecache import ProbeCache
from .provider import CloudStateProvider
from .resilience import transport_failure
from .scheduler import ProbeScheduler
from .verdicts import Facts, MonitorVerdict, Verdict, decide


def _round9(value: float) -> float:
    """Canonical 9-significant-digit rounding for wide-event durations."""
    return float(f"{float(value):.9g}")


#: Success codes the monitor accepts per HTTP method (Cinder conventions;
#: Listing 2 checks ``response.code == 204`` for DELETE).
EXPECTED_SUCCESS_CODES: Dict[str, Tuple[int, ...]] = {
    "GET": (200,),
    "PUT": (200,),
    "POST": (200, 201, 202),
    "DELETE": (204,),
}


#: Route captures in a monitor path template: ``<str:volume_id>`` -> name.
_PATH_CAPTURE = re.compile(r"<(?:[a-z]+:)?([A-Za-z_]\w*)>")


class MonitoredOperation:
    """One monitor route: trigger + forward target + expected codes."""

    def __init__(self, trigger: Trigger, monitor_path: str,
                 cloud_url_template: str,
                 expected_codes: Optional[Tuple[int, ...]] = None):
        self.trigger = trigger
        self.monitor_path = monitor_path
        self.cloud_url_template = cloud_url_template
        self.expected_codes = (expected_codes or
                               EXPECTED_SUCCESS_CODES[trigger.method])

    @property
    def item_capture(self) -> Optional[str]:
        """The capture name that addresses the monitored item, or ``None``.

        A route can declare several captures (scope segments plus the item
        id); the *last* capture of the URI template is the one naming the
        resource the operation targets (e.g. ``volume_id`` in
        ``cmonitor/volumes/<str:volume_id>``).  Collection routes have no
        captures and no item.
        """
        names = _PATH_CAPTURE.findall(self.monitor_path)
        return names[-1] if names else None

    def cloud_url(self, path_args: Dict[str, str]) -> str:
        """Fill the forward-URL template with the request's path captures."""
        url = self.cloud_url_template
        for key, value in path_args.items():
            url = url.replace("{" + key + "}", str(value))
        return url

    def __repr__(self) -> str:
        return f"<MonitoredOperation {self.trigger} at {self.monitor_path}>"


def operations_from_models(machine: StateMachine, diagram: ClassDiagram,
                           cloud_base: str, mount: str = "cmonitor",
                           scope_var: str = "project_id",
                           ) -> List[MonitoredOperation]:
    """Derive the monitor's routes from the design models.

    Each trigger of the behavioral model maps to the URI the resource model
    derives for its resource.  The monitor is scoped to one project
    (Listing 2 forwards to a fixed project URL), so the leading
    ``/{project_id}`` template segment is dropped from the monitor-side
    path and baked into *cloud_base* instead.  Remaining ``{x}`` template
    segments become ``<str:x>`` route captures.
    """
    paths = diagram.uri_paths()
    operations: List[MonitoredOperation] = []
    scope_prefix = "/{" + scope_var + "}"
    for trigger in machine.triggers():
        cls = diagram.find_class(trigger.resource)
        if cls is None:
            continue
        if cls.is_collection:
            uri = paths.get(cls.name)
        else:
            uri = diagram.item_uri(cls.name)
        if uri is None:
            continue
        # Strip the project-scope segment only when it is a *prefix* of a
        # longer path -- when the whole URI is "/{project_id}" the template
        # addresses the item itself (e.g. Keystone's project resource).
        if uri.startswith(scope_prefix) and len(uri) > len(scope_prefix):
            uri = uri[len(scope_prefix):]
        monitor_path = (mount + re.sub(r"\{(\w+)\}", r"<str:\1>", uri)
                        ).rstrip("/")
        cloud_url = cloud_base + uri
        operations.append(MonitoredOperation(trigger, monitor_path, cloud_url))
    return operations


class CloudMonitor:
    """The generated monitor: contracts + state provider + forwarding."""

    def __init__(self, contracts: Dict[Trigger, MethodContract],
                 provider: CloudStateProvider,
                 operations: Iterable[MonitoredOperation],
                 enforcing: Optional[bool] = None,
                 coverage: Optional[CoverageTracker] = None,
                 observability: Optional[Observability] = None,
                 probe_planning: Optional[bool] = None,
                 options: Optional[MonitorOptions] = None):
        #: The resolved :class:`~repro.core.options.MonitorOptions` this
        #: monitor was built with; ``enforcing=`` / ``probe_planning=``
        #: override the matching fields.
        self.options = resolve_options(options, enforcing=enforcing,
                                       probe_planning=probe_planning)
        self.contracts = contracts
        self.provider = provider
        self.operations = list(operations)
        self.enforcing = self.options.enforcing
        self.coverage = coverage
        #: When True (the default), each probe phase binds only the roots
        #: the contract's :class:`~repro.core.planning.ProbePlan` proves
        #: necessary; False restores the paper's probe-everything rounds.
        #: The ``roots`` keyword is part of the provider ``bindings``
        #: contract, so no capability sniffing happens here.
        self.probe_planning = bool(self.options.probe_planning)
        #: Cross-request probe cache (see
        #: :mod:`repro.core.probecache`), built here so every monitor --
        #: every fleet shard -- owns its own; ``options.probe_cache``
        #: off (the default) keeps the uncached behavior.
        self.probe_cache: Optional[ProbeCache] = None
        if self.options.probe_cache:
            self.probe_cache = ProbeCache()
            self.provider.probe_cache = self.probe_cache
        #: Metrics + tracer + clock shared with the provider, the network,
        #: and the contracts; pass a ManualClock-backed Observability for
        #: deterministic timings.
        self.obs = observability if observability is not None \
            else Observability()
        #: What probes and the forward travel through: the provider's own
        #: transport (the bare network unless the provider was built
        #: resilient), or -- when ``options.resilience`` is set -- a
        #: :class:`~repro.core.resilience.ResilientTransport` built from
        #: its retry/breaker parameters, threading retries + circuit
        #: breaking under every send (breakers are lazy, so building it
        #: performs no clock reads).
        if self.options.resilience is not None:
            self.provider.transport = self.options.resilience.build_transport(
                self.provider.network)
        self.transport = self.provider.transport
        attach = getattr(self.transport, "attach_observability", None)
        if attach is not None and getattr(
                self.transport, "observability", None) is None:
            attach(self.obs)
        if self.provider.observability is None:
            self.provider.observability = self.obs
        if self.provider.network.observability is None:
            self.provider.network.attach_observability(self.obs)
        for contract in self.contracts.values():
            contract.instrument(self.obs)
        #: The burn-rate engine over the shared registry: snapshotted
        #: after every monitored request, reported by ``/-/health`` and
        #: ``cloudmon slo``.  Replace :attr:`slos`.slos to monitor custom
        #: objectives.
        self.slos = SLOEngine(self.obs.metrics, clock=self.obs.clock)
        #: Alarm state machines over the burn-rate windows (see
        #: :mod:`repro.alerting`): evaluated right after every SLO
        #: snapshot with the snapshot's own clock reading, so alarms add
        #: zero clock reads to the monitored path.  Transitions land in
        #: the wide-event log as ``alarm_transition`` events; replace the
        #: rules/sinks with :meth:`configure_alarms`.
        self.alarms = AlarmEngine(self.slos, events=self.obs.events)
        #: Overload controls (see :mod:`repro.core.admission`), all off
        #: by default: a per-request deadline-budget template, one
        #: admission controller per monitor/shard, and the degradation
        #: ladder.  When all three are ``None`` the monitored path runs
        #: the exact pre-admission code -- zero extra clock reads, so
        #: recorded digest gates hold byte-for-byte.
        self.deadline = self.options.deadline
        self.admission: Optional[AdmissionController] = (
            self.options.admission.build()
            if self.options.admission is not None else None)
        self.ladder = (self.options.degradation.build()
                       if self.options.degradation is not None else None)
        #: Head/tail trace sampling plus obs-overhead self-accounting
        #: (see :mod:`repro.obs.sampling` / :mod:`repro.obs.overhead`).
        #: ``None`` (the default) retains every trace and runs the exact
        #: pre-sampling finish path -- zero extra clock reads, recorded
        #: digest gates hold byte-for-byte.
        self.sampler: Optional[TraceSampler] = (
            TraceSampler(self.options.sampling, metrics=self.obs.metrics)
            if self.options.sampling is not None else None)
        self.overhead: Optional[OverheadRecorder] = (
            OverheadRecorder(self.obs.metrics, self.obs.clock)
            if self.options.sampling is not None
            and self.options.sampling.overhead else None)
        #: Mode the in-flight request is served under ("full" when the
        #: overload controls are off); thread-local like the counter
        #: baselines, read by the wide event.
        self._request_mode = threading.local()
        #: Probe fan-out width.  At 1 probing is always serial and
        #: untimed; above 1 (4 by default) the provider gets a
        #: :class:`~repro.core.scheduler.ProbeScheduler` of that many
        #: workers, and a probe phase overlaps its independent root
        #: probes only while recent probe sends are slow (see
        #: :data:`~repro.core.scheduler.OVERLAP_AFTER`).
        #: Outcome merging is submission-ordered, so the verdict stream
        #: is byte-identical to the serial path.
        self.fanout = max(1, int(self.options.fanout))
        self.scheduler: Optional[ProbeScheduler] = None
        if self.fanout > 1:
            self.scheduler = ProbeScheduler(width=self.fanout,
                                            events=self.obs.events)
            self.provider.scheduler = self.scheduler
        #: Appends to the verdict log must not tear under a sharded or
        #: stress deployment driving one monitor from many threads.
        self._log_lock = threading.Lock()
        #: Counter baselines captured at the start of the in-flight
        #: request so its wide event can report per-request deltas;
        #: thread-local because concurrent requests each carry their own.
        self._baseline = threading.local()
        #: Every verdict, in arrival order -- the validation log
        #: ("the invocation results can be logged for further fault
        #: localization", Section III-B).
        self.log: List[MonitorVerdict] = []
        self.app = Application("cmonitor")
        self.app.add_middleware(
            ObservabilityMiddleware(self.obs, app_name="cmonitor"))
        self._install_routes()

    # -- construction ------------------------------------------------------------

    @classmethod
    def for_service(cls, name: str, network: Network, project_id: str,
                    **kwargs) -> "CloudMonitor":
        """Assemble the monitor for a registered scenario by *name*.

        The one front door for every monitored service: looks *name* up
        in the :mod:`repro.core.scenarios` registry (``cinder``, ``nova``,
        ``keystone`` ship built in; register your own with
        :func:`repro.core.scenarios.register_scenario`) and hands the
        remaining keyword arguments to its builder.
        """
        from .scenarios import build_scenario

        return build_scenario(name, network, project_id, **kwargs)

    def close(self) -> None:
        """Release the probe scheduler's worker pool (if any)."""
        if self.scheduler is not None:
            self.scheduler.close()

    def configure_alarms(self, rules=None, sinks=None) -> AlarmEngine:
        """Replace the alarm engine's rules and/or notification sinks.

        *rules* is a sequence of :class:`~repro.alerting.AlarmRule`
        (``None`` keeps the default one-per-SLO set); *sinks* a sequence
        of :class:`~repro.alerting.NotificationSink` (``None`` keeps the
        wide-event-log sink).  Alarm state restarts from OK -- changing
        the rule set mid-incident re-derives severity on the next
        evaluation rather than trusting stale state.
        """
        self.alarms = AlarmEngine(
            self.slos, rules=rules, sinks=sinks,
            events=self.obs.events if sinks is None else None)
        return self.alarms

    def _install_routes(self) -> None:
        by_path: Dict[str, List[MonitoredOperation]] = {}
        for operation in self.operations:
            by_path.setdefault(operation.monitor_path, []).append(operation)
        for monitor_path, operations in by_path.items():
            self.app.add_route(path(
                monitor_path,
                self._make_view({op.trigger.method: op for op in operations}),
                name=monitor_path,
            ))
        # Operational endpoints (outside the monitored namespace): the
        # metrics exposition (Prometheus text by default, ?format=json
        # for the structured document including retained traces), the
        # SLO health report, the wide-event log, and trace lookup.
        self.app.add_route(path("-/metrics", self._metrics_view,
                                name="metrics", methods=("GET",)))
        self.app.add_route(path("-/health", self._health_view,
                                name="health", methods=("GET",)))
        self.app.add_route(path("-/alarms", self._alarms_view,
                                name="alarms", methods=("GET",)))
        self.app.add_route(path("-/events", self._events_view,
                                name="events", methods=("GET",)))
        self.app.add_route(path("-/traces", self._trace_index_view,
                                name="traces", methods=("GET",)))
        self.app.add_route(path("-/traces/<str:trace_id>", self._trace_view,
                                name="trace", methods=("GET",)))

    def _metrics_view(self, request: Request, **kwargs) -> Response:
        if request.params.get("format") == "json":
            return Response.json_response(self.obs.export_json())
        text = self.obs.export_prometheus()
        return Response(200, text.encode(), headers={
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8"})

    def _health_view(self, request: Request, **kwargs) -> Response:
        """The SLO burn-rate report plus active alarm states.

        A load balancer (or a human) polls this instead of re-deriving
        health from the raw metrics exposition.  503 while any objective
        is burning **or** any alarm stands at critical -- an alarm held
        up by de-escalation hysteresis keeps the endpoint unhealthy even
        on an evaluation tick where the burn rate momentarily dipped.
        200 otherwise (warn-level alarms are reported but not unhealthy).
        """
        report = self.slos.report()
        report["alarms"] = self.alarms.status()
        code = (200 if report["overall"] == "ok"
                and not self.alarms.has_critical() else 503)
        return Response.json_response(report, code)

    def _alarms_view(self, request: Request, **kwargs) -> Response:
        """The full alarm document: per-rule states + transition log."""
        return Response.json_response(self.alarms.report())

    def _events_view(self, request: Request, **kwargs) -> Response:
        """The retained wide events, filterable by query parameters.

        ``?event=``, ``?trace_id=``, and ``?verdict=`` filter; ``?limit=``
        keeps only the most recent N matches (a negative N is a 400).
        """
        criteria: Dict[str, Any] = {}
        for key in ("event", "trace_id", "verdict"):
            value = request.params.get(key)
            if value is not None:
                criteria[key] = value
        limit = request.params.get("limit")
        if limit is not None:
            try:
                criteria["limit"] = int(limit)
            except ValueError:
                return Response.json_response(
                    {"error": f"limit must be an integer, got {limit!r}"},
                    400)
            if criteria["limit"] < 0:
                return Response.json_response(
                    {"error": f"limit must be non-negative, got {limit!r}"},
                    400)
        return Response.json_response({
            "retained": len(self.obs.events),
            "emitted": self.obs.events.emitted_count,
            "events": self.obs.events.to_dicts(**criteria),
        })

    def _trace_index_view(self, request: Request, **kwargs) -> Response:
        """Trace analytics over the retained ring (attribution, exemplars)."""
        return Response.json_response(
            trace_report(self.obs.metrics, self.obs.tracer))

    def _trace_view(self, request: Request, trace_id: str = "",
                    **kwargs) -> Response:
        """One retained trace by id -- the exemplar resolution endpoint.

        The raw span record plus the analytics view of it (spans ranked
        by cost, dominant stage), so the hop from an exemplar to "what
        was slow about this exact request" is a single GET.
        """
        trace = self.obs.tracer.find(trace_id)
        if trace is None:
            return Response.json_response(
                {"error": f"no retained trace {trace_id!r} "
                          "(evicted or never finished)"}, 404)
        record = trace.to_dict()
        record["critical_path"] = critical_path(trace)
        return Response.json_response(record)

    def _make_view(self, by_method: Dict[str, "MonitoredOperation"]):
        def view(request: Request, **kwargs) -> Response:
            operation = by_method.get(request.method)
            if operation is None:
                return Response.method_not_allowed(tuple(by_method))
            response, _ = self.monitor_request(operation, request)
            return response

        return view

    # -- the Figure 2 workflow ---------------------------------------------------

    def monitor_request(self, operation: MonitoredOperation,
                        request: Request) -> Tuple[Response, MonitorVerdict]:
        """Run one request through pre-check, forward, post-check.

        Every stage is wrapped in a trace span (``pre_probe``,
        ``pre_eval``, ``snapshot``, ``forward``, ``post_probe``,
        ``post_eval``); the finished trace feeds the per-stage latency
        histograms and its id becomes the verdict's correlation id.
        """
        token = request.auth_token or ""
        contract = self.contracts.get(operation.trigger)
        if contract is None:
            raise MonitorError(
                f"no contract generated for {operation.trigger}")
        # The item id is the capture the URI template declares for the
        # operation's resource -- not whichever capture iterates first, so
        # multi-capture routes (scope segments + item id) bind correctly.
        capture = operation.item_capture
        item_id = (request.path_args.get(capture)
                   if capture is not None else None)
        plan: Optional[ProbePlan] = (
            contract.probe_plan(tuple(self.provider.roots))
            if self.probe_planning else None)

        trace = self.obs.tracer.begin(str(operation.trigger))
        trace.set_tag("method", operation.trigger.method)
        trace.set_tag("resource", operation.trigger.resource)
        if plan is not None:
            trace.set_tag("probe_plan", plan.describe())

        # Wide-event bookkeeping: transport events emitted while this
        # request is in flight inherit its trace id, and the request's
        # own wide event reports per-request counter deltas.
        metrics = self.obs.metrics
        self._baseline.value = {
            "probes": float(self.provider.probe_count),
            "retries": metrics.total("monitor_retries_total"),
            "transport_failures":
                metrics.total("monitor_transport_failures_total"),
            "probe_cache_hits":
                metrics.total("monitor_probe_cache_hits_total"),
        }
        with self.obs.events.correlate(trace.trace_id):
            mode, budget, slot_held, mode_reason = self._admit(request)
            self._request_mode.value = mode
            self.provider.current_budget = budget
            if mode == "cached_only":
                self.provider.probe_mode = "cache"
            try:
                return self._run_workflow(operation, request, token,
                                          contract, item_id, plan, trace,
                                          mode=mode, budget=budget,
                                          mode_reason=mode_reason)
            finally:
                self._request_mode.value = None
                self.provider.current_budget = None
                self.provider.probe_mode = "live"
                if slot_held:
                    self.admission.release()

    def _admit(self, request: Request):
        """The overload gate in front of the Figure-2 workflow.

        Returns ``(mode, budget, slot_held, reason)``: the degradation
        mode to serve this request under, its deadline budget, whether an
        admission slot must be released afterwards, and a human-readable
        reason for any non-``full`` mode.  With every overload control
        off (the default) that is ``("full", None, False, None)``, decided
        without a clock read.

        One clock reading covers the admission decision, the ladder
        update, and the budget start; the request's scheduled arrival
        (:data:`~repro.core.admission.ARRIVAL_HEADER`, stamped by paced
        trace replay) both measures queue lag and backdates the budget,
        so queue wait counts against the deadline.
        """
        if (self.deadline is None and self.admission is None
                and self.ladder is None):
            return "full", None, False, None
        clock = self.obs.clock
        now = clock()
        arrival = parse_arrival(request)
        decision = AdmissionController.ADMIT
        slot_held = False
        if self.admission is not None:
            decision = self.admission.admit(now=now, scheduled_at=arrival)
            slot_held = decision != AdmissionController.SHED
        shed = decision == AdmissionController.SHED
        mode, transition = "full", None
        severity = "ok"
        if self.ladder is not None:
            severity = self.alarms.overall
            mode, transition = self.ladder.observe(shed, severity=severity)
        reason = None
        if shed:
            # A shed request is served audit-only regardless of the
            # ladder's rung: admission already decided it cannot afford
            # contract evaluation.
            mode = "audit_only"
            reason = "admission shed"
        elif mode != "full":
            reason = f"degradation ladder at {mode}"
        budget: Optional[DeadlineBudget] = None
        if self.deadline is not None:
            budget = self.deadline.budget(
                clock, start=arrival if arrival is not None else now)
        if shed:
            self.obs.metrics.counter(
                "monitor_shed_total",
                "Requests shed by admission control "
                "(served audit-only)").inc()
            self.obs.events.emit(
                "admission_shed",
                decision=decision,
                lag=self.admission.last_lag,
                mode=mode,
                deadline_remaining_seconds=(
                    budget.remaining(now) if budget is not None else None))
        if transition is not None:
            self.obs.metrics.gauge(
                "monitor_degraded_mode",
                "Degradation ladder rung: 0 full, 1 cached_only, "
                "2 audit_only").set(MODE_GAUGE[self.ladder.mode])
            self.obs.events.emit(
                "monitor_mode_transition",
                from_mode=transition[0],
                to_mode=transition[1],
                shed=shed,
                severity=severity,
                deadline_remaining_seconds=(
                    budget.remaining(now) if budget is not None else None))
        return mode, budget, slot_held, reason

    def _run_workflow(self, operation: MonitoredOperation, request: Request,
                      token: str, contract: MethodContract,
                      item_id: Optional[str], plan: Optional[ProbePlan],
                      trace, mode: str, budget: Optional[DeadlineBudget],
                      mode_reason: Optional[str],
                      ) -> Tuple[Response, MonitorVerdict]:
        """Stages (1)-(6) of Figure 2 (see :meth:`monitor_request`).

        Each stage records what it observed in a
        :class:`~repro.core.verdicts.Facts` record and asks
        :func:`~repro.core.verdicts.decide` whether the verdict is
        settled; the first settled outcome ends the run.  *mode* /
        *budget* are the overload controls' per-request verdicts (see
        :meth:`_admit`): ``audit_only`` settles before any probe,
        ``cached_only`` answers probes from the probe cache, and an
        exhausted *budget* turns unbound roots into a degraded forward
        (pre phase) or a ``deadline_exceeded`` reason (post phase).
        """
        facts = Facts(self.enforcing, mode, operation.expected_codes,
                      mode_reason)
        requirements = contract.security_requirements
        snapshot = cloud_response = None
        outcome = decide(facts)
        if outcome is None:
            # (1) probe the pre-state.  The pre round also binds the
            # snapshot roots: its context is reused by the snapshot.
            with trace.span("pre_probe"):
                if plan is not None and not plan.pre_phase_roots:
                    # The contract reads no pre-state at all -- constant
                    # pre-condition and no snapshot roots -- so the phase
                    # skips the provider round-trip.
                    pre_context = Context({}, strict=False)
                    facts.pre_unbound = frozenset()
                else:
                    pre_context = self.provider.context(
                        token, item_id, roots=(plan.pre_phase_roots
                                               if plan is not None else None))
                    facts.pre_unbound = self.provider.unbound_roots
            self._observe_deadline(facts, facts.pre_unbound, budget)
            outcome = decide(facts)
        if outcome is None:
            # (2) check the pre-condition.
            with trace.span("pre_eval"):
                applicable = contract.applicable_cases(pre_context)
                facts.pre_holds = bool(applicable)
            requirements = self._requirements(contract, applicable)
            outcome = decide(facts)
        if outcome is None:
            # (3) snapshot the old values the post-condition references,
            # (4) forward to the private cloud.
            with trace.span("snapshot"):
                snapshot = contract.snapshot(pre_context)
            cloud_response = self._forward(operation, request, trace, budget)
            facts.transport_failure = transport_failure(cloud_response)
            facts.cloud_status = cloud_response.status_code
            outcome = decide(facts)
        if outcome is None:
            # (5) re-probe and check the post-condition.
            with trace.span("post_probe"):
                post_context = self.provider.context(
                    token, item_id, roots=(plan.post_phase_roots
                                           if plan is not None else None))
            facts.post_unbound = self.provider.unbound_roots
            self._observe_deadline(facts, facts.post_unbound, budget)
            outcome = decide(facts)
        if outcome is None:
            with trace.span("post_eval"):
                facts.post_holds = contract.check_post(post_context,
                                                       snapshot)
            outcome = decide(facts)
        if outcome.degraded:
            # Served without contract evaluation: forwarded unchecked,
            # the cloud's answer passes through untouched.
            cloud_response = self._forward(operation, request, trace, budget)
            facts.cloud_status = cloud_response.status_code

        # (6) the one verdict.  snapshot_bytes is recorded only after a
        # failed forward or a post phase: pre-violation, invalid-agreed
        # and rejected-valid verdicts carry 0, as the digest gates pin.
        post_ran = facts.post_unbound is not None
        forwarded = (facts.cloud_status is not None
                     and facts.transport_failure is None)
        verdict = self._finish(MonitorVerdict(
            operation.trigger, outcome.verdict, facts.pre_holds, forwarded,
            facts.cloud_status if forwarded else None, facts.post_holds,
            outcome.message, list(requirements),
            snapshot_bytes=(snapshot.storage_bytes
                            if post_ran or facts.transport_failure is not None
                            else 0),
            unbound_roots=(facts.post_unbound if post_ran
                           else facts.pre_unbound)), trace)
        if outcome.code is None:
            return cloud_response, verdict
        return self._invalid_response(outcome.code, verdict), verdict

    @staticmethod
    def _observe_deadline(facts: Facts, unbound,
                          budget: Optional[DeadlineBudget]) -> None:
        """Record whether the deadline ran out, exactly when it matters:
        a probe phase left roots unbound outside ``cached_only`` mode.

        Reading the budget is a clock read, so it happens nowhere else --
        a deterministic clock advances on every read."""
        if unbound and facts.mode != "cached_only":
            facts.deadline_exceeded = (budget is not None
                                       and budget.exhausted())

    def _forward(self, operation: MonitoredOperation, request: Request,
                 trace, budget: Optional[DeadlineBudget]) -> Response:
        """Send *request* on to the cloud: one span, one send, one eviction.

        The forward carries the query string: the template fills the
        path, the incoming params ride along (a template carrying its own
        query keeps both, incoming wins); the monitor-internal arrival
        stamp never leaks to the cloud.  The send is deadline-capped when
        the transport can be.  After a POST/PUT/DELETE the roots it can
        dirty are evicted from the probe cache *before* any post-phase
        probe (or later request) could be served stale state -- even
        when the transport failed, since a mangled response may still
        have executed.
        """
        forward_request = Request(request.method,
                                  operation.cloud_url(request.path_args),
                                  body=request.body)
        forward_request.headers = request.headers.copy()
        if forward_request.headers.get(ARRIVAL_HEADER) is not None:
            forward_request.headers.remove(ARRIVAL_HEADER)
        forward_request.params.update(request.params)
        with trace.span("forward") as forward_span:
            if budget is not None and getattr(self.transport,
                                              "supports_budget", False):
                cloud_response = self.transport.send(forward_request,
                                                     budget=budget)
            else:
                cloud_response = self.transport.send(forward_request)
            forward_span.tags["status"] = cloud_response.status_code
        if request.method != "GET":
            self._invalidate_probe_cache()
        return cloud_response

    # -- bookkeeping ----------------------------------------------------------------

    def _invalidate_probe_cache(self) -> None:
        """Evict probe-cache entries a forwarded mutation dirtied.

        The provider's :attr:`~CloudStateProvider.mutation_dirty_roots`
        names what a POST/PUT/DELETE can touch; eviction crosses all
        tokens and resource ids for those roots.  Each evicted entry
        ticks ``monitor_probe_cache_invalidations_total``.
        """
        cache = self.provider.probe_cache
        if cache is None:
            return
        evicted = cache.invalidate(self.provider.mutation_dirty_roots)
        if evicted:
            self.obs.metrics.counter(
                "monitor_probe_cache_invalidations_total",
                "Probe-cache entries evicted because a forwarded "
                "mutation dirtied their root").inc(evicted)

    @staticmethod
    def _requirements(contract: MethodContract, applicable) -> List[str]:
        if applicable:
            seen: Dict[str, None] = {}
            for case in applicable:
                for requirement in case.security_requirements:
                    seen.setdefault(requirement, None)
            return list(seen)
        return contract.security_requirements

    def _finish(self, verdict: MonitorVerdict,
                trace=None) -> MonitorVerdict:
        if trace is not None:
            verdict.correlation_id = trace.trace_id
            trace.set_tag("verdict", verdict.verdict)
            if verdict.unbound_roots:
                trace.set_tag("unbound_roots",
                              ",".join(verdict.unbound_roots))
            if self.sampler is None:
                self.obs.tracer.finish(trace)
                self._record_metrics(verdict, trace)
                self._emit_wide_event(verdict, trace)
                # One snapshot, one alarm evaluation, one clock reading:
                # the alarm engine reuses the snapshot's time, adding
                # zero clock reads to the deterministic per-request path.
                now = self.slos.snapshot()
                self.alarms.evaluate(now)
            else:
                self._finish_sampled(verdict, trace)
        with self._log_lock:
            self.log.append(verdict)
            # Indeterminate outcomes say nothing about the requirement
            # either way, so they must not move the pass/fail coverage
            # counters.
            if self.coverage is not None and not verdict.indeterminate:
                self.coverage.record(verdict.security_requirements,
                                     passed=not verdict.violation)
        return verdict

    def _finish_sampled(self, verdict: MonitorVerdict, trace) -> None:
        """The finish path with head/tail sampling enabled.

        Deliberately reordered relative to the default path so the
        sampling decision can see everything that forces a trace into
        the tail: metrics first (the exemplar-novelty check), then the
        SLO snapshot and alarm evaluation (alarm transitions force), and
        only then the decision, the conditional ring insert, and the
        wide event (shed for dropped traces).  The enabled path's event
        ordering and clock-read count therefore differ from the recorded
        digest gates -- by design: those gates pin the *disabled*
        default, and enabling sampling is an explicit opt-in.
        """
        sampler, overhead = self.sampler, self.overhead
        # Close the trace's clock before anything reads its duration --
        # the same single read Tracer.finish would have spent.
        if trace.end is None:
            trace.end = self.obs.clock()
        if overhead is not None:
            overhead.begin_request()
        stage = (overhead.stage if overhead is not None
                 else (lambda name: nullcontext()))

        # Exemplar force-keep: when this trace is about to become the
        # *first* exemplar of its monitor_request_seconds latency bucket
        # (a latency shape not seen before), it is pinned into the tail.
        # Later traces replacing a bucket's exemplar are sampled
        # normally; resolve_exemplars reports their traces as evicted
        # when the coin dropped them.
        histogram = self.obs.metrics.histogram(
            "monitor_request_seconds",
            "End-to-end latency of one monitored request",
            operation=str(verdict.trigger))
        novel = (histogram.bucket_index(trace.duration)
                 not in histogram.exemplars)
        with stage("metrics"):
            self._record_metrics(verdict, trace)
        if novel:
            sampler.mark_forced(trace.trace_id)

        now = self.slos.snapshot()
        if self.alarms.evaluate(now):
            # The transition events just emitted carry this trace's id
            # (we are inside its correlation scope): keep the trace they
            # point at.
            sampler.mark_forced(trace.trace_id)

        decision = sampler.decide(trace.trace_id, verdict=verdict.verdict,
                                  duration=trace.duration)
        trace.set_tag("sampling_decision", decision)
        with stage("tracing"):
            if decision != DECISION_DROPPED:
                self.obs.tracer.finish(trace)
        if decision == DECISION_DROPPED:
            # Head/tail on the event log too: a dropped (healthy) trace
            # sheds its monitor_request wide event.  Alarm, transition,
            # and shed events are emitted elsewhere and never shed.
            sampler.shed_event()
            return
        extra: Dict[str, Any] = {"sampling_decision": decision}
        if overhead is not None:
            attribution = overhead.attribution() or {}
            extra["obs_overhead"] = {name: _round9(cost)
                                     for name, cost
                                     in sorted(attribution.items())}
            extra["obs_overhead_seconds"] = _round9(
                sum(attribution.values()))
        # The events stage cannot appear inside the event it measures;
        # its cost lands in the obs_overhead_seconds histogram only.
        with stage("events"):
            self._emit_wide_event(verdict, trace, extra=extra)

    def _record_metrics(self, verdict: MonitorVerdict, trace) -> None:
        metrics = self.obs.metrics
        metrics.counter(
            "monitor_requests_total", "Requests run through the Figure-2 "
            "workflow").inc()
        metrics.counter(
            "monitor_verdicts_total", "Verdicts by outcome",
            verdict=verdict.verdict).inc()
        if verdict.violation:
            metrics.counter(
                "monitor_violations_total",
                "Verdicts where the cloud contradicted the contract").inc()
        if verdict.verdict == Verdict.PRE_BLOCKED:
            metrics.counter(
                "monitor_blocked_total",
                "Requests blocked in enforcing mode (412)").inc()
        if verdict.indeterminate:
            metrics.counter(
                "monitor_indeterminate_total",
                "Requests whose outcome the transport made unknowable"
                ).inc()
        metrics.counter(
            "monitor_snapshot_bytes_total",
            "Bytes of pre() old values stored across all requests").inc(
                verdict.snapshot_bytes)
        # Exemplars link each latency bucket to the most recent trace
        # that landed in it -- the hop from "p99 is high" to "this exact
        # request" (resolved via Tracer.find / the /-/traces/<id> route).
        exemplar = {"trace_id": trace.trace_id}
        metrics.histogram(
            "monitor_request_seconds",
            "End-to-end latency of one monitored request",
            operation=str(verdict.trigger)).observe(
                trace.duration, exemplar=exemplar, timestamp=trace.end)
        for span in trace.spans:
            metrics.histogram(
                "monitor_stage_seconds",
                "Latency of one Figure-2 stage",
                stage=span.name).observe(
                    span.duration, exemplar=exemplar, timestamp=span.end)

    def _emit_wide_event(self, verdict: MonitorVerdict, trace,
                         extra: Optional[Dict[str, Any]] = None) -> None:
        """One flat, queryable record for the whole monitored request.

        The audit log keeps the verdict; this event keeps *why*: the
        probe plan, the per-stage timing, the transport's retry and
        give-up deltas, and the breaker landscape at completion.
        *extra* fields (sampling decision, obs-overhead attribution)
        appear only on the sampling finish path, so the default event
        shape stays byte-identical.
        """
        metrics = self.obs.metrics
        baseline = getattr(self._baseline, "value", None) or {
            "probes": 0.0, "retries": 0.0, "transport_failures": 0.0,
            "probe_cache_hits": 0.0}
        self._baseline.value = None
        breaker_states = getattr(self.transport, "breaker_states", None)
        self.obs.events.emit(
            "monitor_request",
            trace_id=trace.trace_id,
            operation=str(verdict.trigger),
            method=verdict.trigger.method,
            resource=verdict.trigger.resource,
            verdict=verdict.verdict,
            pre_holds=verdict.pre_holds,
            post_holds=verdict.post_holds,
            forwarded=verdict.forwarded,
            response_status=verdict.response_status,
            message=verdict.message,
            security_requirements=list(verdict.security_requirements),
            unbound_roots=list(verdict.unbound_roots),
            monitor_mode=(getattr(self._request_mode, "value", None)
                          or "full"),
            probe_plan=trace.tags.get("probe_plan"),
            probes=int(self.provider.probe_count - baseline["probes"]),
            probe_cache_hits=int(
                metrics.total("monitor_probe_cache_hits_total")
                - baseline["probe_cache_hits"]),
            retries=int(metrics.total("monitor_retries_total")
                        - baseline["retries"]),
            transport_failures=int(
                metrics.total("monitor_transport_failures_total")
                - baseline["transport_failures"]),
            breaker_states=(breaker_states()
                            if callable(breaker_states) else {}),
            stage_seconds={span.name: _round9(span.duration)
                           for span in trace.spans},
            duration=_round9(trace.duration),
            **(extra or {}))

    @staticmethod
    def _invalid_response(code: int, verdict: MonitorVerdict) -> Response:
        return Response.json_response({"monitor": verdict.to_dict()}, code)

    # -- reporting --------------------------------------------------------------------

    def violations(self) -> List[MonitorVerdict]:
        """All violation verdicts recorded so far."""
        return [verdict for verdict in self.log if verdict.violation]

    def clear_log(self) -> None:
        """Forget recorded verdicts (coverage counters are kept)."""
        self.log.clear()

    def __repr__(self) -> str:
        mode = "enforcing" if self.enforcing else "audit"
        return (f"<CloudMonitor {mode} operations={len(self.operations)} "
                f"log={len(self.log)}>")
