"""Resilient transport for the monitor's probes and forwards.

The paper's Cloud Monitor is a proxy in front of a *live* private cloud
(Section VI / Figure 2); a live cloud drops requests, returns 5xx under
load, and sits behind flaky links.  A runtime monitor that assumes every
GET succeeds on the first try is unsound the moment the substrate
hiccups: it would either crash or -- worse -- issue a confident
valid/invalid verdict computed from state it never actually observed.

This module gives the monitor a degradation story:

* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *deterministic* jitter (a hash of attempt + host + seed, never
  ``random.random``), so retry schedules are reproducible in tests;
* :class:`CircuitBreaker` -- per-host closed/open/half-open breaker that
  stops hammering a host that keeps failing, driven by the injectable
  :mod:`repro.obs.clock`;
* :class:`ResilientTransport` -- a drop-in ``send`` wrapper around
  :class:`~repro.httpsim.network.Network` used by both the probe path
  (``CloudStateProvider._get``) and the forwarded request in
  ``CloudMonitor.monitor_request``.

When retries are exhausted or the breaker is open the transport does not
raise: it synthesizes a 503 response carrying the
:data:`TRANSPORT_ERROR_HEADER` so callers can tell "the transport gave
up" apart from "the cloud answered 503".  The state provider turns that
marker into :class:`ProbeFailure`, and the monitor turns unbindable roots
into an ``indeterminate`` verdict instead of guessing.

All backoff waits go through :func:`repro.obs.clock.sleeper_for`, so a
ManualClock-backed monitor retries without ever sleeping on wall time.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Dict, Optional

from ..errors import MonitorError
from ..httpsim.message import Request, Response
from ..obs.clock import Clock, sleeper_for, system_clock

#: Header marking a response synthesized by the transport itself (value is
#: the failure reason), never set by a real service.
TRANSPORT_ERROR_HEADER = "X-Transport-Error"

#: Status codes worth retrying: the gateway-ish failures a flaky substrate
#: produces.  4xx (including 404/412) are real answers, never retried.
RETRYABLE_STATUSES = frozenset({502, 503, 504})


class ProbeFailure(MonitorError):
    """A probe could not be completed even with retries.

    Raised by the state provider when the transport reports exhaustion or
    an open breaker; carries the OCL *root* whose binding is lost so the
    monitor can record it on the indeterminate verdict.
    """

    def __init__(self, message: str, root: Optional[str] = None):
        super().__init__(message)
        self.root = root


def transport_failure(response: Response) -> Optional[str]:
    """The transport-failure reason of *response*, or ``None``.

    Returns ``"retries-exhausted"`` / ``"circuit-open"`` for responses
    synthesized by :class:`ResilientTransport`, ``None`` for anything a
    real (or simulated) service produced.
    """
    return response.headers.get(TRANSPORT_ERROR_HEADER)


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The jitter is a pure function of ``(seed, key, attempt)`` -- two
    monitors with the same policy retrying the same host produce the same
    schedule, which keeps the chaos-parity gate and every test
    reproducible.  *jitter* is the maximum relative spread: ``0.1`` means
    each delay lands within +/-10% of the exponential curve.
    """

    def __init__(self, max_attempts: int = 3,
                 base_delay: float = 0.05,
                 multiplier: float = 2.0,
                 max_delay: float = 2.0,
                 jitter: float = 0.1,
                 seed: int = 0):
        if max_attempts < 1:
            raise MonitorError("a retry policy needs at least one attempt")
        if base_delay < 0 or max_delay < 0:
            raise MonitorError("retry delays cannot be negative")
        if not 0 <= jitter < 1:
            raise MonitorError("jitter must be in [0, 1)")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait *after* failed attempt number *attempt* (1-based)."""
        if attempt < 1:
            raise MonitorError(f"attempts are 1-based, got {attempt}")
        raw = self.base_delay * (self.multiplier ** (attempt - 1))
        capped = min(raw, self.max_delay)
        if not self.jitter:
            return capped
        digest = hashlib.sha256(
            f"{self.seed}|{key}|{attempt}".encode()).digest()
        # First 8 digest bytes -> uniform [0, 1) -> spread [-j, +j].
        unit = int.from_bytes(digest[:8], "big") / 2 ** 64
        return capped * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def retryable(self, response: Response) -> bool:
        """True when *response* is worth another attempt."""
        return response.status_code in RETRYABLE_STATUSES

    def __repr__(self) -> str:
        return (f"<RetryPolicy attempts={self.max_attempts} "
                f"base={self.base_delay} x{self.multiplier} "
                f"jitter={self.jitter}>")


class BreakerState:
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    #: Gauge encoding for the ``monitor_breaker_state`` metric.
    GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Closed/open/half-open breaker for one host.

    *failure_threshold* consecutive failures open the breaker; after
    *recovery_time* seconds (measured on the injected clock) it half-opens
    and admits one trial request.  A success in half-open closes it, a
    failure re-opens it for another full recovery window.
    """

    def __init__(self, failure_threshold: int = 5,
                 recovery_time: float = 30.0,
                 clock: Clock = system_clock):
        if failure_threshold < 1:
            raise MonitorError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.clock = clock
        self.failures = 0
        self._opened_at: Optional[float] = None
        self._half_open = False
        #: Concurrent fan-out probes to one host share this breaker; its
        #: state transitions are read-modify-write and must not tear.
        self._lock = threading.RLock()

    @property
    def state(self) -> str:
        """The current state, advancing open -> half-open on the clock."""
        if self._opened_at is None:
            return BreakerState.CLOSED
        if self._half_open:
            return BreakerState.HALF_OPEN
        if self.clock() - self._opened_at >= self.recovery_time:
            return BreakerState.HALF_OPEN
        return BreakerState.OPEN

    def allow(self) -> bool:
        """May a request pass right now?  Half-open admits the trial."""
        with self._lock:
            state = self.state
            if state == BreakerState.OPEN:
                return False
            if state == BreakerState.HALF_OPEN:
                self._half_open = True
            return True

    def record_success(self) -> None:
        """A request completed: reset to closed."""
        with self._lock:
            self.failures = 0
            self._opened_at = None
            self._half_open = False

    def record_failure(self) -> None:
        """A request failed (after its retries): count toward opening."""
        with self._lock:
            self.failures += 1
            if self._half_open or self.failures >= self.failure_threshold:
                self._opened_at = self.clock()
                self._half_open = False

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state} failures={self.failures}>"


class ResilientTransport:
    """``Network.send`` with retries, breakers, and graceful exhaustion.

    Drop-in for any object with a ``send(Request) -> Response`` method.
    Per-host breakers are created lazily with the configured parameters;
    metrics (``monitor_retries_total``, ``monitor_breaker_state``,
    ``monitor_transport_failures_total``) report into the attached
    :class:`~repro.obs.Observability`, and every backoff wait goes through
    :func:`~repro.obs.clock.sleeper_for` on that observability's clock.
    """

    def __init__(self, network,
                 policy: Optional[RetryPolicy] = None,
                 failure_threshold: int = 5,
                 recovery_time: float = 30.0,
                 observability=None):
        self.network = network
        self.policy = policy or RetryPolicy()
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.observability = observability
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Guards lazy breaker creation and state publication: two
        #: fan-out threads first-contacting one host must end up sharing
        #: a single breaker, not racing two into the map.
        self._lock = threading.Lock()
        #: Last breaker state published per host; transitions between two
        #: published states become ``breaker_transition`` wide events, so
        #: the chaos campaign can assert the closed -> open -> half-open
        #: sequence instead of sampling the state gauge.
        self._published_states: Dict[str, str] = {}

    # -- wiring ------------------------------------------------------------------

    def attach_observability(self, observability) -> None:
        """Adopt *observability* (and its clock) for metrics and waits."""
        self.observability = observability
        for breaker in self._breakers.values():
            breaker.clock = self._clock

    @property
    def _clock(self) -> Clock:
        if self.observability is not None:
            return self.observability.clock
        return system_clock

    def breaker(self, host: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding *host*."""
        with self._lock:
            breaker = self._breakers.get(host)
            if breaker is None:
                breaker = CircuitBreaker(self.failure_threshold,
                                         self.recovery_time,
                                         clock=self._clock)
                self._breakers[host] = breaker
                # A new breaker starts closed; seeding the published state
                # keeps the event stream free of a noise "None -> closed"
                # transition on first contact.
                self._published_states.setdefault(host, BreakerState.CLOSED)
            return breaker

    def breaker_states(self) -> Dict[str, str]:
        """Current state of every breaker, keyed by host."""
        return {host: breaker.state
                for host, breaker in sorted(self._breakers.items())}

    # -- the send path -----------------------------------------------------------

    #: Feature flag callers probe with ``getattr`` before passing
    #: ``budget=``: plain networks (and test doubles) without it keep
    #: receiving the bare single-argument ``send``.
    supports_budget = True

    def send(self, request: Request, budget=None) -> Response:
        """Deliver *request*, retrying per policy behind the host breaker.

        Never raises on substrate failure: exhausted retries and open
        breakers return a synthesized 503 carrying
        :data:`TRANSPORT_ERROR_HEADER` so the caller can degrade.

        *budget* (a :class:`~repro.core.admission.DeadlineBudget`) caps
        the retry ladder: the first attempt always runs -- a deadline
        must shorten retries, never block the forward -- but a backoff
        delay that no longer fits the remaining budget gives up
        immediately with reason ``"deadline-exceeded"`` instead of
        sleeping past the deadline.
        """
        host = request.host
        breaker = self.breaker(host)
        if not breaker.allow():
            self._count_failure(host, "circuit-open", attempts=0)
            response = self._failure_response(
                request, "circuit-open", attempts=0, last_status=None)
            self._publish_state(host, breaker)
            return response
        # ``allow`` may have just admitted the half-open trial: publish
        # immediately so the open -> half-open transition is observable
        # as an event, not only inferable from the trial's outcome.
        self._publish_state(host, breaker)

        attempts = 0
        while True:
            attempts += 1
            response = self.network.send(request)
            if not self.policy.retryable(response):
                breaker.record_success()
                self._publish_state(host, breaker)
                return response
            if attempts >= self.policy.max_attempts:
                breaker.record_failure()
                self._count_failure(host, "retries-exhausted",
                                    attempts=attempts)
                self._publish_state(host, breaker)
                return self._failure_response(
                    request, "retries-exhausted", attempts,
                    last_status=response.status_code)
            delay = self.policy.delay(attempts, key=host)
            if budget is not None and not budget.allows(delay):
                breaker.record_failure()
                self._count_failure(host, "deadline-exceeded",
                                    attempts=attempts)
                self._publish_state(host, breaker)
                return self._failure_response(
                    request, "deadline-exceeded", attempts,
                    last_status=response.status_code)
            self._count_retry(host, attempt=attempts, delay=delay)
            self._sleep(delay)

    # -- bookkeeping -------------------------------------------------------------

    def _sleep(self, seconds: float) -> None:
        if seconds > 0:
            sleeper_for(self._clock)(seconds)

    def _events(self):
        """The shared wide-event log, or ``None`` outside an obs bundle."""
        return getattr(self.observability, "events", None)

    def _count_retry(self, host: str, attempt: int = 0,
                     delay: float = 0.0) -> None:
        if self.observability is not None:
            self.observability.metrics.counter(
                "monitor_retries_total",
                "Transport retries after a retryable response",
                host=host).inc()
        events = self._events()
        if events is not None:
            events.emit("transport_retry", host=host, attempt=attempt,
                        delay=delay)

    def _count_failure(self, host: str, reason: str,
                       attempts: int = 0) -> None:
        if self.observability is not None:
            self.observability.metrics.counter(
                "monitor_transport_failures_total",
                "Requests the resilient transport gave up on",
                host=host, reason=reason).inc()
        events = self._events()
        if events is not None:
            events.emit("transport_give_up", host=host, reason=reason,
                        attempts=attempts)

    def _publish_state(self, host: str, breaker: CircuitBreaker) -> None:
        if self.observability is None:
            return
        state = breaker.state
        self.observability.metrics.gauge(
            "monitor_breaker_state",
            "Circuit state per host: 0 closed, 1 half-open, 2 open",
            host=host).set(BreakerState.GAUGE[state])
        with self._lock:
            previous = self._published_states.get(host, BreakerState.CLOSED)
            changed = state != previous
            if changed:
                self._published_states[host] = state
        if changed:
            events = self._events()
            if events is not None:
                events.emit("breaker_transition", host=host,
                            from_state=previous, to_state=state,
                            failures=breaker.failures)

    @staticmethod
    def _failure_response(request: Request, reason: str, attempts: int,
                          last_status: Optional[int]) -> Response:
        body = json.dumps({
            "transport_error": reason,
            "host": request.host,
            "attempts": attempts,
            "last_status": last_status,
        }).encode()
        return Response(503, body, headers={
            "Content-Type": "application/json",
            TRANSPORT_ERROR_HEADER: reason,
        })

    def __repr__(self) -> str:
        return (f"<ResilientTransport {self.policy!r} "
                f"breakers={len(self._breakers)}>")
