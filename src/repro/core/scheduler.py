"""Concurrent probe fan-out: independent root probes issued in parallel.

One probe phase of the Figure-2 workflow binds several *independent* OCL
roots (``project``, ``quota_sets``, ``volume``, ``user``); the serial
provider pays their latencies in sequence even though no probe reads
another's answer.  The :class:`ProbeScheduler` issues the phase's probes
concurrently over a bounded thread pool and hands the outcomes back **in
submission order**, so the bindings dict, the unbound-root set, the
verdict stream, and every derived artifact stay byte-identical to the
serial path -- concurrency changes the wall-clock, never the answer.

Two pieces:

* :class:`SingleFlight` -- the concurrent replacement for the provider's
  per-phase dict cache: when two roots race to probe the same URL the
  first becomes the *leader* and actually sends; the others wait and
  share the leader's response.  A failed flight propagates its
  :class:`~repro.core.resilience.ProbeFailure` to everyone waiting on it
  but is **not** cached, matching the serial cache which only ever
  stores successes.
* :class:`ProbeScheduler` -- a lazily created
  :class:`~concurrent.futures.ThreadPoolExecutor` of *width* workers.
  Worker threads inherit the submitting request's wide-event correlation
  (the event log's trace id is thread-local), so a retry emitted from a
  pool thread still lands on the request that caused it.

Overlap is adaptive: the scheduler remembers how long the provider's
last :data:`WINDOW` probe sends took, and a phase overlaps only when
every one of them took at least :data:`OVERLAP_AFTER`.  Fast (in-process
or cached) probes keep the serial loop and its plain dict cache, so
overlap costs nothing where it could not pay.  ``width <= 1`` never
overlaps and times nothing -- the scheduler is always safe to construct,
and the fan-out/serial parity gate (``scripts/gates.py --only fanout``)
holds by construction.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from .resilience import ProbeFailure

#: How many of the provider's most recent probe sends the overlap rule
#: looks back over.
WINDOW = 8

#: Seconds each of the last :data:`WINDOW` probe sends must have taken
#: before a phase overlaps.  The rule takes the window's *minimum*: on a
#: zero-latency two-shard fleet with two client threads, GIL handoffs
#: inflate single in-process probes to 3-25 ms, so a median-of-8 at
#: 0.5 ms still fired on about 11% of one shard's windows, while the
#: largest min-of-8 stayed at 107-663 us over runs of 6,000-10,100
#: requests.  Behind a 2 ms substrate every probe took at least 2.1 ms,
#: so 1 ms separates the two regimes with room on both sides.
OVERLAP_AFTER = 0.001


class ProbeOutcome:
    """The result of one scheduled probe task: a value or a ProbeFailure."""

    __slots__ = ("value", "error")

    def __init__(self, value: Any = None,
                 error: Optional[ProbeFailure] = None):
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        """True when the probe bound its root."""
        return self.error is None

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"failed: {self.error}"
        return f"<ProbeOutcome {state}>"


class _Flight:
    """One in-progress (or completed) computation shared by its waiters."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Per-phase probe cache that is safe under concurrent callers.

    :meth:`do` collapses concurrent calls with the same *key* into one
    execution: the first caller (the leader) runs *supplier*; everyone
    else blocks until the leader finishes and shares its return value.
    Completed successful flights stay cached for the lifetime of this
    instance -- one instance lives exactly as long as one probe phase,
    like the dict cache it replaces.

    Failure semantics mirror the serial cache: an exception propagates
    to the leader *and* to every caller already waiting on the flight,
    but the flight is evicted, so a later call with the same key retries
    instead of replaying a stale failure.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, _Flight] = {}
        #: Calls answered by somebody else's flight (hits, roughly).
        self.shared_count = 0

    def do(self, key: Hashable, supplier: Callable[[], Any]) -> Any:
        """Return ``supplier()`` for *key*, computing it at most once."""
        with self._lock:
            flight = self._flights.get(key)
            leading = flight is None
            if leading:
                flight = _Flight()
                self._flights[key] = flight
            else:
                self.shared_count += 1
        if not leading:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value
        try:
            flight.value = supplier()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                if self._flights.get(key) is flight:
                    del self._flights[key]
            flight.done.set()
            raise
        flight.done.set()
        return flight.value

    def __len__(self) -> int:
        return len(self._flights)

    def __repr__(self) -> str:
        return (f"<SingleFlight flights={len(self._flights)} "
                f"shared={self.shared_count}>")


class ProbeScheduler:
    """A bounded worker pool issuing one phase's root probes concurrently.

    *width* bounds concurrency: the monitor passes its ``fanout``.  The
    pool is created on the first overlapped phase, and
    :class:`~concurrent.futures.ThreadPoolExecutor` starts a thread only
    when no idle one can take a task, so with one caller at a time a
    monitor holds at most its widest overlapped phase minus one threads
    (the calling thread runs the first task itself).  *events* is the
    shared :class:`~repro.obs.events.EventLog`: its current trace id is
    thread-local, so :meth:`map` captures the submitting thread's id and
    re-establishes it inside each worker -- transport events raised from
    pool threads keep pointing at the request that caused them.

    :meth:`should_overlap` is the adaptive rule the provider asks once
    per phase; :meth:`record` feeds it.  :meth:`close` (also a
    context-manager exit) tears the pool down.  Tasks may raise
    :class:`~repro.core.resilience.ProbeFailure`; that is a normal
    outcome (the root stays unbound), every other exception propagates.
    """

    def __init__(self, width: int = 1, events=None,
                 thread_name_prefix: str = "probe"):
        self.width = max(1, int(width))
        self._events = events
        self._prefix = thread_name_prefix
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        #: Tasks actually dispatched to pool threads (serial runs and the
        #: inline first task do not count; this is the "did fan-out
        #: engage" probe for tests).
        self.dispatched_count = 0
        #: Wall-clock seconds of the last WINDOW probe sends, a ring
        #: written at ``_next``; zeros until full, so a young ring never
        #: overlaps.
        self._recent = [0.0] * WINDOW
        self._next = 0

    @property
    def concurrent(self) -> bool:
        """True when this scheduler can actually overlap probes."""
        return self.width > 1

    def record(self, seconds: float) -> None:
        """Remember that one probe send took *seconds* of wall time.

        Writers must not race each other: the provider calls this under
        the lock it already takes for every send's ``probe_count``.
        """
        self._recent[self._next] = seconds
        self._next = (self._next + 1) % WINDOW

    def should_overlap(self) -> bool:
        """True when the next probe phase should run on the pool.

        That is when each of the last :data:`WINDOW` probe sends took at
        least :data:`OVERLAP_AFTER`.  Ask once per phase, before choosing
        the phase cache.
        """
        return self.concurrent and min(self._recent) >= OVERLAP_AFTER

    def map(self, tasks: Sequence[Callable[[], Any]],
            budget=None) -> List[ProbeOutcome]:
        """Run *tasks*, returning outcomes **in submission order**.

        Serial (width 1, or fewer than two tasks) runs on the calling
        thread; otherwise tasks 1..n-1 go to the pool, the calling
        thread runs task 0 itself, and the results are collected in
        order -- the merge order is the submission order regardless of
        completion order, which is what keeps fan-out byte-identical to
        the serial path.

        *budget* (a :class:`~repro.core.admission.DeadlineBudget`)
        bounds the phase: once the budget is exhausted, tasks not yet
        started are abandoned -- each yields a failed outcome (root
        stays unbound) instead of issuing its probe.  Serial runs check
        before every task; concurrent runs check once at submission
        (already-submitted probes run to completion, their transport
        caps the tail via the same budget).
        """
        tasks = list(tasks)
        if not self.concurrent or len(tasks) <= 1:
            outcomes = []
            for task in tasks:
                if budget is not None and budget.exhausted():
                    outcomes.append(self._abandoned())
                else:
                    outcomes.append(self._run(task))
            return outcomes
        if budget is not None and budget.exhausted():
            return [self._abandoned() for _ in tasks]
        pool = self._ensure_pool()
        trace_id = (self._events.current_trace_id
                    if self._events is not None else None)
        with self._lock:
            self.dispatched_count += len(tasks) - 1
        futures = [pool.submit(self._run_correlated, task, trace_id)
                   for task in tasks[1:]]
        first = self._run(tasks[0])
        return [first] + [future.result() for future in futures]

    @staticmethod
    def _abandoned() -> ProbeOutcome:
        return ProbeOutcome(error=ProbeFailure(
            "probe abandoned: deadline exceeded"))

    def _run_correlated(self, task: Callable[[], Any],
                        trace_id: Optional[str]) -> ProbeOutcome:
        if self._events is not None:
            with self._events.correlate(trace_id):
                return self._run(task)
        return self._run(task)

    @staticmethod
    def _run(task: Callable[[], Any]) -> ProbeOutcome:
        try:
            return ProbeOutcome(value=task())
        except ProbeFailure as exc:
            return ProbeOutcome(error=exc)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.width,
                    thread_name_prefix=self._prefix)
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent; a closed scheduler can lazily
        re-create its pool if mapped again)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProbeScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "pooled" if self._pool is not None else "idle"
        return (f"<ProbeScheduler width={self.width} {state} "
                f"dispatched={self.dispatched_count}>")
