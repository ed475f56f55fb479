"""Structured wide events: one queryable record per interesting thing.

The metrics registry answers "how many / how fast", the tracer answers
"where did this request spend its time" -- but neither answers "*why* did
request t-000042 come back indeterminate" without re-running the
workload.  A *wide event* is the missing record: one flat, richly
attributed dict per monitored request (verdict, unbound roots, probe
plan, retry/breaker outcomes, per-stage durations) plus smaller events
for transport-level incidents (retries, give-ups, breaker transitions).

Design points, in the wide-event tradition:

* **flat and self-describing** -- every record carries ``seq``,
  ``event``, ``time``, ``trace_id``, and then as many fields as the
  emitter knows; consumers filter on fields, never on position;
* **bounded** -- the :class:`EventLog` is a ring, like the tracer's
  finished deque: heavy traffic cannot grow memory, and the aggregates
  the ring cannot retain live in the metrics registry anyway;
* **correlated** -- the log keeps a *current trace id*; events emitted
  from layers that do not know the request (the resilient transport,
  the network) inherit it automatically, so a breaker transition is
  attributable to the exact request that tripped it;
* **deterministic** -- timestamps come from the injected clock and
  sequence numbers are monotone, so ``cloudmon events --json`` under a
  ManualClock is byte-stable across runs.

The JSONL export (:meth:`EventLog.to_jsonl` / :meth:`EventLog.write_jsonl`)
is the audit-adjacent artifact: the audit log keeps verdicts, the event
log keeps why.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import IO, Any, Deque, Dict, Iterator, List, Optional, Union

from ..errors import EventError
from .clock import Clock, system_clock

#: Keys the log stamps itself; emitters may not pass them as fields.
RESERVED_KEYS = frozenset({"seq", "event", "time", "trace_id"})


class WideEvent:
    """One structured event: envelope (seq/event/time/trace_id) + fields."""

    def __init__(self, seq: int, event: str, time: float,
                 trace_id: Optional[str] = None,
                 fields: Optional[Dict[str, Any]] = None):
        self.seq = seq
        self.event = event
        self.time = time
        self.trace_id = trace_id
        self.fields: Dict[str, Any] = dict(fields or {})

    def get(self, key: str, default: Any = None) -> Any:
        """Field access covering both the envelope and the payload."""
        if key in RESERVED_KEYS:
            return getattr(self, key)
        return self.fields.get(key, default)

    def matches(self, **criteria: Any) -> bool:
        """True when every criterion equals the corresponding field."""
        return all(self.get(key) == value
                   for key, value in criteria.items())

    def to_dict(self) -> Dict[str, Any]:
        """The flat JSON-ready record (envelope keys first)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "event": self.event,
            "time": self.time,
            "trace_id": self.trace_id,
        }
        record.update(self.fields)
        return record

    def __repr__(self) -> str:
        return (f"<WideEvent #{self.seq} {self.event} "
                f"trace={self.trace_id}>")


class EventLog:
    """A bounded ring of :class:`WideEvent` records with filtered reads.

    *keep* bounds memory exactly like the tracer's finished ring; the
    :attr:`emitted_count` keeps the true total so consumers can tell
    "quiet system" apart from "ring wrapped".
    """

    def __init__(self, clock: Clock = None, keep: int = 1024):
        self.clock: Clock = clock if clock is not None else system_clock
        self.events: Deque[WideEvent] = deque(maxlen=keep)
        #: Total events ever emitted (not bounded by *keep*).
        self.emitted_count = 0
        #: Guards the seq counter and ring eviction: concurrent shard
        #: traffic emitting unlocked would mint duplicate seq numbers.
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def current_trace_id(self) -> Optional[str]:
        """Trace id stamped onto events whose emitter does not pass one.

        The monitor scopes this (via :meth:`correlate`) for the duration
        of each request so transport-level events correlate for free.
        Thread-local: concurrent requests in a sharded/fan-out deployment
        each carry their own correlation; the probe scheduler propagates
        the submitting request's id into its worker threads.
        """
        return getattr(self._local, "trace_id", None)

    @current_trace_id.setter
    def current_trace_id(self, value: Optional[str]) -> None:
        self._local.trace_id = value

    # -- writing -----------------------------------------------------------

    def emit(self, event: str, trace_id: Optional[str] = None,
             **fields: Any) -> WideEvent:
        """Record one event; returns it (mostly for tests).

        *trace_id* defaults to :attr:`current_trace_id`.  Field names
        clashing with the envelope (:data:`RESERVED_KEYS`) are rejected:
        silently shadowing ``seq`` or ``time`` would corrupt every
        downstream query.
        """
        if not event:
            raise EventError("an event needs a non-empty type name")
        clash = RESERVED_KEYS & set(fields)
        if clash:
            raise EventError(
                f"fields {sorted(clash)} clash with the event envelope")
        resolved = (trace_id if trace_id is not None
                    else self.current_trace_id)
        with self._lock:
            self.emitted_count += 1
            record = WideEvent(
                self.emitted_count, event, self.clock(), resolved, fields)
            self.events.append(record)
        return record

    def correlate(self, trace_id: Optional[str]) -> "_Correlation":
        """Context manager scoping :attr:`current_trace_id` to a block."""
        return _Correlation(self, trace_id)

    # -- reading -----------------------------------------------------------

    def filter(self, event: Optional[str] = None,
               trace_id: Optional[str] = None,
               limit: Optional[int] = None,
               **fields: Any) -> List[WideEvent]:
        """Retained events matching every given criterion, oldest first.

        *limit* keeps only the most recent matches (still oldest-first),
        which is what a "show me the last N" CLI wants; a limit above
        the match count keeps every match, a negative one is an error.
        """
        if limit is not None and limit < 0:
            raise EventError(f"limit must be non-negative, got {limit}")
        criteria = dict(fields)
        if event is not None:
            criteria["event"] = event
        if trace_id is not None:
            criteria["trace_id"] = trace_id
        matched = [record for record in self.retained()
                   if record.matches(**criteria)]
        if limit is not None:
            matched = matched[-limit:] if limit else []
        return matched

    def retained(self) -> List[WideEvent]:
        """The retained events, oldest first, copied under the lock.

        Emitters on other threads append concurrently; iterating the
        live ring would raise ``deque mutated during iteration``.
        """
        with self._lock:
            return list(self.events)

    def to_dicts(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Matching events as JSON-ready dicts, oldest first."""
        return [record.to_dict() for record in self.filter(**criteria)]

    def to_jsonl(self, **criteria: Any) -> str:
        """Matching events as canonical JSONL (sorted keys, one per line)."""
        return "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in self.to_dicts(**criteria))

    def write_jsonl(self, destination: Union[str, IO[str]],
                    **criteria: Any) -> int:
        """Write matching events as JSONL to a path or open text file.

        Returns the number of records written.  Writing to a path
        truncates, mirroring :func:`repro.core.auditlog.write_log`.
        """
        records = self.to_dicts(**criteria)
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            for record in records:
                destination.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[WideEvent]:
        return iter(self.retained())

    def __repr__(self) -> str:
        return (f"<EventLog retained={len(self.events)} "
                f"emitted={self.emitted_count}>")


class _Correlation:
    """Restores the log's previous trace id when the block exits."""

    def __init__(self, log: EventLog, trace_id: Optional[str]):
        self._log = log
        self._trace_id = trace_id
        self._previous: Optional[str] = None

    def __enter__(self) -> EventLog:
        self._previous = self._log.current_trace_id
        self._log.current_trace_id = self._trace_id
        return self._log

    def __exit__(self, exc_type, exc, tb) -> None:
        self._log.current_trace_id = self._previous
