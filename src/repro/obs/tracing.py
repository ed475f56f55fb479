"""Per-request traces: one span per stage of the Figure-2 workflow.

A :class:`Trace` is the timing record of one monitored request; its spans
are named after the pipeline stages (``pre_probe``, ``pre_eval``,
``snapshot``, ``forward``, ``post_probe``, ``post_eval``).  Trace ids are
sequential (``t-000001``, ...) rather than random so runs are reproducible
and the id doubles as the audit-log correlation id: given a verdict line,
``t-000042`` points at the exact trace (and vice versa).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .clock import Clock, system_clock


class TraceIdAllocator:
    """A thread-safe source of sequential ``t-NNNNNN`` trace ids.

    Each :class:`Tracer` owns a private allocator by default; a monitor
    *fleet* hands the same allocator to every shard's tracer so the
    merged verdict stream carries one gap-free id sequence -- serially
    dispatched fleet traffic then produces exactly the ids the
    single-monitor run would, which is what keeps the fleet parity gate
    byte-identical.
    """

    def __init__(self, prefix: str = "t-"):
        self.prefix = prefix
        self._next = 0
        self._lock = threading.Lock()

    def next_id(self) -> str:
        """Allocate the next sequential id."""
        with self._lock:
            self._next += 1
            return f"{self.prefix}{self._next:06d}"

    @property
    def allocated(self) -> int:
        """How many ids have been handed out."""
        return self._next

    def __repr__(self) -> str:
        return f"<TraceIdAllocator {self.prefix} allocated={self._next}>"


class Span:
    """One timed stage inside a trace."""

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        #: "ok", or "error" when the stage raised.
        self.status = "ok"
        self.tags: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        record: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if self.tags:
            record["tags"] = dict(self.tags)
        return record

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.duration:.6f}s {self.status}>"


class _SpanContext:
    """Context manager closing a span on exit, flagging exceptions."""

    def __init__(self, trace: "Trace", span: Span):
        self._trace = trace
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.status = "error"
            self.span.tags.setdefault("error", str(exc))
        self.span.end = self._trace._clock()


class Trace:
    """The spans and tags of one monitored request."""

    def __init__(self, trace_id: str, name: str, clock: Clock):
        self.trace_id = trace_id
        self.name = name
        self._clock = clock
        self.start = clock()
        self.end: Optional[float] = None
        self.spans: List[Span] = []
        self.tags: Dict[str, Any] = {}

    def span(self, name: str) -> _SpanContext:
        """Open a stage span; use as ``with trace.span("forward"):``."""
        span = Span(name, self._clock())
        self.spans.append(span)
        return _SpanContext(self, span)

    def set_tag(self, key: str, value: Any) -> None:
        """Attach a key/value annotation to the whole trace."""
        self.tags[key] = value

    def span_named(self, name: str) -> Optional[Span]:
        """The first span called *name*, or ``None``."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    @property
    def duration(self) -> float:
        """Elapsed seconds from trace start to finish (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: id, name, timing, tags, spans."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "tags": dict(self.tags),
            "spans": [span.to_dict() for span in self.spans],
        }

    def __repr__(self) -> str:
        return f"<Trace {self.trace_id} {self.name} spans={len(self.spans)}>"


class Tracer:
    """Creates traces and keeps a bounded ring of finished ones.

    *keep* bounds memory under heavy traffic: only the most recent *keep*
    finished traces are retained (the metrics registry keeps the
    aggregates forever, so nothing quantitative is lost).
    """

    def __init__(self, clock: Clock = None, keep: int = 256,
                 trace_ids: Optional[TraceIdAllocator] = None):
        self.clock: Clock = clock if clock is not None else system_clock
        self.finished: Deque[Trace] = deque(maxlen=keep)
        #: Id source; fleet shards share one so the merged stream stays
        #: a single gap-free sequence.
        self.trace_ids = (trace_ids if trace_ids is not None
                          else TraceIdAllocator())
        #: Total traces ever started *by this tracer* (not bounded by
        #: *keep*; under a shared allocator this is the per-shard count).
        self.started_count = 0
        #: id -> trace index over the finished ring, kept in sync with
        #: ring eviction so :meth:`find` is O(1) instead of a linear scan
        #: -- ``find`` sits on the ``/-/traces/<id>`` path and in every
        #: exemplar resolution, so it must not walk 256 traces per hit.
        self._by_id: Dict[str, Trace] = {}
        #: Guards started_count, the finished ring, and the id index:
        #: concurrent shard traffic finishing traces unlocked could evict
        #: a ring slot while another thread indexes it.
        self._lock = threading.Lock()

    def begin(self, name: str) -> Trace:
        """Start a new trace with the next sequential id."""
        with self._lock:
            self.started_count += 1
        return Trace(self.trace_ids.next_id(), name, self.clock)

    def finish(self, trace: Trace) -> Trace:
        """Close *trace* and retain it in the finished ring.

        Idempotent: a trace the ring already retains is not appended a
        second time (a duplicate slot would let one eviction delete an
        id the ring still holds).
        """
        if trace.end is None:
            trace.end = self.clock()
        with self._lock:
            if self._by_id.get(trace.trace_id) is trace:
                return trace
            maxlen = self.finished.maxlen
            if maxlen is not None and len(self.finished) == maxlen and maxlen:
                evicted = self.finished[0]
                if self._by_id.get(evicted.trace_id) is evicted:
                    del self._by_id[evicted.trace_id]
            self.finished.append(trace)
            self._by_id[trace.trace_id] = trace
        return trace

    def find(self, trace_id: str) -> Optional[Trace]:
        """The retained finished trace with *trace_id*, or ``None``."""
        return self._by_id.get(trace_id)

    def retained(self) -> List[Trace]:
        """The finished ring, oldest first, copied under the lock.

        Other threads may be finishing traces while this one reads.
        """
        with self._lock:
            return list(self.finished)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every retained finished trace, JSON-ready, oldest first."""
        return [trace.to_dict() for trace in self.retained()]

    def __repr__(self) -> str:
        return (f"<Tracer finished={len(self.finished)} "
                f"started={self.started_count}>")
