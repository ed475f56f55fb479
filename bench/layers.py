"""Per-layer attribution for the traced run, recorded from outside the program.

The traced run replaces the public methods each layer exposes with
wrappers (``setattr`` on the live instances, nothing in ``src/`` knows).
Each wrapper pushes a span on a thread-local stack; a span's *self* time
is its duration minus the durations of the spans it caused.  Totals are
kept per ``(layer, parent layer)`` in per-thread tables, merged once at
the end, so the hot path takes no lock.  Raw spans of the first
:data:`RAW_REQUESTS` requests are kept too, for reading one request's
timeline.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: Parent recorded for spans that no other span caused (the client send).
ROOT = "bench"
#: Requests whose raw spans are kept.
RAW_REQUESTS = 200

#: What is timed on every monitor (each fleet shard is one), as
#: (layer, attribute path from the monitor, method names).
MONITOR_METHODS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("core.monitor", "app", ("handle",)),
    ("core.provider", "provider", ("context",)),
    ("obs.metrics", "obs.metrics", ("counter", "gauge", "histogram",
                                    "total")),
    ("obs.tracing", "obs.tracer", ("begin", "finish")),
    ("obs.events", "obs.events", ("emit",)),
    ("obs.slo", "slos", ("snapshot",)),
    ("alerting", "alarms", ("evaluate",)),
)
CONTRACT_METHODS = ("check_pre", "applicable_cases", "snapshot",
                    "check_post")


class _ThreadState:
    __slots__ = ("stack", "totals", "request", "raw")

    def __init__(self) -> None:
        #: Open spans, innermost last: [layer, seconds spent in children].
        self.stack: List[List[Any]] = []
        #: (layer, parent layer) -> [self seconds, calls].
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: Id of the request this thread is sending (-1 outside one).
        self.request = -1
        #: (request, layer, parent layer, start, end) of early requests.
        self.raw: List[Tuple[int, str, str, float, float]] = []


class LayerTracer:
    """Collects span totals from wrapped methods across client threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._request_ids = itertools.count()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def begin_request(self) -> None:
        """Mark the calling thread as starting its next request."""
        self._state().request = next(self._request_ids)

    def wrap(self, layer: str, method: Callable) -> Callable:
        """*method* timed as a span of *layer*."""
        local = self._local
        clock = time.perf_counter
        new_state = self._state

        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_layer = parent[0] if parent is not None else ROOT
                if parent is not None:
                    parent[1] += duration
                key = (layer, parent_layer)
                entry = state.totals.get(key)
                if entry is None:
                    entry = state.totals[key] = [0.0, 0]
                entry[0] += duration - frame[1]
                entry[1] += 1
                if 0 <= state.request < RAW_REQUESTS:
                    state.raw.append((state.request, layer, parent_layer,
                                      start, end))

        return traced

    def install(self, target: Any, names, layer: str) -> None:
        """Replace each method in *names* on *target* by its traced form."""
        for name in names:
            setattr(target, name, self.wrap(layer, getattr(target, name)))

    def instrument(self, deployment) -> None:
        """Wrap every layer boundary of *deployment* (see the module doc)."""
        cloud = deployment.cloud
        self.install(deployment.network, ("send",), "httpsim")
        for app in (cloud.cinder.app, cloud.keystone.app):
            self.install(app, ("handle",), "cloud")
        for host, hook in deployment.latency_hooks.items():
            deployment.network.inject_fault(host, self.wrap("cloud.io", hook))
        if deployment.fleet is not None:
            self.install(deployment.fleet, ("handle",), "core.fleet")
        wrapped = set()
        for monitor in deployment.monitors:
            for layer, path, names in MONITOR_METHODS:
                target = monitor
                for part in path.split("."):
                    target = getattr(target, part)
                if id(target) in wrapped:
                    continue
                wrapped.add(id(target))
                self.install(target, names, layer)
            for contract in monitor.contracts.values():
                if id(contract) not in wrapped:
                    wrapped.add(id(contract))
                    self.install(contract, CONTRACT_METHODS, "ocl")

    # -- results -----------------------------------------------------------

    def totals(self) -> Dict[Tuple[str, str], Tuple[float, int]]:
        """Merged (layer, parent) -> (self seconds, calls) of all threads."""
        merged: Dict[Tuple[str, str], List[float]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, (seconds, calls) in state.totals.items():
                entry = merged.setdefault(key, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
        return {key: (value[0], int(value[1]))
                for key, value in merged.items()}

    def raw_spans(self) -> List[Dict[str, Any]]:
        """Spans of the first requests, ordered by request then start."""
        with self._states_lock:
            spans = [span for state in self._states for span in state.raw]
        spans.sort(key=lambda span: (span[0], span[3]))
        origin = spans[0][3] if spans else 0.0
        return [{"request": request, "layer": layer, "parent": parent,
                 "start_us": round((start - origin) * 1e6, 3),
                 "duration_us": round((end - start) * 1e6, 3)}
                for request, layer, parent, start, end in spans]


def layer_report(totals: Dict[Tuple[str, str], Tuple[float, int]],
                 requests: int) -> Dict[str, Dict[str, Any]]:
    """Per-request self time and calls of each layer, with its parents."""
    report: Dict[str, Dict[str, Any]] = {}
    for (layer, parent), (seconds, calls) in sorted(totals.items()):
        entry = report.setdefault(layer, {"self_us": 0.0, "calls": 0.0,
                                          "by_parent": {}})
        entry["self_us"] += seconds * 1e6 / requests
        entry["calls"] += calls / requests
        entry["by_parent"][parent] = {
            "self_us": seconds * 1e6 / requests,
            "calls": calls / requests}
    return report
