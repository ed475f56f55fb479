"""Persisting and reloading the monitor's verdict log.

Section III-B: "the invocation results can be logged for further fault
localization."  The writer emits one JSON object per line (JSONL) so logs
from long validation sessions stream and append cleanly; the reader
reconstructs :class:`~repro.core.monitor.MonitorVerdict` records that the
fault localizer (:mod:`repro.validation.localization`) accepts directly.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Union

from ..errors import MonitorError
from .verdicts import MonitorVerdict
from .verdict_schema import verdict_from_record, verdict_record


def verdict_to_json(verdict: MonitorVerdict) -> str:
    """One JSONL line for *verdict*, in the versioned wire schema.

    ``ensure_ascii`` stays on so non-ASCII reason strings survive any
    transport encoding; the ``correlation_id`` joins the line with the
    tracer's span records for the same request.  The row shape is the
    canonical :func:`~repro.core.verdict_schema.verdict_record` -- the
    same record an invalid response embeds.
    """
    return json.dumps(verdict_record(verdict), sort_keys=True)


def verdict_from_json(line: str) -> MonitorVerdict:
    """Parse one JSONL line back into a verdict record.

    Accepts version-1 rows (written before the schema was versioned) as
    well as current ones; see :mod:`repro.core.verdict_schema`.
    """
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise MonitorError(f"malformed audit-log line: {exc}") from exc
    if not isinstance(record, dict):
        raise MonitorError(
            f"malformed audit-log line: expected an object, "
            f"got {type(record).__name__}")
    return verdict_from_record(record)


def write_log(verdicts: Iterable[MonitorVerdict],
              destination: Union[str, IO[str]]) -> int:
    """Write *verdicts* as JSONL to a path or open text file.

    Returns the number of records written.  Writing to a path truncates;
    pass a file object opened in append mode to accumulate sessions.
    """
    count = 0
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_log(verdicts, handle)
    for verdict in verdicts:
        destination.write(verdict_to_json(verdict) + "\n")
        count += 1
    return count


def correlate_events(verdicts: Iterable[MonitorVerdict],
                     event_log) -> List[tuple]:
    """Join verdicts with their wide events via the correlation id.

    For each verdict, the matching ``monitor_request`` event from
    *event_log* (a :class:`~repro.obs.events.EventLog`), or ``None`` when
    the event ring has already evicted it.  The pair is the complete
    diagnostic record: the audit row says *what* the monitor decided, the
    wide event says *why* (probe plan, stage timings, transport deltas).
    """
    by_trace = {record.trace_id: record
                for record in event_log.filter(event="monitor_request")}
    return [(verdict, by_trace.get(verdict.correlation_id))
            for verdict in verdicts]


def read_log(source: Union[str, IO[str]]) -> List[MonitorVerdict]:
    """Read a JSONL audit log from a path or open text file."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_log(handle)
    verdicts = []
    for line in source:
        line = line.strip()
        if line:
            verdicts.append(verdict_from_json(line))
    return verdicts
