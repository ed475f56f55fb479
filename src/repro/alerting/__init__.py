"""Alarms over the SLO burn-rate engine: rules, state machines, sinks.

The SLO engine (:mod:`repro.obs.slo`) answers "how fast is each
objective eating its error budget?"; this package decides **when a
verdict stream constitutes an incident** and proves how that decision
was configured:

* :mod:`repro.alerting.rules` -- :class:`AlarmRule`: a declarative rule
  (which SLO, how many breaching burn windows mean WARN / CRITICAL, how
  much hysteresis before standing down) evaluated as a deterministic
  OK/WARN/CRITICAL state machine;
* :mod:`repro.alerting.engine` -- :class:`AlarmEngine`: evaluates every
  rule against the engine's multi-window burn rates after each
  monitored request, tracks per-alarm state, and dispatches structured
  ``alarm_transition`` notifications;
* :mod:`repro.alerting.notifications` -- notification sinks: the
  wide-event log (default, making every transition a queryable
  :class:`~repro.obs.events.WideEvent`), JSONL files, and an in-memory
  sink for tests.

Everything is driven by the injectable clock the SLO engine already
uses, so alarm transitions under a seeded workload are byte-stable --
the property the ``slo`` gate's ``alarms`` digest in
``scripts/gates.json`` pins.
Alarm rules are plain data and round-trip through
:class:`repro.config.MonitorConfig`.
"""

from .engine import AlarmEngine, AlarmState, AlarmTransition
from .notifications import (
    EventLogSink,
    JsonlSink,
    MemorySink,
    NotificationSink,
    build_sink,
)
from .rules import (
    CRITICAL,
    OK,
    SEVERITY_ORDER,
    WARN,
    AlarmRule,
    default_rules,
    rule_for_slo,
)

__all__ = [
    "AlarmEngine",
    "AlarmRule",
    "AlarmState",
    "AlarmTransition",
    "CRITICAL",
    "EventLogSink",
    "JsonlSink",
    "MemorySink",
    "NotificationSink",
    "OK",
    "SEVERITY_ORDER",
    "WARN",
    "build_sink",
    "default_rules",
    "rule_for_slo",
]
