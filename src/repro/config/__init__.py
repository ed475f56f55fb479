"""Declarative monitor configuration: one document, one deployment.

A deployment is data: a schema-versioned :class:`MonitorConfig`
(``config_version: 1``, YAML or JSON) describing the cloud, scenario,
monitor options, resilience policy, fleet shape, SLO catalog, alarm
rules, and notification sinks.  :func:`build_from_config` is the one
way to stand it up -- clock first, then cloud, then monitor, so the
recorded digests hold -- and :func:`~repro.config.migrate.migrate`
lifts pre-versioning flat documents forward, losslessly by digest.

>>> cfg = loads(open("monitor.yaml").read())   # doctest: +SKIP
>>> cloud, monitor = build_from_config(cfg)    # doctest: +SKIP
"""

from .builder import (
    admission_options,
    build_alarm_rules,
    build_clock,
    build_fleet_from_config,
    build_from_config,
    build_selector,
    build_sinks,
    build_slos,
    build_windows,
    deadline_options,
    degradation_options,
    monitor_options,
    resilience_options,
    sampling_options,
)
from .migrate import migrate, needs_migration
from .schema import (
    CONFIG_VERSION,
    AdmissionSection,
    AlarmSpec,
    CloudSection,
    DeadlineSection,
    DegradationSection,
    FleetSection,
    MonitorConfig,
    MonitorSection,
    ObservabilitySection,
    ResilienceSection,
    SamplingSection,
    ScenarioSection,
    SinkSpec,
    SLOSpec,
    WindowSpec,
    config_digest,
    dump,
    dumps,
    load,
    loads,
    parse_text,
)

__all__ = [
    "AdmissionSection",
    "AlarmSpec",
    "CONFIG_VERSION",
    "CloudSection",
    "DeadlineSection",
    "DegradationSection",
    "FleetSection",
    "MonitorConfig",
    "MonitorSection",
    "ObservabilitySection",
    "ResilienceSection",
    "SamplingSection",
    "ScenarioSection",
    "SinkSpec",
    "SLOSpec",
    "WindowSpec",
    "build_alarm_rules",
    "build_clock",
    "build_fleet_from_config",
    "build_from_config",
    "build_selector",
    "build_sinks",
    "build_slos",
    "admission_options",
    "build_windows",
    "config_digest",
    "deadline_options",
    "degradation_options",
    "dump",
    "dumps",
    "load",
    "loads",
    "migrate",
    "monitor_options",
    "needs_migration",
    "parse_text",
    "resilience_options",
    "sampling_options",
]
