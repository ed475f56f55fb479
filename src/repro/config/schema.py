"""The schema-versioned monitor configuration document.

One :class:`MonitorConfig` describes a complete monitoring deployment as
plain data -- the cloud to stand up, the scenario to monitor, the
monitor options (mode, planning, fan-out, probe cache), the resilience
policy, the fleet shape, the SLO catalog with its burn windows, the
alarm rules, and the notification sinks.  ``config_version: 1`` pins the
shape, and a document of any other version is refused.

The document is **canonical**: :meth:`MonitorConfig.to_dict` always
emits every section with every field, so ``from_dict(to_dict(cfg)) ==
cfg`` exactly and :func:`config_digest` is a stable fingerprint --
the losslessness property the ``config`` gate (``scripts/gates.py``) and
the hypothesis round-trip tests pin.  Parsing is **strict**: unknown
sections or fields raise :class:`~repro.errors.ConfigError` instead of
being silently dropped (a typoed ``enforcig:`` must not silently leave
the monitor in audit mode).

YAML support uses PyYAML when available; JSON always works.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError

try:  # pragma: no cover - exercised implicitly everywhere
    import yaml as _yaml
except ImportError:  # pragma: no cover - the image ships PyYAML
    _yaml = None

#: The schema version this module reads and writes.
CONFIG_VERSION = 1

#: Selector kinds a config SLO may use (see :mod:`repro.obs.slo`).
SELECTOR_KINDS = ("counter", "observations", "bucket", "linear")

#: Notification sink kinds (see :mod:`repro.alerting.notifications`).
SINK_KINDS = ("events", "jsonl", "memory")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _coerce_bool(value: Any, where: str) -> bool:
    _require(isinstance(value, bool), f"{where} must be a boolean, "
             f"got {value!r}")
    return value


def _coerce_int(value: Any, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where} must be an integer, got {value!r}")
    return int(value)


def _coerce_float(value: Any, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where} must be a number, got {value!r}")
    return float(value)


def _coerce_str(value: Any, where: str) -> str:
    _require(isinstance(value, str), f"{where} must be a string, "
             f"got {value!r}")
    return value


def _check_keys(data: Mapping[str, Any], allowed: Tuple[str, ...],
                where: str) -> None:
    _require(isinstance(data, Mapping),
             f"{where} must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    _require(not unknown,
             f"{where} has unknown keys {unknown}; allowed: {list(allowed)}")


def canonical_selector(spec: Any, where: str) -> Dict[str, Any]:
    """Validate and canonicalize one selector description.

    Tagged by ``kind``: ``counter`` / ``observations`` (a metric family,
    optionally label-filtered), ``bucket`` (histogram observations at or
    under ``le``), or ``linear`` (``terms`` of ``{coef, selector}``).
    """
    _require(isinstance(spec, Mapping),
             f"{where} must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    _require(kind in SELECTOR_KINDS,
             f"{where}.kind must be one of {list(SELECTOR_KINDS)}, "
             f"got {kind!r}")
    if kind == "linear":
        _check_keys(spec, ("kind", "terms"), where)
        terms = spec.get("terms")
        _require(isinstance(terms, (list, tuple)) and terms,
                 f"{where}.terms must be a non-empty list")
        canonical_terms: List[Dict[str, Any]] = []
        for index, term in enumerate(terms):
            term_where = f"{where}.terms[{index}]"
            _check_keys(term, ("coef", "selector"), term_where)
            canonical_terms.append({
                "coef": _coerce_float(term.get("coef", 1.0),
                                      f"{term_where}.coef"),
                "selector": canonical_selector(term.get("selector"),
                                               f"{term_where}.selector"),
            })
        return {"kind": "linear", "terms": canonical_terms}
    allowed: Tuple[str, ...] = ("kind", "name", "labels")
    if kind == "bucket":
        allowed = allowed + ("le",)
    _check_keys(spec, allowed, where)
    out: Dict[str, Any] = {
        "kind": kind,
        "name": _coerce_str(spec.get("name"), f"{where}.name"),
    }
    if kind == "bucket":
        out["le"] = _coerce_float(spec.get("le"), f"{where}.le")
    labels = spec.get("labels")
    if labels is not None:
        _require(isinstance(labels, Mapping),
                 f"{where}.labels must be a mapping")
        out["labels"] = {_coerce_str(k, f"{where}.labels key"):
                         _coerce_str(v, f"{where}.labels[{k}]")
                         for k, v in sorted(labels.items())}
    return out


def _section_from_dict(cls, data: Optional[Mapping[str, Any]], where: str):
    """Build a flat section dataclass from *data*, strictly."""
    if data is None:
        return cls()
    names = tuple(f.name for f in fields(cls))
    _check_keys(data, names, where)
    kwargs: Dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.type in ("bool",):
            kwargs[f.name] = _coerce_bool(value, f"{where}.{f.name}")
        elif f.type in ("int",):
            kwargs[f.name] = _coerce_int(value, f"{where}.{f.name}")
        elif f.type in ("float",):
            kwargs[f.name] = _coerce_float(value, f"{where}.{f.name}")
        else:
            kwargs[f.name] = _coerce_str(value, f"{where}.{f.name}")
    return cls(**kwargs)


def _section_to_dict(section) -> Dict[str, Any]:
    return {f.name: getattr(section, f.name) for f in fields(section)}


@dataclass(frozen=True)
class CloudSection:
    """The simulated private cloud to stand up (paper Section VI-D)."""

    volume_quota: int = 5
    release2: bool = False


@dataclass(frozen=True)
class ScenarioSection:
    """Which registered scenario to monitor, and where to mount it."""

    name: str = "cinder"
    project_id: str = "myProject"
    #: Host name the monitor (or fleet) registers under on the network.
    register_as: str = "cmonitor"


@dataclass(frozen=True)
class MonitorSection:
    """Per-shard monitor options; mirrors
    :class:`~repro.core.options.MonitorOptions` defaults exactly."""

    enforcing: bool = True
    probe_planning: bool = True
    fanout: int = 4
    probe_cache: bool = False


@dataclass(frozen=True)
class SamplingSection:
    """Head/tail trace sampling and obs-overhead self-accounting;
    mirrors :class:`~repro.obs.sampling.SamplingOptions`.  ``enabled:
    false`` (the default) retains every trace and keeps the monitored
    path byte-identical to the pre-sampling monitor."""

    enabled: bool = False
    rate: float = 0.1
    seed: int = 0
    slow_threshold: float = 0.0
    overhead: bool = True


@dataclass(frozen=True)
class ObservabilitySection:
    """Clock injection: ``system`` wall time or a deterministic
    ``manual`` clock (every read advances it by ``tick``), plus the
    nested head/tail ``sampling`` policy."""

    clock: str = "system"
    start: float = 0.0
    tick: float = 0.0
    sampling: SamplingSection = field(default_factory=SamplingSection)


def _observability_from_dict(data: Optional[Mapping[str, Any]],
                             where: str) -> ObservabilitySection:
    """The one nested section needs its own strict parser."""
    if data is None:
        return ObservabilitySection()
    _check_keys(data, ("clock", "start", "tick", "sampling"), where)
    kwargs: Dict[str, Any] = {}
    if "clock" in data:
        kwargs["clock"] = _coerce_str(data["clock"], f"{where}.clock")
    if "start" in data:
        kwargs["start"] = _coerce_float(data["start"], f"{where}.start")
    if "tick" in data:
        kwargs["tick"] = _coerce_float(data["tick"], f"{where}.tick")
    kwargs["sampling"] = _section_from_dict(
        SamplingSection, data.get("sampling"), f"{where}.sampling")
    return ObservabilitySection(**kwargs)


def _observability_to_dict(section: ObservabilitySection) -> Dict[str, Any]:
    return {
        "clock": section.clock,
        "start": section.start,
        "tick": section.tick,
        "sampling": _section_to_dict(section.sampling),
    }


@dataclass(frozen=True)
class ResilienceSection:
    """Retry + breaker parameters; ``enabled: false`` keeps the bare
    network transport.  Field defaults mirror
    :class:`~repro.core.options.ResilienceOptions`."""

    enabled: bool = False
    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    failure_threshold: int = 5
    recovery_time: float = 30.0


@dataclass(frozen=True)
class DeadlineSection:
    """Per-request deadline budget; ``enabled: false`` (the default)
    adds no budget (and no clock reads) to the monitored path.  Mirrors
    :class:`~repro.core.admission.DeadlineOptions`."""

    enabled: bool = False
    timeout: float = 30.0


@dataclass(frozen=True)
class AdmissionSection:
    """Admission control (one controller per monitor/shard); mirrors
    :class:`~repro.core.admission.AdmissionOptions`."""

    enabled: bool = False
    max_inflight: int = 64
    queue_depth: int = 128
    queue_seconds: float = 1.0


@dataclass(frozen=True)
class DegradationSection:
    """The ``full -> cached_only -> audit_only`` ladder; mirrors
    :class:`~repro.core.admission.DegradationOptions`."""

    enabled: bool = False
    escalate_after: int = 1
    clear_after: int = 8
    alarm_escalation: bool = True


@dataclass(frozen=True)
class FleetSection:
    """Sharding: ``shards: 1`` builds a single monitor, more a
    :class:`~repro.core.fleet.MonitorFleet`."""

    shards: int = 1
    router_seed: int = 0


@dataclass(frozen=True)
class SLOSpec:
    """One objective of the catalog; ``good``/``total`` are canonical
    selector dicts (see :func:`canonical_selector`)."""

    name: str
    objective: float
    good: Mapping[str, Any]
    total: Mapping[str, Any]
    description: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "SLOSpec":
        _check_keys(data, ("name", "objective", "good", "total",
                           "description"), where)
        return cls(
            name=_coerce_str(data.get("name"), f"{where}.name"),
            objective=_coerce_float(data.get("objective"),
                                    f"{where}.objective"),
            good=canonical_selector(data.get("good"), f"{where}.good"),
            total=canonical_selector(data.get("total"), f"{where}.total"),
            description=_coerce_str(data.get("description", ""),
                                    f"{where}.description"))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "objective": self.objective,
                "good": dict(self.good), "total": dict(self.total),
                "description": self.description}


@dataclass(frozen=True)
class WindowSpec:
    """One burn window with its paging threshold."""

    label: str
    seconds: float
    threshold: float

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "WindowSpec":
        _check_keys(data, ("label", "seconds", "threshold"), where)
        return cls(label=_coerce_str(data.get("label"), f"{where}.label"),
                   seconds=_coerce_float(data.get("seconds"),
                                         f"{where}.seconds"),
                   threshold=_coerce_float(data.get("threshold"),
                                           f"{where}.threshold"))

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "seconds": self.seconds,
                "threshold": self.threshold}


@dataclass(frozen=True)
class AlarmSpec:
    """One alarm rule; mirrors :class:`~repro.alerting.rules.AlarmRule`."""

    name: str
    slo: str
    warn_breaches: int = 1
    critical_breaches: int = 0
    clear_after: int = 2
    description: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "AlarmSpec":
        return _section_from_dict_strict(cls, data, where)

    def to_dict(self) -> Dict[str, Any]:
        return _section_to_dict(self)


def _section_from_dict_strict(cls, data: Mapping[str, Any], where: str):
    """Like :func:`_section_from_dict` but for specs with required fields."""
    names = tuple(f.name for f in fields(cls))
    _check_keys(data, names, where)
    kwargs: Dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.type == "bool":
            kwargs[f.name] = _coerce_bool(value, f"{where}.{f.name}")
        elif f.type == "int":
            kwargs[f.name] = _coerce_int(value, f"{where}.{f.name}")
        elif f.type == "float":
            kwargs[f.name] = _coerce_float(value, f"{where}.{f.name}")
        elif f.type.startswith("Optional"):
            kwargs[f.name] = (None if value is None else
                              _coerce_str(value, f"{where}.{f.name}"))
        else:
            kwargs[f.name] = _coerce_str(value, f"{where}.{f.name}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class SinkSpec:
    """One notification sink: ``events`` (wide-event log), ``jsonl``
    (canonical rows appended to ``path``), or ``memory``."""

    kind: str
    name: str = ""
    path: Optional[str] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "SinkSpec":
        return _section_from_dict_strict(cls, data, where)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "path": self.path}


#: Top-level document keys, in canonical emission order.
_TOP_LEVEL_KEYS = ("config_version", "cloud", "scenario", "monitor",
                   "observability", "resilience", "deadline", "admission",
                   "degradation", "fleet", "slos", "windows", "alarms",
                   "sinks")


@dataclass(frozen=True)
class MonitorConfig:
    """The whole deployment as one value (see the module docstring)."""

    cloud: CloudSection = field(default_factory=CloudSection)
    scenario: ScenarioSection = field(default_factory=ScenarioSection)
    monitor: MonitorSection = field(default_factory=MonitorSection)
    observability: ObservabilitySection = field(
        default_factory=ObservabilitySection)
    resilience: ResilienceSection = field(default_factory=ResilienceSection)
    deadline: DeadlineSection = field(default_factory=DeadlineSection)
    admission: AdmissionSection = field(default_factory=AdmissionSection)
    degradation: DegradationSection = field(
        default_factory=DegradationSection)
    fleet: FleetSection = field(default_factory=FleetSection)
    slos: Tuple[SLOSpec, ...] = ()
    windows: Tuple[WindowSpec, ...] = ()
    alarms: Tuple[AlarmSpec, ...] = ()
    sinks: Tuple[SinkSpec, ...] = ()

    # -- wire form ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MonitorConfig":
        """Parse a version-1 document, strictly.

        The version is checked first, so a document of another version
        -- a flat pre-versioning one included -- is refused for its
        version and can never be half-read.
        """
        version = (data.get("config_version")
                   if isinstance(data, Mapping) else None)
        _require(version == CONFIG_VERSION,
                 f"config_version must be {CONFIG_VERSION}, got "
                 f"{version!r}")
        _check_keys(data, _TOP_LEVEL_KEYS, "config")
        return cls(
            cloud=_section_from_dict(CloudSection, data.get("cloud"),
                                     "cloud"),
            scenario=_section_from_dict(ScenarioSection,
                                        data.get("scenario"), "scenario"),
            monitor=_section_from_dict(MonitorSection, data.get("monitor"),
                                       "monitor"),
            observability=_observability_from_dict(
                data.get("observability"), "observability"),
            resilience=_section_from_dict(ResilienceSection,
                                          data.get("resilience"),
                                          "resilience"),
            deadline=_section_from_dict(DeadlineSection,
                                        data.get("deadline"), "deadline"),
            admission=_section_from_dict(AdmissionSection,
                                         data.get("admission"), "admission"),
            degradation=_section_from_dict(DegradationSection,
                                           data.get("degradation"),
                                           "degradation"),
            fleet=_section_from_dict(FleetSection, data.get("fleet"),
                                     "fleet"),
            slos=tuple(SLOSpec.from_dict(entry, f"slos[{i}]")
                       for i, entry in enumerate(data.get("slos") or ())),
            windows=tuple(WindowSpec.from_dict(entry, f"windows[{i}]")
                          for i, entry in
                          enumerate(data.get("windows") or ())),
            alarms=tuple(AlarmSpec.from_dict(entry, f"alarms[{i}]")
                         for i, entry in
                         enumerate(data.get("alarms") or ())),
            sinks=tuple(SinkSpec.from_dict(entry, f"sinks[{i}]")
                        for i, entry in enumerate(data.get("sinks") or ())))

    def to_dict(self) -> Dict[str, Any]:
        """The complete canonical document (every section, every field)."""
        return {
            "config_version": CONFIG_VERSION,
            "cloud": _section_to_dict(self.cloud),
            "scenario": _section_to_dict(self.scenario),
            "monitor": _section_to_dict(self.monitor),
            "observability": _observability_to_dict(self.observability),
            "resilience": _section_to_dict(self.resilience),
            "deadline": _section_to_dict(self.deadline),
            "admission": _section_to_dict(self.admission),
            "degradation": _section_to_dict(self.degradation),
            "fleet": _section_to_dict(self.fleet),
            "slos": [spec.to_dict() for spec in self.slos],
            "windows": [spec.to_dict() for spec in self.windows],
            "alarms": [spec.to_dict() for spec in self.alarms],
            "sinks": [spec.to_dict() for spec in self.sinks],
        }

    # -- semantic validation ----------------------------------------------

    def validate(self) -> List[str]:
        """Semantic problems the shape checks cannot catch (empty = ok).

        Cross-references alarm rules against the effective SLO catalog,
        checks the scenario is registered, thresholds are sane, and
        every ``jsonl`` sink has a destination.
        """
        from ..alerting.rules import AlarmRule
        from ..core.scenarios import scenario_names
        from ..errors import AlarmError

        problems: List[str] = []
        if self.scenario.name not in scenario_names():
            problems.append(
                f"scenario.name {self.scenario.name!r} is not registered "
                f"(known: {', '.join(scenario_names())})")
        if self.fleet.shards < 1:
            problems.append("fleet.shards must be >= 1")
        if self.monitor.fanout < 1:
            problems.append("monitor.fanout must be >= 1")
        if self.observability.clock not in ("system", "manual"):
            problems.append(
                f"observability.clock must be 'system' or 'manual', "
                f"got {self.observability.clock!r}")
        if self.observability.tick < 0:
            problems.append("observability.tick cannot be negative")
        sampling = self.observability.sampling
        if not 0.0 <= sampling.rate <= 1.0:
            problems.append(
                "observability.sampling.rate must be in [0, 1], "
                f"got {sampling.rate}")
        if sampling.slow_threshold < 0:
            problems.append(
                "observability.sampling.slow_threshold cannot be "
                "negative")
        if self.resilience.enabled and self.resilience.max_attempts < 1:
            problems.append("resilience.max_attempts must be >= 1")
        if self.deadline.enabled and self.deadline.timeout <= 0:
            problems.append("deadline.timeout must be positive")
        if self.admission.enabled:
            if self.admission.max_inflight < 1:
                problems.append("admission.max_inflight must be >= 1")
            if self.admission.queue_depth < 0:
                problems.append("admission.queue_depth cannot be negative")
            if self.admission.queue_seconds < 0:
                problems.append("admission.queue_seconds cannot be negative")
        if self.degradation.enabled:
            if self.degradation.escalate_after < 1:
                problems.append("degradation.escalate_after must be >= 1")
            if self.degradation.clear_after < 1:
                problems.append("degradation.clear_after must be >= 1")
        if self.cloud.volume_quota < 1:
            problems.append("cloud.volume_quota must be >= 1")
        slo_names: List[str] = []
        for index, spec in enumerate(self.slos):
            if not 0.0 < spec.objective < 1.0:
                problems.append(
                    f"slos[{index}].objective must be strictly between "
                    f"0 and 1, got {spec.objective}")
            if spec.name in slo_names:
                problems.append(f"duplicate SLO name {spec.name!r}")
            slo_names.append(spec.name)
        if not self.slos:
            from ..obs.slo import default_slos
            slo_names = [slo.name for slo in default_slos()]
        for index, spec in enumerate(self.windows):
            if spec.seconds <= 0:
                problems.append(
                    f"windows[{index}].seconds must be positive")
        alarm_names: List[str] = []
        for index, spec in enumerate(self.alarms):
            where = f"alarms[{index}]"
            try:
                AlarmRule(name=spec.name, slo=spec.slo,
                          warn_breaches=spec.warn_breaches,
                          critical_breaches=spec.critical_breaches,
                          clear_after=spec.clear_after,
                          description=spec.description)
            except AlarmError as exc:
                problems.append(f"{where}: {exc}")
            if spec.slo not in slo_names:
                problems.append(
                    f"{where} watches unknown SLO {spec.slo!r} "
                    f"(catalog: {slo_names})")
            if spec.name in alarm_names:
                problems.append(f"duplicate alarm name {spec.name!r}")
            alarm_names.append(spec.name)
        for index, sink in enumerate(self.sinks):
            if sink.kind not in SINK_KINDS:
                problems.append(
                    f"sinks[{index}].kind must be one of "
                    f"{list(SINK_KINDS)}, got {sink.kind!r}")
            elif sink.kind == "jsonl" and not sink.path:
                problems.append(f"sinks[{index}] (jsonl) needs a path")
        return problems

    def require_valid(self) -> "MonitorConfig":
        """Raise :class:`~repro.errors.ConfigError` on any problem."""
        problems = self.validate()
        if problems:
            raise ConfigError(
                "invalid monitor config: " + "; ".join(problems))
        return self


# -- serialization ---------------------------------------------------------

def config_to_json(config: MonitorConfig) -> str:
    """The canonical JSON text (sorted keys, stable separators)."""
    return json.dumps(config.to_dict(), sort_keys=True,
                      separators=(",", ": "), indent=2) + "\n"


def config_to_yaml(config: MonitorConfig) -> str:
    """The canonical YAML text (section order preserved)."""
    _require(_yaml is not None,
             "PyYAML is not available; use JSON configs instead")
    return _yaml.safe_dump(config.to_dict(), sort_keys=False,
                           default_flow_style=False)


def dumps(config: MonitorConfig, format: str = "yaml") -> str:
    """Serialize *config* as ``yaml`` or ``json`` text."""
    if format == "json":
        return config_to_json(config)
    if format == "yaml":
        return config_to_yaml(config)
    raise ConfigError(f"unknown config format {format!r} "
                      "(known: yaml, json)")


def parse_text(text: str) -> Dict[str, Any]:
    """Parse YAML-or-JSON *text* into the raw document mapping."""
    try:
        data = json.loads(text)
    except ValueError:
        if _yaml is None:
            raise ConfigError(
                "config is not JSON and PyYAML is unavailable") from None
        try:
            data = _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise ConfigError(f"config is neither JSON nor YAML: "
                              f"{exc}") from None
    _require(isinstance(data, Mapping),
             f"a config document must be a mapping, got "
             f"{type(data).__name__}")
    return dict(data)


def loads(text: str) -> MonitorConfig:
    """Parse a version-1 YAML or JSON document."""
    return MonitorConfig.from_dict(parse_text(text))


def load(path: str) -> MonitorConfig:
    """Read and parse a version-1 config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dump(config: MonitorConfig, path: str) -> None:
    """Write *config* to *path* (format chosen by extension)."""
    format = "json" if path.endswith(".json") else "yaml"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(config, format=format))


def config_digest(config: MonitorConfig) -> str:
    """SHA-256 over the canonical JSON form -- the losslessness probe.

    Two configs with equal digests build identical deployments; the
    ``config`` gate's round trips compare digests, not text, so
    YAML/JSON cosmetics never matter.
    """
    return hashlib.sha256(config_to_json(config).encode()).hexdigest()
