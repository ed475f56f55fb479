"""Lift older config documents to the current schema version.

Before ``config_version`` existed, deployments were described by flat
ad-hoc dictionaries -- the keyword soup the setup functions used to
take (``enforcing=..., shards=..., resilient=..., retry={...}``).  This
module calls that shape **version 0** and migrates it into the nested
version-1 document, key by key and strictly: an unknown legacy key is a
:class:`~repro.errors.ConfigError`, never a silent drop.

``migrate`` is idempotent -- a version-1 document passes through the
canonicalizing parser unchanged, so ``migrate(migrate(d)) == migrate(d)``
and the ``config`` gate (``scripts/gates.py``) can compare
``dump -> migrate -> dump`` fingerprints byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..errors import ConfigError
from .schema import CONFIG_VERSION, MonitorConfig

#: Version-0 flat key -> (section, field) destination in version 1.
_V0_KEY_MAP = {
    "scenario": ("scenario", "name"),
    "project_id": ("scenario", "project_id"),
    "register_as": ("scenario", "register_as"),
    "volume_quota": ("cloud", "volume_quota"),
    "release2": ("cloud", "release2"),
    "enforcing": ("monitor", "enforcing"),
    "probe_planning": ("monitor", "probe_planning"),
    "fanout": ("monitor", "fanout"),
    "probe_cache": ("monitor", "probe_cache"),
    "shards": ("fleet", "shards"),
    "router_seed": ("fleet", "router_seed"),
    "resilient": ("resilience", "enabled"),
    "failure_threshold": ("resilience", "failure_threshold"),
    "recovery_time": ("resilience", "recovery_time"),
    "tick": ("observability", "tick"),
    "start": ("observability", "start"),
}

#: Version-0 ``retry`` sub-dict keys, all landing in ``resilience``.
_V0_RETRY_KEYS = ("max_attempts", "base_delay", "multiplier", "max_delay",
                  "jitter", "seed")

#: Version-0 keys copied verbatim to the same-named version-1 list.
_V0_PASSTHROUGH = ("slos", "windows", "alarms", "sinks")


def needs_migration(data: Mapping[str, Any]) -> bool:
    """Whether *data* is an older document ``migrate`` must lift."""
    return data.get("config_version", 0) != CONFIG_VERSION


def migrate(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Return *data* as a canonical version-1 document.

    Version-1 input is round-tripped through the strict parser (pure
    canonicalization); version-0 flat input is restructured; anything
    newer than this library raises :class:`~repro.errors.ConfigError`.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"a config document must be a mapping, got "
            f"{type(data).__name__}")
    version = data.get("config_version", 0)
    if version == CONFIG_VERSION:
        return MonitorConfig.from_dict(data).to_dict()
    if version == 0:
        return MonitorConfig.from_dict(_lift_v0(data)).to_dict()
    raise ConfigError(
        f"config_version {version!r} is newer than this library "
        f"understands (latest: {CONFIG_VERSION})")


def _lift_v0(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Restructure a flat version-0 document into version-1 sections."""
    sections: Dict[str, Dict[str, Any]] = {}
    out: Dict[str, Any] = {"config_version": CONFIG_VERSION}
    for key, value in data.items():
        if key == "config_version":
            continue
        if key in _V0_PASSTHROUGH:
            out[key] = value
        elif key == "retry":
            if not isinstance(value, Mapping):
                raise ConfigError("legacy 'retry' must be a mapping")
            unknown = sorted(set(value) - set(_V0_RETRY_KEYS))
            if unknown:
                raise ConfigError(
                    f"legacy 'retry' has unknown keys {unknown}; "
                    f"allowed: {list(_V0_RETRY_KEYS)}")
            sections.setdefault("resilience", {}).update(value)
        elif key == "manual_clock":
            sections.setdefault("observability", {})["clock"] = (
                "manual" if value else "system")
        elif key in _V0_KEY_MAP:
            section, field = _V0_KEY_MAP[key]
            sections.setdefault(section, {})[field] = value
        else:
            raise ConfigError(
                f"unknown legacy config key {key!r} (known: "
                f"{sorted(list(_V0_KEY_MAP) + list(_V0_PASSTHROUGH) + ['retry', 'manual_clock'])})")
    out.update(sections)
    return out
