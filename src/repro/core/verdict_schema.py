"""The one versioned wire schema for monitor verdicts.

Before this module existed, three places each shaped their own verdict
dict: ``MonitorVerdict.to_dict`` (embedded in invalid responses),
the audit-log JSONL rows, and the chaos/parity exporters.  They drifted
(the audit log carried ``snapshot_bytes``, the response body did not),
which makes log tooling fragile.  Now every serialized verdict is one
record shape, stamped with :data:`SCHEMA_VERSION`:

``schema_version, operation, verdict, pre_holds, forwarded,
response_status, post_holds, message, security_requirements,
snapshot_bytes, correlation_id, unbound_roots``

Version history:

* **1** -- the implicit pre-schema shape (no ``schema_version`` field;
  ``snapshot_bytes`` only in audit-log rows).  Readers still accept it.
* **2** -- one shape everywhere; adds ``schema_version`` and
  ``unbound_roots`` (the roots a degraded probe round could not bind,
  non-empty exactly for ``indeterminate`` verdicts).
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import ModelError, MonitorError

#: The version stamped into every record this module writes.
SCHEMA_VERSION = 2


def verdict_record(verdict) -> Dict[str, Any]:
    """The canonical JSON-ready record for one ``MonitorVerdict``.

    This is the single source of truth consumed by
    ``MonitorVerdict.to_dict``, the audit log, and every exporter; add
    fields here (and bump :data:`SCHEMA_VERSION`) rather than shaping
    ad-hoc dicts elsewhere.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "operation": str(verdict.trigger),
        "verdict": verdict.verdict,
        "pre_holds": verdict.pre_holds,
        "forwarded": verdict.forwarded,
        "response_status": verdict.response_status,
        "post_holds": verdict.post_holds,
        "message": verdict.message,
        "security_requirements": list(verdict.security_requirements),
        "snapshot_bytes": verdict.snapshot_bytes,
        "correlation_id": verdict.correlation_id,
        "unbound_roots": list(verdict.unbound_roots),
    }


def verdict_from_record(record: Dict[str, Any]):
    """Rebuild a ``MonitorVerdict`` from a (possibly version-1) record.

    Fields introduced after version 1 load with their defaults, so audit
    logs written by older monitors keep parsing.  Raises
    :class:`~repro.errors.MonitorError` on malformed input.
    """
    from ..uml import Trigger
    from .verdicts import MonitorVerdict

    try:
        version = record.get("schema_version", 1)
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"bad schema_version {version!r}")
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"verdict record has schema_version {version}, newer than "
                f"the supported {SCHEMA_VERSION}")
        return MonitorVerdict(
            trigger=Trigger.parse(record["operation"]),
            verdict=record["verdict"],
            pre_holds=record["pre_holds"],
            forwarded=record["forwarded"],
            response_status=record["response_status"],
            post_holds=record["post_holds"],
            message=record["message"],
            security_requirements=list(record["security_requirements"]),
            snapshot_bytes=record.get("snapshot_bytes", 0),
            correlation_id=record.get("correlation_id"),
            unbound_roots=list(record.get("unbound_roots", ())),
        )
    except (ValueError, KeyError, TypeError, ModelError) as exc:
        raise MonitorError(f"malformed verdict record: {exc}") from exc
