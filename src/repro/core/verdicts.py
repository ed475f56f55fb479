"""The Figure-2 outcome rules: the verdict vocabulary and one pure ``decide``.

The monitored workflow is conditional -- a blocked request is never
forwarded, an unobservable pre-state is never evaluated -- so the rules
are consulted after every stage.  The workflow records what it observed
in a :class:`Facts` record (``None`` means "not observed yet") and asks
:func:`decide`; the answer is ``None`` while a later stage could still
change the verdict, and an :class:`Outcome` once it is settled.

This module is pure: it reads no clock, no budget, no network, and
imports nothing from the transport, observability, or provider layers.
The workflow gathers the facts (including whether the deadline ran out)
and builds the one :class:`MonitorVerdict` from the facts plus the
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Tuple)

from ..uml import Trigger
from .verdict_schema import verdict_record


class Verdict:
    """The possible outcomes of one monitored request."""

    VALID = "valid"
    #: Enforcing mode: pre-condition failed, request not forwarded.
    PRE_BLOCKED = "pre-blocked"
    #: Audit mode: pre-condition failed but the cloud accepted the request
    #: (privilege escalation / missing check in the implementation).
    PRE_VIOLATION = "pre-violation"
    #: Pre-condition held but the cloud rejected the request
    #: (privilege loss: an authorized user was denied).
    REJECTED_VALID = "rejected-valid-request"
    #: Pre held, response accepted, but the post-condition failed
    #: (wrong effect or wrong status code).
    POST_VIOLATION = "post-violation"
    #: Audit mode: pre-condition failed and the cloud also rejected --
    #: both sides agree the request is invalid.
    INVALID_AGREED = "invalid-agreed"
    #: The substrate was unreachable (retries exhausted / breaker open):
    #: the monitor could not bind the state it needs, so it refuses to
    #: guess -- neither valid nor invalid, and never a violation.
    INDETERMINATE = "indeterminate"

    VIOLATIONS = (PRE_VIOLATION, REJECTED_VALID, POST_VIOLATION)


class MonitorVerdict:
    """The full record of one monitored request (the traceability log row)."""

    def __init__(self, trigger: Trigger, verdict: str,
                 pre_holds: Optional[bool],
                 forwarded: bool, response_status: Optional[int],
                 post_holds: Optional[bool], message: str,
                 security_requirements: List[str],
                 snapshot_bytes: int = 0,
                 correlation_id: Optional[str] = None,
                 unbound_roots: Optional[Iterable[str]] = None):
        self.trigger = trigger
        self.verdict = verdict
        self.pre_holds = pre_holds
        self.forwarded = forwarded
        self.response_status = response_status
        self.post_holds = post_holds
        self.message = message
        self.security_requirements = security_requirements
        self.snapshot_bytes = snapshot_bytes
        #: Trace id of the request that produced this verdict; joins the
        #: audit log with the tracer's span records.
        self.correlation_id = correlation_id
        #: Roots the provider could not bind because the transport gave up
        #: (retries exhausted or breaker open); non-empty only on
        #: :data:`Verdict.INDETERMINATE` verdicts.
        self.unbound_roots: List[str] = sorted(unbound_roots or ())

    @property
    def violation(self) -> bool:
        """True when the cloud implementation contradicted the contract."""
        return self.verdict in Verdict.VIOLATIONS

    @property
    def indeterminate(self) -> bool:
        """True when the substrate was unreachable and no call was made."""
        return self.verdict == Verdict.INDETERMINATE

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form in the versioned wire schema.

        Embedded in invalid responses, audit-log rows, and the JSON
        exporter alike -- see :mod:`repro.core.verdict_schema`."""
        return verdict_record(self)

    def __repr__(self) -> str:
        return f"<MonitorVerdict {self.trigger} {self.verdict}>"


@dataclass
class Facts:
    """What the workflow has observed of one request so far.

    The request's context is known up front: *mode* is the degradation
    mode it is served under (``full``, ``cached_only`` or ``audit_only``,
    see :mod:`repro.core.admission`).  Every later field stays ``None``
    until its stage ran.  ``deadline_exceeded`` is observed only when a
    probe phase left roots unbound outside ``cached_only`` mode -- the
    one point where the deadline changes the rules.
    """

    enforcing: bool
    mode: str
    expected_codes: Tuple[int, ...]
    mode_reason: Optional[str] = None
    # -- the pre phase
    pre_unbound: Optional[FrozenSet[str]] = None
    deadline_exceeded: Optional[bool] = None
    pre_holds: Optional[bool] = None
    # -- the forward
    transport_failure: Optional[str] = None
    cloud_status: Optional[int] = None
    # -- the post phase
    post_unbound: Optional[FrozenSet[str]] = None
    post_holds: Optional[bool] = None


class Outcome(NamedTuple):
    """A settled verdict: what to record and what to answer.

    *code* is the monitor's own HTTP status, or ``None`` to pass the
    cloud's reply through.  A *degraded* outcome is settled before the
    forward: the workflow still forwards the request (unchecked) and
    passes the answer through.
    """

    verdict: str
    code: Optional[int]
    message: str
    degraded: bool = False


def _degraded(facts: Facts, reason: str) -> Outcome:
    """Serve the request without contract evaluation: forward, pass
    through, and refuse to claim valid/invalid for unchecked state."""
    return Outcome(Verdict.INDETERMINATE, None,
                   f"degraded ({facts.mode}): {reason}; "
                   "contract not evaluated", degraded=True)


def decide(facts: Facts) -> Optional[Outcome]:
    """The one place a verdict is chosen (Figure 2, stages 1-6).

    Returns ``None`` while a stage that has not run yet could still
    change the verdict; once the facts settle it, the :class:`Outcome`.
    """
    if facts.mode == "audit_only":
        return _degraded(facts, facts.mode_reason or "degraded to audit_only")

    # (1) the pre-state probe.
    unbound = facts.pre_unbound
    if unbound is None:
        return None
    if unbound:
        roots = ", ".join(sorted(unbound))
        if facts.mode == "cached_only":
            # Live probing is already off; a cache miss degrades one rung
            # further for this request rather than refusing it.
            return _degraded(facts, "pre-state not in probe cache: " + roots)
        if facts.deadline_exceeded:
            # The probes were abandoned because the deadline ran out, not
            # because the substrate is sick: forward rather than block.
            return _degraded(facts, "deadline_exceeded: could not bind "
                             + roots)
        # The pre-state is unobservable, so neither blocking nor
        # forwarding can be justified -- even in audit mode: a write whose
        # outcome could never be checked would corrupt the validation log.
        return Outcome(Verdict.INDETERMINATE, 503,
                       "pre-state unobservable: transport could not bind "
                       + roots)

    # (2) the pre-condition.
    pre_holds = facts.pre_holds
    if pre_holds is None:
        return None
    if not pre_holds and facts.enforcing:
        return Outcome(Verdict.PRE_BLOCKED, 412,
                       "pre-condition failed; request not forwarded")

    # (4) the forward.
    if facts.transport_failure is not None:
        # The 503 in hand is the transport's own, not the cloud's answer:
        # the request may or may not have taken effect.
        return Outcome(Verdict.INDETERMINATE, 503,
                       f"forward failed in the transport layer "
                       f"({facts.transport_failure}); outcome unknowable")
    status = facts.cloud_status
    if status is None:
        return None
    succeeded = 200 <= status < 300
    if not pre_holds:
        if succeeded:
            return Outcome(Verdict.PRE_VIOLATION, 502,
                           "cloud accepted a request whose pre-condition is "
                           "false (privilege escalation or missing check)")
        return Outcome(Verdict.INVALID_AGREED, None,
                       "pre-condition false and cloud rejected the request")
    if not succeeded:
        return Outcome(Verdict.REJECTED_VALID, 502,
                       "cloud rejected a request whose pre-condition holds "
                       "(authorized user denied or wrong functional check)")

    # (5) the post-state probe and the post-condition.
    unbound = facts.post_unbound
    if unbound is None:
        return None
    if unbound:
        why = "post-state unobservable"
        if facts.mode == "cached_only":
            why = "post-state not in probe cache"
        elif facts.deadline_exceeded:
            why = "post-state unobservable (deadline_exceeded)"
        return Outcome(Verdict.INDETERMINATE, 503,
                       f"{why}: transport could not bind "
                       + ", ".join(sorted(unbound)))
    if facts.post_holds is None:
        return None
    if status not in facts.expected_codes:
        return Outcome(Verdict.POST_VIOLATION, 502,
                       f"unexpected status code {status}; "
                       f"expected one of {facts.expected_codes}")
    if not facts.post_holds:
        return Outcome(Verdict.POST_VIOLATION, 502,
                       "post-condition failed after a successful request")
    return Outcome(Verdict.VALID, None, "pre- and post-conditions hold")
