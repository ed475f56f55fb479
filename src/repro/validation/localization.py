"""Fault localization from the monitor's verdict log.

Section III-B: "The invocation results can be logged for further fault
localization."  Given the violations recorded during a battery, the
localizer groups them by operation and verdict class and names the most
likely faulty artifact: for the simulated cloud that is a ``policy.json``
action (authorization faults) or the method's functional check / status
code (functional faults).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.verdicts import MonitorVerdict, Verdict

#: verdict class -> (fault family, hint template).
_DIAGNOSES = {
    Verdict.PRE_VIOLATION: (
        "permissive implementation",
        "the cloud accepted a request the specification forbids -- check "
        "the {action!r} policy rule for privilege escalation or a missing "
        "check"),
    Verdict.REJECTED_VALID: (
        "restrictive implementation",
        "the cloud denied a request the specification allows -- check the "
        "{action!r} policy rule for privilege loss, or the functional "
        "checks guarding the method"),
    Verdict.POST_VIOLATION: (
        "wrong effect or status code",
        "the request was accepted but its observable outcome deviates -- "
        "check the {action!r} handler's effect on state and its success "
        "status code"),
}


class Diagnosis:
    """One localized fault hypothesis."""

    def __init__(self, operation: str, action: str, fault_family: str,
                 hint: str, occurrences: int,
                 requirement_ids: List[str], sample_message: str):
        self.operation = operation
        self.action = action
        self.fault_family = fault_family
        self.hint = hint
        self.occurrences = occurrences
        self.requirement_ids = requirement_ids
        self.sample_message = sample_message

    def __repr__(self) -> str:
        return (f"<Diagnosis {self.operation} {self.fault_family} "
                f"x{self.occurrences}>")


def _action_for(verdict: MonitorVerdict) -> str:
    """The policy action name the simulated services enforce."""
    trigger = verdict.trigger
    resource = trigger.resource
    # Collections ('volumes') are governed by the item row ('volume').
    if resource.endswith("s") and not resource.endswith("ss"):
        resource = resource[:-1]
    return f"{resource.lower()}:{trigger.method.lower()}"


def localize(log: List[MonitorVerdict]) -> List[Diagnosis]:
    """Group the log's violations into fault hypotheses, most frequent first."""
    groups: Dict[Tuple[str, str], List[MonitorVerdict]] = {}
    for verdict in log:
        if not verdict.violation:
            continue
        key = (str(verdict.trigger), verdict.verdict)
        groups.setdefault(key, []).append(verdict)

    diagnoses: List[Diagnosis] = []
    for (operation, verdict_kind), verdicts in groups.items():
        fault_family, hint_template = _DIAGNOSES[verdict_kind]
        action = _action_for(verdicts[0])
        requirement_ids: List[str] = []
        for verdict in verdicts:
            for requirement in verdict.security_requirements:
                if requirement not in requirement_ids:
                    requirement_ids.append(requirement)
        diagnoses.append(Diagnosis(
            operation=operation,
            action=action,
            fault_family=fault_family,
            hint=hint_template.format(action=action),
            occurrences=len(verdicts),
            requirement_ids=requirement_ids,
            sample_message=verdicts[0].message,
        ))
    diagnoses.sort(key=lambda diagnosis: -diagnosis.occurrences)
    return diagnoses


def render_report(diagnoses: List[Diagnosis]) -> str:
    """A human-readable localization report."""
    if not diagnoses:
        return "no violations recorded; nothing to localize"
    lines = [f"{len(diagnoses)} fault hypothesis(es), most frequent first:"]
    for index, diagnosis in enumerate(diagnoses, start=1):
        lines.append("")
        lines.append(f"#{index} {diagnosis.operation} -- "
                     f"{diagnosis.fault_family} "
                     f"({diagnosis.occurrences} occurrence(s))")
        lines.append(f"    suspected artifact: policy action "
                     f"{diagnosis.action!r}")
        lines.append(f"    security requirements: "
                     f"{', '.join(diagnosis.requirement_ids) or '-'}")
        lines.append(f"    hint: {diagnosis.hint}")
    return "\n".join(lines)
