"""Exhaustive tests for the Figure-2 outcome rules (``repro.core.verdicts``).

Every combination of the facts a request can produce is walked through
the stages in workflow order, exactly as ``CloudMonitor._run_workflow``
records them, and the settled outcome is checked against a pinned table
of the fifteen outcomes plus the invariants the paper's semantics imply.
"""

import ast
import itertools
from pathlib import Path

import pytest

import repro.core.verdicts as verdicts_module
from repro.core.verdicts import Facts, Outcome, Verdict, decide

V = Verdict
EXPECTED = (200,)
UNBOUND = frozenset({"user", "project"})
ROOTS = "project, user"
TRANSPORT = "retries exhausted"

#: The fifteen outcomes: (verdict, monitor code, message template).  The
#: templates are the monitor's wire text byte for byte; a code of None
#: passes the cloud's reply through.
OUTCOMES = {
    "audit-only": (
        V.INDETERMINATE, None,
        "degraded (audit_only): {reason}; contract not evaluated"),
    "pre-cache-miss": (
        V.INDETERMINATE, None,
        "degraded (cached_only): pre-state not in probe cache: {roots}; "
        "contract not evaluated"),
    "pre-deadline": (
        V.INDETERMINATE, None,
        "degraded ({mode}): deadline_exceeded: could not bind {roots}; "
        "contract not evaluated"),
    "pre-unobservable": (
        V.INDETERMINATE, 503,
        "pre-state unobservable: transport could not bind {roots}"),
    "pre-blocked": (
        V.PRE_BLOCKED, 412,
        "pre-condition failed; request not forwarded"),
    "forward-failed": (
        V.INDETERMINATE, 503,
        "forward failed in the transport layer ({transport}); "
        "outcome unknowable"),
    "pre-violation": (
        V.PRE_VIOLATION, 502,
        "cloud accepted a request whose pre-condition is false "
        "(privilege escalation or missing check)"),
    "invalid-agreed": (
        V.INVALID_AGREED, None,
        "pre-condition false and cloud rejected the request"),
    "rejected-valid": (
        V.REJECTED_VALID, 502,
        "cloud rejected a request whose pre-condition holds "
        "(authorized user denied or wrong functional check)"),
    "post-cache-miss": (
        V.INDETERMINATE, 503,
        "post-state not in probe cache: transport could not bind {roots}"),
    "post-deadline": (
        V.INDETERMINATE, 503,
        "post-state unobservable (deadline_exceeded): transport could not "
        "bind {roots}"),
    "post-unobservable": (
        V.INDETERMINATE, 503,
        "post-state unobservable: transport could not bind {roots}"),
    "unexpected-status": (
        V.POST_VIOLATION, 502,
        "unexpected status code {status}; expected one of {expected}"),
    "post-failed": (
        V.POST_VIOLATION, 502,
        "post-condition failed after a successful request"),
    "valid": (
        V.VALID, None,
        "pre- and post-conditions hold"),
}

AXES = dict(
    enforcing=(True, False),
    mode=("full", "cached_only", "audit_only"),
    pre_bound=(True, False),
    pre_deadline=(False, True),
    pre_holds=(True, False),
    transport=(None, TRANSPORT),
    status=(200, 201, 204, 403, 404, 500),
    post_bound=(True, False),
    post_deadline=(False, True),
    post_holds=(True, False),
)


def combinations():
    names = list(AXES)
    for values in itertools.product(*AXES.values()):
        yield dict(zip(names, values))


def mode_reason(mode):
    return None if mode == "full" else f"degradation ladder at {mode}"


def walk(combo):
    """Run the stages in workflow order; return (facts, outcome, stages).

    Facts are recorded exactly as the monitor records them -- in
    particular the deadline is observed only when a probe phase left
    roots unbound outside ``cached_only`` mode.  Asserts ``decide`` stays
    ``None`` until the first exit.
    """
    facts = Facts(combo["enforcing"], combo["mode"], EXPECTED,
                  mode_reason(combo["mode"]))

    def observe_deadline(unbound, exceeded):
        if unbound and facts.mode != "cached_only":
            facts.deadline_exceeded = exceeded

    def pre_probe():
        facts.pre_unbound = (frozenset() if combo["pre_bound"]
                             else UNBOUND)
        observe_deadline(facts.pre_unbound, combo["pre_deadline"])

    def pre_eval():
        facts.pre_holds = combo["pre_holds"]

    def forward():
        facts.transport_failure = combo["transport"]
        facts.cloud_status = combo["status"]

    def post_probe():
        facts.post_unbound = (frozenset() if combo["post_bound"]
                              else UNBOUND)
        observe_deadline(facts.post_unbound, combo["post_deadline"])

    def post_eval():
        facts.post_holds = combo["post_holds"]

    stages = [pre_probe, pre_eval, forward, post_probe, post_eval]
    ran = 0
    outcome = decide(facts)
    while outcome is None:
        assert ran < len(stages), f"no outcome after every stage: {combo}"
        stages[ran]()
        ran += 1
        outcome = decide(facts)
    return facts, outcome, ran


def classify(combo, facts, outcome):
    """The name of the pinned outcome *outcome* is, by exact text."""
    fields = dict(reason=facts.mode_reason, roots=ROOTS, mode=facts.mode,
                  transport=TRANSPORT, status=facts.cloud_status,
                  expected=EXPECTED)
    matches = [name for name, (verdict, code, template) in OUTCOMES.items()
               if (verdict, code, template.format(**fields))
               == (outcome.verdict, outcome.code, outcome.message)]
    assert len(matches) == 1, f"{combo} -> {outcome} matches {matches}"
    return matches[0]


@pytest.fixture(scope="module")
def walked():
    return [(combo, *walk(combo)) for combo in combinations()]


class TestExhaustive:
    def test_every_combination_is_enumerated(self, walked):
        assert len(walked) == 4608

    def test_every_exit_is_a_pinned_outcome_and_all_are_reached(
            self, walked):
        reached = {classify(combo, facts, outcome)
                   for combo, facts, outcome, _ in walked}
        assert reached == set(OUTCOMES)

    def test_decide_is_pure(self, walked):
        for combo, facts, outcome, _ in walked:
            assert decide(facts) == outcome
            assert isinstance(outcome, Outcome)

    def test_pre_blocked_iff_enforcing_bound_false_and_not_audit_only(
            self, walked):
        for combo, facts, outcome, _ in walked:
            expected = (combo["enforcing"] and combo["pre_bound"]
                        and not combo["pre_holds"]
                        and combo["mode"] != "audit_only")
            assert (outcome.verdict == V.PRE_BLOCKED) == expected, combo

    def test_unbound_pre_roots_are_indeterminate(self, walked):
        for combo, facts, outcome, _ in walked:
            if combo["mode"] == "audit_only" or combo["pre_bound"]:
                continue
            assert outcome.verdict == V.INDETERMINATE, combo
            forwarded = (combo["mode"] == "cached_only"
                         or combo["pre_deadline"])
            assert outcome.degraded == forwarded, combo

    def test_degraded_outcomes_are_indeterminate_pass_throughs(self, walked):
        for combo, facts, outcome, _ in walked:
            if outcome.degraded:
                assert outcome.verdict == V.INDETERMINATE, combo
                assert outcome.code is None, combo

    def test_valid_requires_every_check(self, walked):
        for combo, facts, outcome, _ in walked:
            if outcome.verdict == V.VALID:
                assert facts.pre_holds is True
                assert facts.post_unbound == frozenset()
                assert facts.post_holds is True
                assert facts.cloud_status in EXPECTED

    def test_no_violation_carries_unbound_roots(self, walked):
        for combo, facts, outcome, _ in walked:
            if outcome.verdict in V.VIOLATIONS:
                assert not facts.pre_unbound, combo
                assert not facts.post_unbound, combo

    def test_enforcing_never_yields_audit_verdicts(self, walked):
        for combo, facts, outcome, _ in walked:
            if combo["enforcing"]:
                assert outcome.verdict not in (V.PRE_VIOLATION,
                                               V.INVALID_AGREED), combo

    def test_blocking_outcomes_settle_before_the_forward(self, walked):
        for combo, facts, outcome, ran in walked:
            name = classify(combo, facts, outcome)
            if name in ("pre-blocked", "pre-unobservable"):
                assert ran <= 2 and facts.cloud_status is None, combo


class TestStaging:
    def test_nothing_observed_is_undecided(self):
        assert decide(Facts(True, "full", EXPECTED)) is None

    def test_audit_only_settles_before_any_probe(self):
        outcome = decide(Facts(False, "audit_only", EXPECTED))
        assert outcome == Outcome(
            V.INDETERMINATE, None,
            "degraded (audit_only): degraded to audit_only; "
            "contract not evaluated", degraded=True)

    def test_accepted_unexpected_status_waits_for_the_post_phase(self):
        facts = Facts(True, "full", EXPECTED, pre_unbound=frozenset(),
                      pre_holds=True, cloud_status=201)
        assert decide(facts) is None
        facts.post_unbound = frozenset()
        assert decide(facts) is None
        facts.post_holds = True
        assert decide(facts).verdict == V.POST_VIOLATION


def test_the_rules_module_is_pure():
    """The rules import nothing from the transport, obs, or provider."""
    tree = ast.parse(Path(verdicts_module.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    forbidden = ("..httpsim", "..obs", ".provider", "repro.httpsim",
                 "repro.obs", "repro.core.provider")
    assert not [module for module in modules
                if module.startswith(forbidden)]
