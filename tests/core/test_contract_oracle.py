"""The shipped contracts, compiled at generation, against the interpreter.

Every generated contract runs compiled closures; the tree-walking
interpreter is the reference semantics.  These tests drive seeded request
sequences through monitors of every shipped scenario, record each context
the live contracts receive, and re-check every one of them through the
interpreter on the contract's Listing-1 ASTs:

* ``applicable_cases`` against each case pre-condition, case by case;
* ``check_pre`` against the disjunctive pre-condition;
* ``snapshot`` against ``Snapshot.capture`` of the post-condition;
* ``check_post`` against the post-condition, with the oracle's snapshot.
"""

import copy
from contextlib import contextmanager

import pytest

from repro.cloud import PrivateCloud, extended_mutants
from repro.core import CloudMonitor
from repro.core.keystone_scenario import monitor_for_keystone
from repro.core.nova_scenario import monitor_for_nova
from repro.ocl import Evaluator, Snapshot
from repro.validation import (
    TestOracle,
    extended_battery,
    release2_battery,
    release2_setup,
)

NOVA = "http://smonitor/smonitor/servers"
KEYSTONE = "http://imonitor/imonitor/projects"


class Recording:
    """What the live contracts of one or more monitors received."""

    def __init__(self):
        #: (contract, pre-state context, applicable cases).
        self.pre = []
        #: (contract, pre-state context, snapshot).
        self.snapshots = []
        #: (contract, post-state context, snapshot, post held).
        self.post = []


@contextmanager
def recording(*monitors):
    """Wrap the live contracts' methods; unwrap them on exit.

    Contexts are copied as they arrive, so the oracle sees exactly the
    state the compiled closures saw.
    """
    record = Recording()
    contracts = [contract for monitor in monitors
                 for contract in monitor.contracts.values()]
    for contract in contracts:
        applicable_cases = contract.applicable_cases
        snapshot = contract.snapshot
        check_post = contract.check_post

        def record_pre(context, contract=contract,
                       applicable_cases=applicable_cases):
            applicable = applicable_cases(context)
            record.pre.append((contract, copy.deepcopy(context), applicable))
            return applicable

        def record_snapshot(context, contract=contract, snapshot=snapshot):
            taken = snapshot(context)
            record.snapshots.append((contract, copy.deepcopy(context),
                                     taken))
            return taken

        def record_post(context, taken, contract=contract,
                        check_post=check_post):
            holds = check_post(context, taken)
            record.post.append((contract, copy.deepcopy(context), taken,
                                holds))
            return holds

        contract.applicable_cases = record_pre
        contract.snapshot = record_snapshot
        contract.check_post = record_post
    try:
        yield record
    finally:
        for contract in contracts:
            del contract.applicable_cases
            del contract.snapshot
            del contract.check_post


def assert_matches_oracle(record):
    """Re-check every recorded context through the interpreter.

    Returns the pre and post outcomes checked.  Each post-condition is
    also checked on its request's pre-state, a post-state in which
    nothing changed, so mutating contracts are seen failing too.
    """
    pre_outcomes, post_outcomes = set(), set()
    for contract, context, applicable in record.pre:
        expected = [case for case in contract.cases
                    if Evaluator(context).evaluate_bool(case.precondition)]
        assert applicable == expected, contract
        holds = contract.check_pre(context)
        assert holds == Evaluator(context).evaluate_bool(
            contract.precondition)
        pre_outcomes.add(holds)
    taken_in = {}
    for contract, context, taken in record.snapshots:
        oracle = Snapshot().capture(contract.postcondition, context)
        assert taken.values == oracle.values, contract
        assert taken.storage_bytes == oracle.storage_bytes
        taken_in[id(taken)] = (oracle, context)
    for contract, context, taken, holds in record.post:
        oracle, pre_state = taken_in[id(taken)]
        assert holds == Evaluator(context, oracle).evaluate_bool(
            contract.postcondition), contract
        unchanged = contract.check_post(pre_state, taken)
        assert unchanged == Evaluator(pre_state, oracle).evaluate_bool(
            contract.postcondition), contract
        post_outcomes.update((holds, unchanged))
    return pre_outcomes, post_outcomes


def cinder_audit_monitor(cloud):
    monitor = CloudMonitor.for_service("cinder", cloud.network, "myProject",
                                       enforcing=False)
    cloud.network.register("cmonitor", monitor.app)
    return monitor


class TestCinderContracts:
    def test_standard_battery(self):
        cloud = PrivateCloud.paper_setup()
        monitor = cinder_audit_monitor(cloud)
        with recording(monitor) as record:
            TestOracle(cloud, monitor).run()
        assert assert_matches_oracle(record) == ({True, False},
                                                 {True, False})
        assert {contract.trigger for contract, _, _ in record.pre} == \
            set(monitor.contracts)

    @pytest.mark.parametrize("mutant", extended_mutants(),
                             ids=lambda mutant: mutant.mutant_id)
    def test_extended_battery_under_each_mutant(self, mutant):
        cloud = PrivateCloud.paper_setup()
        monitor = cinder_audit_monitor(cloud)
        mutant.apply(cloud)
        with recording(monitor) as record:
            TestOracle(cloud, monitor).run(extended_battery())
        assert assert_matches_oracle(record) == ({True, False},
                                                 {True, False})

    def test_release2_models(self):
        cloud, monitor = release2_setup()
        with recording(monitor) as record:
            TestOracle(cloud, monitor).run(release2_battery())
        assert assert_matches_oracle(record) == ({True, False},
                                                 {True, False})
        # The release-2 guard reads the volume's snapshots.
        volumes = [context.bindings.get("volume")
                   for _, context, _ in record.pre]
        assert any(isinstance(volume, dict) and "snapshots" in volume
                   for volume in volumes)


class TestNovaContracts:
    def test_scenario_requests(self):
        cloud = PrivateCloud.paper_setup()
        tokens = cloud.paper_tokens()
        monitor = monitor_for_nova(cloud.network, "myProject",
                                   enforcing=True)
        cloud.network.register("smonitor", monitor.app)
        clients = {name: cloud.client(token)
                   for name, token in tokens.items()}
        with recording(monitor) as record:
            clients["bob"].post(NOVA, {"server": {"name": "web"}})
            clients["carol"].post(NOVA, {"server": {}})
            sid = clients["bob"].post(
                NOVA, {"server": {"name": "s"}}).json()["server"]["id"]
            clients["carol"].get(f"{NOVA}/{sid}")
            clients["carol"].get(NOVA)
            clients["bob"].delete(f"{NOVA}/{sid}")
            clients["alice"].delete(f"{NOVA}/{sid}")
            # The escalation mutant, through an audit-mode monitor.
            audit = monitor_for_nova(cloud.network, "myProject",
                                     enforcing=False)
            cloud.network.register("smonitor", audit.app)
            with recording(audit) as audited:
                sid = clients["bob"].post(
                    NOVA, {"server": {}}).json()["server"]["id"]
                cloud.nova.policy.set_rule("server:delete",
                                           "role:admin or role:member")
                clients["bob"].delete(f"{NOVA}/{sid}")
        assert assert_matches_oracle(record) == ({True, False},
                                                 {True, False})
        assert False in assert_matches_oracle(audited)[0]


class TestKeystoneContracts:
    def test_scenario_requests(self):
        cloud = PrivateCloud.paper_setup()
        tokens = cloud.paper_tokens()
        monitor = monitor_for_keystone(cloud.network, "myProject",
                                       enforcing=True)
        cloud.network.register("imonitor", monitor.app)
        clients = {name: cloud.client(token)
                   for name, token in tokens.items()}
        with recording(monitor) as record:
            for name in ("alice", "bob", "carol"):
                clients[name].get(KEYSTONE)
            clients["bob"].post(KEYSTONE, {"project": {"name": "x"}})
            clients["alice"].delete(f"{KEYSTONE}/myProject")
            created = clients["alice"].post(KEYSTONE,
                                            {"project": {"name": "x"}})
            project_id = created.json()["project"]["id"]
            clients["alice"].delete(f"{KEYSTONE}/{project_id}")
            # The escalation mutant, through an audit-mode monitor.
            audit = monitor_for_keystone(cloud.network, "myProject",
                                         enforcing=False)
            cloud.network.register("imonitor", audit.app)
            with recording(audit) as audited:
                cloud.keystone.policy.set_rule(
                    "identity:create_project", "role:admin or role:member")
                clients["bob"].post(KEYSTONE, {"project": {"name": "s"}})
        assert assert_matches_oracle(record) == ({True, False},
                                                 {True, False})
        assert False in assert_matches_oracle(audited)[0]
