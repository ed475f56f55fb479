"""Tests for workload generation and synthetic scaling models."""

import pytest

from repro.config import build_from_config
from repro.core import ContractGenerator
from repro.uml.validation import errors_only, validate_class_diagram
from repro.validation import campaign_config
from repro.workloads import (
    RequestMix,
    WorkloadRunner,
    make_workload,
    status_histogram,
    synthetic_models,
)


class TestMakeWorkload:
    def test_count(self):
        assert len(make_workload(25)) == 25

    def test_deterministic_with_seed(self):
        assert make_workload(50, seed=7) == make_workload(50, seed=7)

    def test_different_seeds_differ(self):
        assert make_workload(50, seed=1) != make_workload(50, seed=2)

    def test_plans_shape(self):
        for user, method, target in make_workload(30):
            assert user in ("alice", "bob", "carol")
            assert method in ("GET", "POST", "PUT", "DELETE")
            assert target in ("collection", "item")

    def test_mix_weights_respected(self):
        plans = make_workload(
            300, mix=RequestMix(get_collection=1, get_item=0, post=0,
                                put=0, delete=0))
        assert all(method == "GET" and target == "collection"
                   for _, method, target in plans)

    def test_custom_users(self):
        plans = make_workload(10, users=("alice",))
        assert all(user == "alice" for user, _, _ in plans)


class TestWorkloadRunner:
    def test_direct_execution_histogram(self):
        cloud, _monitor = build_from_config(campaign_config())
        statuses = WorkloadRunner(cloud).execute(make_workload(40),
                                                 monitored=False)
        histogram = status_histogram(statuses)
        assert sum(histogram.values()) == len(statuses) == 40
        assert histogram["2xx"] > 0
        assert histogram["5xx"] == 0

    def test_monitored_execution_histogram(self):
        cloud, _monitor = build_from_config(campaign_config())
        statuses = WorkloadRunner(cloud).execute(make_workload(40),
                                                 monitored=True)
        histogram = status_histogram(statuses)
        assert sum(histogram.values()) == len(statuses) == 40
        assert histogram["5xx"] == 0  # audit mode, clean cloud: no 502s

    def test_monitored_clean_cloud_no_violations(self):
        cloud, monitor = build_from_config(campaign_config())
        WorkloadRunner(cloud).execute(make_workload(60, seed=3),
                                      monitored=True)
        assert monitor.violations() == []

    def test_same_plan_both_paths_same_success_profile(self):
        # The monitor must be transparent for valid traffic: the 2xx count
        # through the monitor matches the direct run on a fresh cloud.
        plans = make_workload(40, seed=11)
        cloud_a, _monitor_a = build_from_config(campaign_config())
        direct = WorkloadRunner(cloud_a).execute(plans, monitored=False)
        cloud_b, _monitor_b = build_from_config(campaign_config())
        monitored = WorkloadRunner(cloud_b).execute(plans, monitored=True)
        assert status_histogram(direct) == status_histogram(monitored)


class TestSyntheticModels:
    def test_sizes_grow_linearly(self):
        for n in (1, 3, 5):
            diagram, machine = synthetic_models(n)
            assert len(diagram.classes) == 2 * n + 1
            assert len(machine.states) == 3 * n
            assert len(machine.transitions) == 13 * n

    def test_resource_model_well_formed(self):
        diagram, _ = synthetic_models(4)
        assert errors_only(validate_class_diagram(diagram)) == []

    def test_contracts_generate_for_all_triggers(self):
        diagram, machine = synthetic_models(3)
        generator = ContractGenerator(machine, diagram)
        contracts = generator.all_contracts()
        assert len(contracts) == 5 * 3  # five methods per resource

    def test_security_requirements_annotated(self):
        _, machine = synthetic_models(2)
        ids = set(machine.security_requirement_ids())
        assert {"0.1", "0.2", "0.3", "0.4", "1.1", "1.2", "1.3", "1.4"} == ids

    def test_delete_contract_has_three_cases(self):
        diagram, machine = synthetic_models(2)
        generator = ContractGenerator(machine, diagram)
        contract = generator.for_trigger("DELETE(c1_item)")
        assert len(contract.cases) == 3

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            synthetic_models(0)

    def test_uri_derivation_works(self):
        diagram, _ = synthetic_models(2)
        paths = diagram.uri_paths()
        assert paths["c0_items"] == "/c0_items"
        assert diagram.item_uri("c1_item") == "/c1_items/{c1_item_id}"
