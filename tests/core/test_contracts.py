"""Tests for the contract generator (paper Section V, Listing 1)."""

import pytest

from repro.errors import GenerationError
from repro.core import (
    ContractGenerator,
    cinder_behavior_model,
    cinder_resource_model,
)
from repro.ocl import Context, collect_pre_expressions, parse
from repro.ocl.nodes import Binary, Pre


@pytest.fixture(scope="module")
def generator():
    return ContractGenerator(cinder_behavior_model(), cinder_resource_model())


@pytest.fixture(scope="module")
def delete_contract(generator):
    return generator.for_trigger("DELETE(volume)")


def state(volumes, quota, status="available", roles=("admin",)):
    """Concrete probe-state bindings for contract evaluation."""
    return {
        "project": {"id": "myProject",
                    "volumes": [{"id": f"v{i}"} for i in range(volumes)]},
        "quota_sets": {"volumes": quota},
        "volume": {"id": "v0", "status": status},
        "user": {"roles": list(roles)},
    }


class TestListing1Structure:
    """The DELETE(volume) contract must have the Listing 1 shape."""

    def test_three_disjuncts(self, delete_contract):
        assert len(delete_contract.cases) == 3

    def test_precondition_is_disjunction(self, delete_contract):
        node = delete_contract.precondition
        # or(or(a, b), c)
        assert isinstance(node, Binary)
        assert node.operator == "or"
        assert node.left.operator == "or"

    def test_postcondition_is_conjunction_of_implications(
            self, delete_contract):
        node = delete_contract.postcondition
        assert node.operator == "and"
        implications = [delete_contract.cases[0].implication,
                        delete_contract.cases[1].implication,
                        delete_contract.cases[2].implication]
        for implication in implications:
            assert implication.operator == "implies"
            assert isinstance(implication.left, Pre)

    def test_post_uses_pre_old_values(self, delete_contract):
        pres = collect_pre_expressions(delete_contract.postcondition)
        # one antecedent per case plus pre(size()) in each effect
        assert len(pres) >= 3

    def test_security_requirements(self, delete_contract):
        assert delete_contract.security_requirements == ["1.4"]

    def test_uri_from_resource_model(self, delete_contract):
        assert delete_contract.uri == "/{project_id}/volumes/{volume_id}"

    def test_render_layout(self, delete_contract):
        text = delete_contract.render()
        assert text.startswith(
            "PreCondition(DELETE(/{project_id}/volumes/{volume_id})):")
        assert "PostCondition(DELETE(" in text
        assert text.count(" or\n") == 2   # three pre disjuncts
        assert text.count(" and\n") == 2  # three post implications
        assert "pre(" in text

    def test_rendered_contract_parses_back(self, delete_contract):
        parse(delete_contract.precondition_text())
        parse(delete_contract.postcondition_text())


class TestPreconditionEvaluation:
    def test_admin_detached_volume_allows_delete(self, delete_contract):
        context = Context(state(volumes=2, quota=5), strict=False)
        assert delete_contract.check_pre(context) is True

    def test_in_use_volume_blocks_delete(self, delete_contract):
        context = Context(state(volumes=2, quota=5, status="in-use"),
                          strict=False)
        assert delete_contract.check_pre(context) is False

    def test_non_admin_blocks_delete(self, delete_contract):
        context = Context(state(volumes=2, quota=5, roles=("member",)),
                          strict=False)
        assert delete_contract.check_pre(context) is False

    def test_no_volumes_blocks_delete(self, delete_contract):
        context = Context(state(volumes=0, quota=5), strict=False)
        assert delete_contract.check_pre(context) is False

    def test_full_quota_case_applies(self, delete_contract):
        context = Context(state(volumes=5, quota=5), strict=False)
        applicable = delete_contract.applicable_cases(context)
        assert len(applicable) == 1
        assert applicable[0].transition.source == \
            "project_with_volume_and_full_quota"

    def test_single_volume_case(self, delete_contract):
        context = Context(state(volumes=1, quota=5), strict=False)
        applicable = delete_contract.applicable_cases(context)
        assert [case.transition.target for case in applicable] == [
            "project_with_no_volume"]


class TestPostconditionEvaluation:
    def test_successful_delete_satisfies_post(self, delete_contract):
        before = Context(state(volumes=2, quota=5), strict=False)
        snapshot = delete_contract.snapshot(before)
        after = Context(state(volumes=1, quota=5), strict=False)
        assert delete_contract.check_post(after, snapshot) is True

    def test_unchanged_state_violates_post(self, delete_contract):
        before = Context(state(volumes=2, quota=5), strict=False)
        snapshot = delete_contract.snapshot(before)
        assert delete_contract.check_post(before, snapshot) is False

    def test_grown_state_violates_post(self, delete_contract):
        before = Context(state(volumes=2, quota=5), strict=False)
        snapshot = delete_contract.snapshot(before)
        after = Context(state(volumes=3, quota=5), strict=False)
        assert delete_contract.check_post(after, snapshot) is False

    def test_vacuous_post_when_pre_false(self, delete_contract):
        # If no case's pre held, every implication is vacuously true.
        before = Context(state(volumes=0, quota=5), strict=False)
        snapshot = delete_contract.snapshot(before)
        assert delete_contract.check_post(before, snapshot) is True

    def test_snapshot_is_small(self, delete_contract):
        # The paper: "usually this only requires a few bits of storage".
        before = Context(state(volumes=2, quota=5), strict=False)
        snapshot = delete_contract.snapshot(before)
        assert snapshot.storage_bytes <= 64


class TestPostContract:
    def test_post_volumes_contract(self, generator):
        contract = generator.for_trigger("POST(volumes)")
        assert len(contract.cases) == 4
        assert contract.security_requirements == ["1.3"]
        assert contract.uri == "/{project_id}/volumes"

    def test_post_create_satisfies_post(self, generator):
        contract = generator.for_trigger("POST(volumes)")
        before = Context(state(volumes=1, quota=5, roles=("member",)),
                         strict=False)
        assert contract.check_pre(before) is True
        snapshot = contract.snapshot(before)
        after = Context(state(volumes=2, quota=5, roles=("member",)),
                        strict=False)
        assert contract.check_post(after, snapshot) is True

    def test_post_blocked_at_quota(self, generator):
        contract = generator.for_trigger("POST(volumes)")
        before = Context(state(volumes=5, quota=5), strict=False)
        assert contract.check_pre(before) is False

    def test_get_contracts_exist(self, generator):
        contracts = generator.all_contracts()
        names = {str(trigger) for trigger in contracts}
        assert {"GET(volumes)", "GET(volume)", "PUT(volume)",
                "POST(volumes)", "DELETE(volume)"} == names

    def test_unknown_trigger_raises(self, generator):
        with pytest.raises(GenerationError):
            generator.for_trigger("PATCH(volume)")

    def test_contract_without_diagram_has_default_uri(self):
        generator = ContractGenerator(cinder_behavior_model())
        contract = generator.for_trigger("DELETE(volume)")
        assert contract.uri == "/volume"


class TestGenerationCost:
    """Generation compiles every contract, so it must not parse twice."""

    def test_each_distinct_text_is_lexed_once(self, monkeypatch):
        import repro.ocl.parser as parser

        machine, diagram = cinder_behavior_model(), cinder_resource_model()
        lexed = []
        tokenize = parser.tokenize

        def counting_tokenize(text):
            lexed.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser, "tokenize", counting_tokenize)
        contracts = ContractGenerator(machine, diagram).all_contracts()
        assert len(contracts) == 5
        assert lexed and len(lexed) == len(set(lexed))
