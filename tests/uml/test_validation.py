"""Tests for model well-formedness validation."""

from repro.uml import (
    MANY,
    Association,
    Attribute,
    ClassDiagram,
    Multiplicity,
    ResourceClass,
    State,
    StateMachine,
    Transition,
    validate_class_diagram,
    validate_state_machine,
)
from repro.uml.validation import WARNING, errors_only


def good_diagram():
    diagram = ClassDiagram("d")
    diagram.add_class(ResourceClass("Things"))
    diagram.add_class(ResourceClass("thing", [Attribute("id", "String")]))
    diagram.add_association(Association(
        "Things", "thing", "things", Multiplicity(0, MANY)))
    return diagram


def good_machine():
    machine = StateMachine("m")
    machine.add_state(State("empty", "thing->size()=0", is_initial=True))
    machine.add_state(State("busy", "thing->size()>=1"))
    machine.add_transition(Transition(
        "empty", "busy", "POST(thing)", guard="true", effect="true",
        security_requirements=["1.1"]))
    return machine


class TestClassDiagramValidation:
    def test_clean_diagram(self):
        assert validate_class_diagram(good_diagram()) == []

    def test_empty_diagram(self):
        violations = validate_class_diagram(ClassDiagram("empty"))
        assert errors_only(violations)

    def test_private_attribute_flagged(self):
        diagram = good_diagram()
        diagram.get_class("thing").add_attribute(
            Attribute("secret", "String", visibility="private"))
        violations = errors_only(validate_class_diagram(diagram))
        assert any("public" in v.message for v in violations)

    def test_untyped_attribute_flagged(self):
        diagram = good_diagram()
        diagram.get_class("thing").add_attribute(Attribute("x", ""))
        violations = errors_only(validate_class_diagram(diagram))
        assert any("typed" in v.message for v in violations)

    def test_duplicate_attribute_flagged(self):
        diagram = good_diagram()
        diagram.get_class("thing").add_attribute(Attribute("id", "String"))
        violations = errors_only(validate_class_diagram(diagram))
        assert any("duplicate attribute" in v.message for v in violations)

    def test_missing_role_name_flagged(self):
        diagram = good_diagram()
        diagram.add_class(ResourceClass("other", [Attribute("id")]))
        diagram.add_association(Association("thing", "other", ""))
        violations = errors_only(validate_class_diagram(diagram))
        assert any("role name" in v.message for v in violations)

    def test_clashing_role_names_flagged(self):
        diagram = good_diagram()
        diagram.add_class(ResourceClass("other", [Attribute("id")]))
        diagram.add_association(Association("Things", "other", "things"))
        violations = errors_only(validate_class_diagram(diagram))
        assert any("clash" in v.message for v in violations)

    def test_collection_with_single_member_warned(self):
        diagram = ClassDiagram("d")
        diagram.add_class(ResourceClass("Coll"))
        diagram.add_class(ResourceClass("item", [Attribute("id")]))
        diagram.add_association(Association(
            "Coll", "item", "items", Multiplicity(1, 1)))
        violations = validate_class_diagram(diagram)
        assert any(v.level == WARNING and "0..*" in v.message
                   for v in violations)

    def test_no_root_flagged(self):
        diagram = ClassDiagram("d")
        diagram.add_class(ResourceClass("a", [Attribute("id")]))
        diagram.add_class(ResourceClass("b", [Attribute("id")]))
        diagram.add_association(Association("a", "b", "bs"))
        diagram.add_association(Association("b", "a", "as_"))
        violations = errors_only(validate_class_diagram(diagram))
        assert any("root" in v.message for v in violations)

    def test_orphan_class_warned(self):
        diagram = good_diagram()
        diagram.add_class(ResourceClass("loner", [Attribute("id")]))
        violations = validate_class_diagram(diagram)
        assert any(v.level == WARNING and v.element == "loner"
                   for v in violations)


class TestStateMachineValidation:
    def test_clean_machine(self):
        assert validate_state_machine(good_machine()) == []

    def test_empty_machine(self):
        violations = validate_state_machine(StateMachine("m"))
        assert errors_only(violations)

    def test_missing_initial_flagged(self):
        machine = StateMachine("m")
        machine.add_state(State("a"))
        violations = errors_only(validate_state_machine(machine))
        assert any("initial" in v.message for v in violations)

    def test_bad_invariant_ocl_flagged(self):
        machine = StateMachine("m")
        machine.add_state(State("a", "this is ((not ocl", is_initial=True))
        violations = errors_only(validate_state_machine(machine))
        assert any("invariant" in v.message for v in violations)

    def test_bad_guard_ocl_flagged(self):
        machine = good_machine()
        machine.add_transition(Transition(
            "empty", "busy", "PUT(thing)", guard="->broken(",
            security_requirements=["1.2"]))
        violations = errors_only(validate_state_machine(machine))
        assert any("guard" in v.message for v in violations)

    def test_bad_effect_ocl_flagged(self):
        machine = good_machine()
        machine.add_transition(Transition(
            "empty", "busy", "PUT(thing)", effect="1 +",
            security_requirements=["1.2"]))
        violations = errors_only(validate_state_machine(machine))
        assert any("effect" in v.message for v in violations)

    def test_cross_model_unknown_resource_flagged(self):
        machine = good_machine()
        machine.add_transition(Transition(
            "empty", "busy", "POST(ghost)", security_requirements=["1.9"]))
        violations = errors_only(validate_state_machine(machine, good_diagram()))
        assert any("ghost" in v.message for v in violations)

    def test_cross_model_known_resource_clean(self):
        assert validate_state_machine(good_machine(), good_diagram()) == []

    def test_unannotated_mutation_warned(self):
        machine = good_machine()
        machine.add_transition(Transition("empty", "busy", "DELETE(thing)"))
        violations = validate_state_machine(machine)
        assert any(v.level == WARNING and "security-requirement" in v.message
                   for v in violations)

    def test_unannotated_get_not_warned(self):
        machine = good_machine()
        machine.add_transition(Transition("busy", "busy", "GET(thing)"))
        violations = validate_state_machine(machine)
        assert not any("security-requirement" in v.message for v in violations)

    def test_unreachable_state_warned(self):
        machine = good_machine()
        machine.add_state(State("island", "true"))
        violations = validate_state_machine(machine)
        assert any(v.level == WARNING and v.element == "island"
                   for v in violations)
