"""Tests for the behavioral-model consistency analyzer."""

from repro.core import BehaviorModelBuilder, cinder_behavior_model
from repro.core.consistency import (
    check_consistency,
    check_guard_determinism,
    check_state_disjointness,
    cinder_state_space,
)
from repro.core.nova_scenario import nova_behavior_model


def simple_space():
    """A small numeric state space for hand-built machines."""
    return [{"x": value} for value in range(0, 6)]


class TestStateSpace:
    def test_cinder_space_covers_dimensions(self):
        space = cinder_state_space()
        counts = {len(b["project"]["volumes"]) for b in space}
        assert 0 in counts and max(counts) >= 3
        statuses = {b["volume"]["status"] for b in space}
        assert statuses == {"available", "in-use"}
        roles = {tuple(b["user"]["roles"]) for b in space}
        assert ("admin",) in roles and () in roles


class TestCinderAndNovaClean:
    def test_cinder_model_consistent(self):
        assert check_consistency(cinder_behavior_model()) == []

    def test_cinder_release2_consistent(self):
        assert check_consistency(
            cinder_behavior_model(with_snapshots=True)) == []

    def test_nova_model_consistent(self):
        space = [
            {"project": {"id": "p",
                         "servers": [{"id": f"s{i}"} for i in range(n)]},
             "server": {"id": "s0"},
             "user": {"roles": roles}}
            for n in range(0, 3)
            for roles in (["admin"], ["member"], ["user"])
        ]
        assert check_consistency(nova_behavior_model(), space) == []


class TestStateDisjointness:
    def test_overlapping_invariants_witnessed(self):
        builder = BehaviorModelBuilder("m")
        builder.state("low", "x < 4", initial=True)
        builder.state("mid", "x >= 2 and x <= 5")
        machine = builder.machine
        overlaps = check_state_disjointness(machine, simple_space())
        assert len(overlaps) == 1
        overlap = overlaps[0]
        assert overlap.kind == "state-invariants"
        assert {overlap.first, overlap.second} == {"low", "mid"}
        # The witness really does satisfy both invariants.
        assert 2 <= overlap.witness["x"] < 4

    def test_disjoint_invariants_clean(self):
        builder = BehaviorModelBuilder("m")
        builder.state("low", "x < 3", initial=True)
        builder.state("high", "x >= 3")
        assert check_state_disjointness(builder.machine, simple_space()) == []

    def test_one_witness_per_pair(self):
        builder = BehaviorModelBuilder("m")
        builder.state("a", "x >= 0", initial=True)
        builder.state("b", "x >= 0")
        overlaps = check_state_disjointness(builder.machine, simple_space())
        assert len(overlaps) == 1


class TestGuardDeterminism:
    def make_machine(self, guard_a, guard_b, same_target=False):
        builder = BehaviorModelBuilder("m")
        builder.state("s", "x >= 0", initial=True)
        builder.state("t", "x >= 0")
        builder.transition("s", "t", "POST(r)", guard=guard_a,
                           effect="x = 1")
        builder.transition("s", "t" if same_target else "s", "POST(r)",
                           guard=guard_b, effect="x = 2")
        return builder.machine

    def test_overlapping_guards_witnessed(self):
        machine = self.make_machine("x < 4", "x > 2")
        overlaps = check_guard_determinism(machine, simple_space())
        assert len(overlaps) == 1
        assert overlaps[0].kind == "guards"
        assert overlaps[0].witness["x"] == 3

    def test_disjoint_guards_clean(self):
        machine = self.make_machine("x < 3", "x >= 3")
        assert check_guard_determinism(machine, simple_space()) == []

    def test_identical_transitions_not_flagged(self):
        # Same target and effect: redundant, not contradictory.
        builder = BehaviorModelBuilder("m")
        builder.state("s", "x >= 0", initial=True)
        builder.transition("s", "s", "GET(r)", guard="x > 0", effect="true")
        builder.transition("s", "s", "GET(r)", guard="x > 1", effect="true")
        assert check_guard_determinism(builder.machine, simple_space()) == []

    def test_source_invariant_gates_the_check(self):
        # Guards overlap only outside the source invariant: clean.
        builder = BehaviorModelBuilder("m")
        builder.state("s", "x < 2", initial=True)
        builder.state("t", "x >= 2")
        builder.transition("s", "t", "POST(r)", guard="x > 3", effect="x=1")
        builder.transition("s", "s", "POST(r)", guard="x > 4", effect="x=2")
        assert check_guard_determinism(builder.machine, simple_space()) == []

    def test_different_triggers_never_compared(self):
        builder = BehaviorModelBuilder("m")
        builder.state("s", "x >= 0", initial=True)
        builder.state("t", "x >= 0")
        builder.transition("s", "t", "POST(r)", guard="x > 0", effect="x=1")
        builder.transition("s", "s", "DELETE(r)", guard="x > 0", effect="x=2")
        assert check_guard_determinism(builder.machine, simple_space()) == []
