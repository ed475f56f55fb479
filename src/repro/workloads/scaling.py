"""Scaling experiments: synthetic model families.

Section VI-B discusses scalability of the modelling approach; the SCALE
bench measures how contract generation and code generation cost grow with
model size.  :func:`synthetic_models` builds a family of consistent
resource + behavioral models: *n* collection/member resource pairs, each
member with a quota-style three-state lifecycle (the Cinder pattern
repeated n times).
"""

from __future__ import annotations

from typing import Tuple

from ..rbac import SecurityRequirement, SecurityRequirementsTable
from ..uml import ClassDiagram, StateMachine
from ..core.behavior_model import BehaviorModelBuilder
from ..core.resource_model import ResourceModelBuilder


def synthetic_table(n_resources: int) -> SecurityRequirementsTable:
    """A Table-I-shaped requirements table covering *n* resources."""
    table = SecurityRequirementsTable()
    for index in range(n_resources):
        resource = f"c{index}_item"
        table.add(SecurityRequirement(f"{index}.1", resource, "GET", {
            "admin": ["proj_administrator"],
            "member": ["service_architect"],
            "user": ["business_analyst"],
        }))
        table.add(SecurityRequirement(f"{index}.2", resource, "PUT", {
            "admin": ["proj_administrator"],
            "member": ["service_architect"],
        }))
        table.add(SecurityRequirement(f"{index}.3", resource, "POST", {
            "admin": ["proj_administrator"],
            "member": ["service_architect"],
        }))
        table.add(SecurityRequirement(f"{index}.4", resource, "DELETE", {
            "admin": ["proj_administrator"],
        }))
    return table


def synthetic_models(n_resources: int,
                     ) -> Tuple[ClassDiagram, StateMachine]:
    """Build a consistent (resource model, behavioral model) pair.

    Each of the *n* resources replicates the Cinder volume pattern: a
    collection ``Items<i>`` containing members ``item<i>``, and a
    three-state lifecycle with POST/DELETE transitions plus GET/PUT loops.
    The models grow linearly: 2n+1 classes, 3n states, 13n transitions.
    """
    if n_resources < 1:
        raise ValueError("n_resources must be >= 1")

    resources = ResourceModelBuilder(f"synthetic_{n_resources}")
    resources.collection("Root")
    behavior = BehaviorModelBuilder(
        f"synthetic_{n_resources}_behavior", synthetic_table(n_resources))

    for index in range(n_resources):
        collection = f"c{index}_items"
        member = f"c{index}_item"
        resources.collection(collection)
        resources.resource(member, [("id", "String"), ("status", "String")])
        resources.references("Root", collection, f"c{index}_items")
        resources.contains(collection, member, f"c{index}_items")

        empty = f"{member}_empty"
        partial = f"{member}_partial"
        full = f"{member}_full"
        plural = collection.lower()
        behavior.state(empty, f"root.{plural}->size()=0",
                       initial=(index == 0))
        behavior.state(partial,
                       f"root.{plural}->size()>=1 and "
                       f"root.{plural}->size() < quota.limit{index}")
        behavior.state(full, f"root.{plural}->size() = quota.limit{index}")
        grown = (f"root.{plural}->size() = "
                 f"pre(root.{plural}->size()) + 1")
        shrunk = (f"root.{plural}->size() = "
                  f"pre(root.{plural}->size()) - 1")
        unchanged = (f"root.{plural}->size() = "
                     f"pre(root.{plural}->size())")
        behavior.transition(empty, partial, f"POST({collection})",
                            guard=f"quota.limit{index} > 1", effect=grown)
        behavior.transition(partial, partial, f"POST({collection})",
                            guard=f"root.{plural}->size() < "
                                  f"quota.limit{index} - 1",
                            effect=grown)
        behavior.transition(partial, full, f"POST({collection})",
                            guard=f"root.{plural}->size() = "
                                  f"quota.limit{index} - 1",
                            effect=grown)
        behavior.transition(partial, partial, f"DELETE({member})",
                            guard=f"root.{plural}->size() > 1",
                            effect=shrunk)
        behavior.transition(partial, empty, f"DELETE({member})",
                            guard=f"root.{plural}->size() = 1",
                            effect=shrunk)
        behavior.transition(full, partial, f"DELETE({member})",
                            effect=shrunk)
        for state in (empty, partial, full):
            behavior.transition(state, state, f"GET({collection})",
                                effect=unchanged)
        for state in (partial, full):
            behavior.transition(state, state, f"GET({member})",
                                effect=unchanged)
            behavior.transition(state, state, f"PUT({member})",
                                effect=unchanged)

    # Later resource lifecycles start in their own 'empty' states, which
    # are intentionally disconnected from resource 0's initial state; skip
    # the reachability validation that would flag them.
    return resources.build(), behavior.build(validate=False)
