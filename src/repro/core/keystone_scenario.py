"""A third monitored scenario: Keystone project administration.

Identity is the cloud's most security-critical surface, and it can be
monitored with the same pipeline -- including the self-referential twist
that the monitor's probes go to the very service being monitored.  The
scenario guards project creation/deletion (admin-only) and the functional
rule that the last project cannot be deleted.
"""

from __future__ import annotations

from typing import Any, Optional

from ..httpsim import Network
from ..ocl.values import UNDEFINED
from ..rbac import SecurityRequirement, SecurityRequirementsTable
from ..uml import ClassDiagram, StateMachine
from .behavior_model import BehaviorModelBuilder
from .contracts import ContractGenerator
from .coverage import CoverageTracker
from .monitor import CloudMonitor, MonitoredOperation
from .provider import CloudStateProvider
from .resource_model import ResourceModelBuilder

SINGLE = "cloud_with_single_project"
MULTIPLE = "cloud_with_multiple_projects"


def keystone_table() -> SecurityRequirementsTable:
    """Who may administer projects (Table I style, ids 3.x)."""
    table = SecurityRequirementsTable()
    table.add(SecurityRequirement("3.1", "project", "GET", {
        "admin": ["proj_administrator"],
        "member": ["service_architect"],
        "user": ["business_analyst"],
    }))
    table.add(SecurityRequirement("3.2", "project", "POST", {
        "admin": ["proj_administrator"],
    }))
    table.add(SecurityRequirement("3.3", "project", "DELETE", {
        "admin": ["proj_administrator"],
    }))
    return table


def keystone_resource_model() -> ClassDiagram:
    """The identity resource model: a Projects collection of projects."""
    builder = ResourceModelBuilder("Keystone")
    builder.collection("Projects")
    builder.resource("project", [("id", "String"), ("name", "String"),
                                 ("enabled", "Boolean")])
    builder.contains("Projects", "project", "projects")
    return builder.build()


def keystone_behavior_model(
        table: Optional[SecurityRequirementsTable] = None) -> StateMachine:
    """Two cloud states: exactly one project, or several.

    The DELETE guards enforce the functional rule that the last project
    survives: there is no transition deleting out of the single-project
    state.
    """
    builder = BehaviorModelBuilder("keystone_projects",
                                   table or keystone_table())
    builder.state(SINGLE, "projects->size() = 1", initial=True)
    builder.state(MULTIPLE, "projects->size() > 1")
    grown = "projects->size() = pre(projects->size()) + 1"
    shrunk = "projects->size() = pre(projects->size()) - 1"
    unchanged = "projects->size() = pre(projects->size())"
    builder.transition(SINGLE, MULTIPLE, "POST(projects)", effect=grown)
    builder.transition(MULTIPLE, MULTIPLE, "POST(projects)", effect=grown)
    builder.transition(MULTIPLE, MULTIPLE, "DELETE(project)",
                       guard="projects->size() > 2", effect=shrunk)
    builder.transition(MULTIPLE, SINGLE, "DELETE(project)",
                       guard="projects->size() = 2", effect=shrunk)
    for state in (SINGLE, MULTIPLE):
        builder.transition(state, state, "GET(projects)", effect=unchanged)
    return builder.build()


class KeystoneStateProvider(CloudStateProvider):
    """Binds ``projects`` and ``user`` by probing Keystone itself."""

    roots = ("projects", "project", "user")
    probe_costs = {"projects": 1, "project": 1, "user": 1}
    item_scoped_roots = ("project",)
    # Keystone mutations are identity-plane changes: a project CRUD can
    # shift role assignments and scoping, so nothing survives a mutation.
    mutation_dirty_roots = ("projects", "project", "user")
    probes = (
        ("user", "_identity"),
        ("projects", "_probe_listing"),
        ("project", "_probe_item"),
    )

    def _probe_listing(self, token: str, item_id: Optional[str],
                       cache) -> Any:
        listing_body = self.probe_body(self._get(
            token, f"http://{self.keystone_host}/v3/projects",
            cache=cache))
        if listing_body is None:
            return UNDEFINED
        return listing_body.get("projects", [])

    def _probe_item(self, token: str, item_id: str, cache) -> Any:
        item_body = self.probe_body(self._get(
            token,
            f"http://{self.keystone_host}/v3/projects/{item_id}",
            cache=cache))
        if item_body is None:
            return UNDEFINED
        return item_body.get("project", {})


def monitor_for_keystone(network: Network, project_id: str,
                         enforcing: Optional[bool] = None,
                         keystone_host: str = "keystone",
                         mount: str = "imonitor",
                         observability=None,
                         probe_planning: Optional[bool] = None,
                         options=None) -> CloudMonitor:
    """Assemble the identity-scenario monitor.

    Registered in the scenario registry as ``"keystone"``; prefer
    ``CloudMonitor.for_service("keystone", ...)``.
    """
    machine = keystone_behavior_model()
    diagram = keystone_resource_model()
    contracts = ContractGenerator(machine, diagram).all_contracts()
    base = f"http://{keystone_host}/v3"
    operations = []
    for trigger in contracts:
        if trigger.resource == "projects":
            operations.append(MonitoredOperation(
                trigger, f"{mount}/projects", f"{base}/projects"))
        else:
            operations.append(MonitoredOperation(
                trigger, f"{mount}/projects/<str:project_id>",
                f"{base}/projects/{{project_id}}"))
    provider = KeystoneStateProvider(network, project_id,
                                     keystone_host=keystone_host)
    coverage = CoverageTracker(machine.security_requirement_ids())
    return CloudMonitor(contracts, provider, operations,
                        enforcing=enforcing, coverage=coverage,
                        observability=observability,
                        probe_planning=probe_planning,
                        options=options)
