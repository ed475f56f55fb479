"""A second monitored scenario: Nova servers.

The paper monitors Cinder volumes; the approach, however, is generic --
"our approach can be used to represent and validate only those scenarios
that are considered to be critical by the experts" (Section VI-B).  This
module instantiates the whole pipeline for the compute service: a server
resource model, a two-state behavioral model, a Table-I-style requirements
table (ids 2.x), a state provider probing Nova, and a monitor assembly.

It demonstrates, inside the library rather than an example, that nothing
in :mod:`repro.core` is Cinder-specific.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..httpsim import Network
from ..rbac import SecurityRequirement, SecurityRequirementsTable
from ..uml import ClassDiagram, StateMachine
from .behavior_model import BehaviorModelBuilder
from .contracts import ContractGenerator
from .coverage import CoverageTracker
from .monitor import CloudMonitor, operations_from_models
from .provider import CloudStateProvider
from .resource_model import ResourceModelBuilder

# State names of the server scenario.
NO_SERVER = "project_with_no_server"
HAS_SERVERS = "project_with_servers"


def nova_table() -> SecurityRequirementsTable:
    """Security requirements for the server resource (Table I style)."""
    table = SecurityRequirementsTable()
    table.add(SecurityRequirement("2.1", "server", "GET", {
        "admin": ["proj_administrator"],
        "member": ["service_architect"],
        "user": ["business_analyst"],
    }))
    table.add(SecurityRequirement("2.2", "server", "POST", {
        "admin": ["proj_administrator"],
        "member": ["service_architect"],
    }))
    table.add(SecurityRequirement("2.3", "server", "DELETE", {
        "admin": ["proj_administrator"],
    }))
    return table


def nova_resource_model() -> ClassDiagram:
    """Projects containing a Servers collection of server resources."""
    builder = ResourceModelBuilder("Nova")
    builder.collection("Projects")
    builder.resource("project", [("id", "String"), ("name", "String")])
    builder.collection("Servers")
    builder.resource("server", [
        ("id", "String"), ("name", "String"), ("status", "String")])
    builder.contains("Projects", "project", "projects")
    builder.references("project", "Servers", "servers")
    builder.contains("Servers", "server", "servers")
    return builder.build()


def nova_behavior_model(
        table: Optional[SecurityRequirementsTable] = None) -> StateMachine:
    """Two project states: no servers, and at least one server."""
    builder = BehaviorModelBuilder("nova_project", table or nova_table())
    builder.state(
        NO_SERVER,
        "project.id->size()=1 and project.servers->size()=0",
        initial=True)
    builder.state(
        HAS_SERVERS,
        "project.id->size()=1 and project.servers->size()>=1")

    grown = "project.servers->size() = pre(project.servers->size()) + 1"
    shrunk = "project.servers->size() = pre(project.servers->size()) - 1"
    unchanged = "project.servers->size() = pre(project.servers->size())"

    builder.transition(NO_SERVER, HAS_SERVERS, "POST(servers)", effect=grown)
    builder.transition(HAS_SERVERS, HAS_SERVERS, "POST(servers)",
                       effect=grown)
    builder.transition(HAS_SERVERS, HAS_SERVERS, "DELETE(server)",
                       guard="project.servers->size() > 1", effect=shrunk)
    builder.transition(HAS_SERVERS, NO_SERVER, "DELETE(server)",
                       guard="project.servers->size() = 1", effect=shrunk)
    for state in (NO_SERVER, HAS_SERVERS):
        builder.transition(state, state, "GET(servers)", effect=unchanged)
    builder.transition(HAS_SERVERS, HAS_SERVERS, "GET(server)",
                       guard="server.id->size() = 1", effect=unchanged)
    return builder.build()


class NovaStateProvider(CloudStateProvider):
    """Probes Keystone + Nova and binds ``project``, ``server``, ``user``."""

    roots = ("project", "server", "user")
    probe_costs = {"project": 2, "server": 1, "user": 1}
    item_scoped_roots = ("server",)
    # Nova's data-plane mutations (server CRUD) cannot change identity.
    mutation_dirty_roots = ("project", "server")
    probes = (
        ("project", "_probe_nova_project"),
        ("server", "_probe_server"),
        ("user", "_identity"),
    )

    def __init__(self, network: Network, project_id: str,
                 keystone_host: str = "keystone",
                 nova_host: str = "nova",
                 transport=None):
        super().__init__(network, project_id, keystone_host=keystone_host,
                         transport=transport)
        self.nova_host = nova_host

    def _probe_nova_project(self, token: str, item_id: Optional[str],
                            cache) -> Dict[str, Any]:
        project: Dict[str, Any] = {}
        response = self._get(
            token,
            f"http://{self.keystone_host}/v3/projects/{self.project_id}",
            cache=cache)
        if self.probe_body(response) is not None:
            project["id"] = self.project_id
        servers_body = self.probe_body(self._get(
            token,
            f"http://{self.nova_host}/v3/{self.project_id}/servers",
            cache=cache))
        if servers_body is not None:
            project["servers"] = servers_body.get("servers", [])
        return project

    def _probe_server(self, token: str, item_id: str,
                      cache) -> Dict[str, Any]:
        item_body = self.probe_body(self._get(
            token,
            f"http://{self.nova_host}/v3/{self.project_id}"
            f"/servers/{item_id}", cache=cache))
        return item_body.get("server", {}) if item_body is not None else {}


def monitor_for_nova(network: Network, project_id: str,
                     enforcing: Optional[bool] = None,
                     nova_host: str = "nova",
                     mount: str = "smonitor",
                     observability=None,
                     probe_planning: Optional[bool] = None,
                     options=None) -> CloudMonitor:
    """Assemble the server-scenario monitor (the Cinder recipe, re-applied).

    Registered in the scenario registry as ``"nova"``; prefer
    ``CloudMonitor.for_service("nova", ...)``.
    """
    machine = nova_behavior_model()
    diagram = nova_resource_model()
    contracts = ContractGenerator(machine, diagram).all_contracts()
    base = f"http://{nova_host}/v3/{project_id}"
    operations = operations_from_models(machine, diagram, base, mount=mount)
    provider = NovaStateProvider(network, project_id, nova_host=nova_host)
    coverage = CoverageTracker(machine.security_requirement_ids())
    return CloudMonitor(contracts, provider, operations,
                        enforcing=enforcing, coverage=coverage,
                        observability=observability,
                        probe_planning=probe_planning,
                        options=options)
