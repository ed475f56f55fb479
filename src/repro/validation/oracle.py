"""The automated testing script: the monitor as a test oracle.

Section III-B, user 4: "an automated testing script, which uses CM as a
test oracle and invokes the cloud implementation through the cloud monitor
to validate the authorization policy for all the resources.  The invocation
results can be logged for further fault localization."

A battery is an ordered list of :class:`BatteryStep` objects; the standard
battery exercises every (role, method) cell of Table I plus the functional
edges (delete while in-use, create at quota).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..cloud import PrivateCloud
from ..core.monitor import CloudMonitor
from ..httpsim import Client, Response


class BatteryStep:
    """One scripted invocation: which user calls which method on what."""

    def __init__(self, name: str, user: str, method: str,
                 path: str, payload: Optional[dict] = None,
                 uses_volume: bool = False,
                 prepare: Optional[Callable[["TestOracle"], None]] = None):
        self.name = name
        self.user = user
        self.method = method
        self.path = path          # may contain {volume_id}
        self.payload = payload
        self.uses_volume = uses_volume
        #: Optional state preparation run directly against the cloud
        #: (not through the monitor) before the step fires.
        self.prepare = prepare

    def __repr__(self) -> str:
        return f"<BatteryStep {self.name}: {self.user} {self.method}>"


def standard_battery() -> List[BatteryStep]:
    """The full Table-I battery plus the functional edge cases.

    Covers every requirement (1.1-1.4) with both an authorized and an
    unauthorized caller, so privilege-escalation *and* privilege-loss
    mutants are observable.
    """
    volumes = "/cmonitor/volumes"
    volume = "/cmonitor/volumes/{volume_id}"
    steps = [
        # SecReq 1.3 -- POST: admin and member allowed, user denied.
        BatteryStep("post-admin", "alice", "POST", volumes,
                    {"volume": {"name": "a"}}),
        BatteryStep("post-member", "bob", "POST", volumes,
                    {"volume": {"name": "b"}}),
        BatteryStep("post-user-denied", "carol", "POST", volumes,
                    {"volume": {"name": "c"}}),
        # SecReq 1.1 -- GET: everyone allowed.
        BatteryStep("get-collection-admin", "alice", "GET", volumes),
        BatteryStep("get-collection-member", "bob", "GET", volumes),
        BatteryStep("get-collection-user", "carol", "GET", volumes),
        BatteryStep("get-item-user", "carol", "GET", volume,
                    uses_volume=True),
        # SecReq 1.2 -- PUT: admin and member allowed, user denied.
        BatteryStep("put-admin", "alice", "PUT", volume,
                    {"volume": {"name": "renamed"}}, uses_volume=True),
        BatteryStep("put-member", "bob", "PUT", volume,
                    {"volume": {"name": "renamed2"}}, uses_volume=True),
        BatteryStep("put-user-denied", "carol", "PUT", volume,
                    {"volume": {"name": "nope"}}, uses_volume=True),
        # SecReq 1.4 -- DELETE: only admin allowed.
        BatteryStep("delete-user-denied", "carol", "DELETE", volume,
                    uses_volume=True),
        BatteryStep("delete-member-denied", "bob", "DELETE", volume,
                    uses_volume=True),
        BatteryStep("delete-admin", "alice", "DELETE", volume,
                    uses_volume=True),
    ]
    return steps


def _fill_quota(oracle: "TestOracle") -> None:
    """Create volumes directly on the cloud until the quota is reached."""
    cinder = oracle.cloud.cinder
    limit = cinder.quota_for(oracle.project_id)["volumes"]
    client = oracle.clients["bob"]
    while cinder.volume_count(oracle.project_id) < limit:
        client.post(
            oracle.cloud.cinder_url(f"/v3/{oracle.project_id}/volumes"),
            {"volume": {"name": "filler"}})


def _attach_first_volume(oracle: "TestOracle") -> None:
    """Ensure a volume exists and is attached (status ``in-use``)."""
    volume_id = oracle._ensure_volume()
    volume = oracle.cloud.cinder.volumes.get(volume_id)
    if volume is not None and volume["status"] != "in-use":
        oracle.clients["bob"].post(
            oracle.cloud.cinder_url(
                f"/v3/{oracle.project_id}/volumes/{volume_id}/action"),
            {"os-attach": {"server_id": "battery-server"}})


def _detach_all(oracle: "TestOracle") -> None:
    """Detach every attached volume so later steps see clean state."""
    for volume in oracle.cloud.cinder.volumes.where(
            project_id=oracle.project_id, status="in-use"):
        oracle.cloud.cinder.detach(volume)


def extended_battery() -> List[BatteryStep]:
    """The standard battery plus the functional edges.

    These steps make the functional mutants observable: a POST while the
    quota is exhausted (kills the quota-bypass mutant) and a DELETE of an
    attached volume (kills the status-check-bypass mutant).  On a correct
    cloud both requests are denied, which the monitor agrees with.
    """
    return standard_battery() + [
        BatteryStep("post-at-quota", "bob", "POST", "/cmonitor/volumes",
                    {"volume": {"name": "over"}}, prepare=_fill_quota),
        BatteryStep("delete-in-use", "alice", "DELETE",
                    "/cmonitor/volumes/{volume_id}", uses_volume=True,
                    prepare=_attach_first_volume),
        BatteryStep("get-after-cleanup", "carol", "GET", "/cmonitor/volumes",
                    prepare=_detach_all),
    ]


def _snapshot_first_volume(oracle: "TestOracle") -> None:
    """Ensure the first volume has a snapshot (release-2 clouds only)."""
    volume_id = oracle._ensure_volume()
    existing = oracle.cloud.cinder.snapshots.where(volume_id=volume_id)
    if not existing:
        oracle.clients["bob"].post(
            oracle.cloud.cinder_url(f"/v3/{oracle.project_id}/snapshots"),
            {"snapshot": {"volume_id": volume_id, "name": "battery-snap"}})


def _drop_snapshots(oracle: "TestOracle") -> None:
    """Remove every snapshot so later delete steps see clean state."""
    for snapshot in list(oracle.cloud.cinder.snapshots):
        oracle.cloud.cinder.snapshots.delete(snapshot["id"])


def release2_battery() -> List[BatteryStep]:
    """The extended battery plus the release-2 snapshot edges.

    A DELETE of a snapshotted volume must be denied by the upgraded cloud;
    with the release-2 behavioral model the monitor agrees
    (``volume.snapshots->size() = 0`` in the DELETE guards), and the
    snapshot-check-bypass mutant becomes killable.
    """
    return extended_battery() + [
        BatteryStep("delete-snapshotted", "alice", "DELETE",
                    "/cmonitor/volumes/{volume_id}", uses_volume=True,
                    prepare=_snapshot_first_volume),
        BatteryStep("get-after-snapshot-cleanup", "carol", "GET",
                    "/cmonitor/volumes", prepare=_drop_snapshots),
    ]


def implicated_requirements(violations) -> List[str]:
    """Requirement ids the *violations* implicate, first-seen order."""
    seen: Dict[str, None] = {}
    for verdict in violations:
        for requirement in verdict.security_requirements:
            seen.setdefault(requirement, None)
    return list(seen)


class TestOracle:
    """Drives a battery through the monitor and collects the outcomes."""

    # Not a pytest class.
    __test__ = False

    def __init__(self, cloud: PrivateCloud, monitor: CloudMonitor,
                 monitor_host: str = "cmonitor",
                 project_id: str = "myProject"):
        self.cloud = cloud
        self.monitor = monitor
        self.monitor_host = monitor_host
        self.project_id = project_id
        tokens = cloud.paper_tokens(project_id)
        self.clients: Dict[str, Client] = {
            user: cloud.client(token) for user, token in tokens.items()}
        #: (step name, response) per executed step.
        self.results: List[tuple] = []

    def _current_volume_id(self) -> Optional[str]:
        volumes = self.cloud.cinder.volumes.where(project_id=self.project_id)
        return volumes[0]["id"] if volumes else None

    def _ensure_volume(self) -> str:
        volume_id = self._current_volume_id()
        if volume_id is not None:
            return volume_id
        # Create directly on the cloud so oracle setup does not pollute the
        # monitor's verdict log.
        response = self.clients["bob"].post(
            self.cloud.cinder_url(f"/v3/{self.project_id}/volumes"),
            {"volume": {"name": "battery"}})
        return response.json()["volume"]["id"]

    def run_step(self, step: BatteryStep) -> Response:
        """Execute one step against the monitor."""
        if step.prepare is not None:
            step.prepare(self)
        path = step.path
        if step.uses_volume:
            path = path.replace("{volume_id}", self._ensure_volume())
        url = f"http://{self.monitor_host}{path}"
        client = self.clients[step.user]
        response = client.request(step.method, url, payload=step.payload)
        self.results.append((step.name, response))
        return response

    def run(self, battery: Optional[List[BatteryStep]] = None) -> List[tuple]:
        """Execute a whole battery; returns the (name, response) pairs."""
        for step in battery or standard_battery():
            self.run_step(step)
        return self.results

    @property
    def violations(self):
        """Violation verdicts the monitor recorded during this oracle run."""
        return self.monitor.violations()

    def violated_requirements(self) -> List[str]:
        """Requirement ids implicated in the recorded violations."""
        return implicated_requirements(self.violations)
