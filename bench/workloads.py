"""The benchmark's own traffic: workloads, deployments and closed-loop clients.

Everything a measured request depends on lives here rather than in
``repro.workloads``, so a change under test cannot alter the load it is
measured with.  Deployments are built only through the public config
surface (``MonitorConfig``, ``build_from_config``, ``monitor_options``
and ``MonitorFleet.for_service``); the clients learn volume ids from
their own POST responses and never read the simulated cloud's tables.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud import PrivateCloud
from repro.config import (MonitorConfig, MonitorSection, build_from_config,
                          monitor_options)
from repro.core.fleet import MonitorFleet
from repro.httpsim import Client, Request, Response

#: The monitored collection, as the clients address it.
COLLECTION_URL = "http://cmonitor/cmonitor/volumes"
#: Substrate hosts that get the injected latency on I/O workloads.
SUBSTRATE_HOSTS = ("cinder", "keystone")
USERS = ("alice", "bob", "carol")
#: Header the fleet workloads shard on (one synthetic tenant per client).
TENANT_HEADER = "X-Tenant"

#: One request kind: (method, target) with target "collection" or "item".
Kind = Tuple[str, str]
GET_COLLECTION: Kind = ("GET", "collection")
GET_ITEM: Kind = ("GET", "item")
POST: Kind = ("POST", "collection")
PUT: Kind = ("PUT", "item")
DELETE: Kind = ("DELETE", "item")


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment shape."""

    name: str
    #: Relative weight of each request kind.
    mix: Tuple[Tuple[Kind, int], ...]
    #: Timed requests per second of run length: about what the parent
    #: commit of the benchmark serves on a 2-core machine.
    rate: int = 1000
    #: ``monitor.probe_cache`` in the deployment's config.
    probe_cache: bool = False
    #: 1 builds a single monitor; more builds a fleet driven by one
    #: client thread per shard.
    shards: int = 1
    #: Seconds every substrate request sleeps (0 for CPU-bound runs).
    latency: float = 0.0
    #: Untimed requests (all clients together) sent before measuring;
    #: on single-monitor workloads their verdicts are digest-pinned.
    warmup: int = 500
    #: Volumes created straight on Cinder before the run (read-only
    #: mixes have no POST to create the items they read).
    preseed: int = 0

    def timed_requests(self, seconds: float) -> int:
        """The timed request count of a run *seconds* long."""
        return max(self.shards, round(self.rate * seconds))


#: Item reads outweigh collection reads 2:1.  An even split would put
#: the median latency in the gap between the two kinds' latencies, where
#: it jumps with the seed's exact share of each.
_READS = ((GET_COLLECTION, 1), (GET_ITEM, 2))

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("mixed_cpu",
                 mix=((GET_COLLECTION, 4), (GET_ITEM, 3), (POST, 2),
                      (PUT, 1), (DELETE, 1))),
        Workload("writes_cached_cpu", probe_cache=True, rate=1200,
                 mix=((GET_COLLECTION, 1), (GET_ITEM, 1), (POST, 3),
                      (PUT, 2), (DELETE, 3))),
        Workload("read_fleet_cpu", shards=2, preseed=3, mix=_READS,
                 rate=600),
        Workload("read_io", shards=2, preseed=3, mix=_READS,
                 latency=0.002, rate=90, warmup=50),
    )
}


def tenant_of(request: Request) -> str:
    """The fleet's shard key: the client's synthetic tenant."""
    return request.headers.get(TENANT_HEADER) or ""


def one_tenant_per_shard(fleet: MonitorFleet) -> List[str]:
    """Tenant names ordered by the shard they route to, one per shard."""
    found: Dict[int, str] = {}
    index = 0
    while len(found) < len(fleet.shards):
        name = f"tenant-{index}"
        found.setdefault(fleet.router.route(name), name)
        index += 1
    return [found[shard] for shard in range(len(fleet.shards))]


class SubstrateLatency:
    """A fault hook that makes every substrate request sleep, then pass."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __call__(self, request: Request) -> Optional[Response]:
        time.sleep(self.seconds)
        return None


class Deployment:
    """A fresh cloud plus the monitor (or fleet) registered in front of it."""

    def __init__(self, workload: Workload):
        self.workload = workload
        config = MonitorConfig(
            monitor=MonitorSection(probe_cache=workload.probe_cache))
        self.project_id = config.scenario.project_id
        self.fleet: Optional[MonitorFleet] = None
        if workload.shards == 1:
            self.cloud, monitor = build_from_config(config)
            self.monitors = [monitor]
        else:
            self.cloud = PrivateCloud.paper_setup(
                project_id=self.project_id,
                volume_quota=config.cloud.volume_quota,
                release2=config.cloud.release2)
            self.fleet = MonitorFleet.for_service(
                config.scenario.name, self.cloud.network, self.project_id,
                shards=workload.shards,
                router_seed=config.fleet.router_seed,
                tenant_key=tenant_of, options=monitor_options(config))
            self.cloud.network.register(config.scenario.register_as,
                                        self.fleet)
            self.monitors = list(self.fleet.shards)
        self.network = self.cloud.network
        #: The latency hooks installed, by host (empty on CPU workloads).
        self.latency_hooks: Dict[str, SubstrateLatency] = {}
        if workload.latency:
            for host in SUBSTRATE_HOSTS:
                hook = SubstrateLatency(workload.latency)
                self.network.inject_fault(host, hook)
                self.latency_hooks[host] = hook
        self.tokens = self.cloud.paper_tokens(self.project_id)
        self.volumes = self._preseed(workload.preseed)
        self.tenants: List[Optional[str]] = (
            one_tenant_per_shard(self.fleet) if self.fleet is not None
            else [None])

    def _preseed(self, count: int) -> List[str]:
        """Create *count* volumes straight on Cinder, as the admin."""
        admin = Client(self.network, {"X-Auth-Token": self.tokens["alice"]})
        url = f"http://cinder/v3/{self.project_id}/volumes"
        ids = []
        for number in range(count):
            response = admin.post(url, {"volume": {"name": f"seed-{number}"}})
            if response.status_code != 202:
                raise RuntimeError(
                    f"pre-seeding volume {number} answered "
                    f"{response.status_code}")
            ids.append(response.json()["volume"]["id"])
        return ids

    def clients(self, seed: int) -> List["ClosedLoopClient"]:
        """One client per shard, each with its own seeded stream."""
        return [ClosedLoopClient(self, f"{seed}/{index}", tenant=tenant)
                for index, tenant in enumerate(self.tenants)]

    @property
    def verdicts(self):
        """Every verdict so far, in arrival order."""
        if self.fleet is not None:
            return self.fleet.log
        return self.monitors[0].log

    def touch_every_kind(self) -> None:
        """Have every shard answer one request of each kind, as the admin.

        Ends set-up: whatever the deployment builds lazily on a kind's
        first request is paid here, inside the timed set-up.  POST goes
        first so the item kinds find a volume, DELETE last.
        """
        kinds = sorted((kind for kind, _ in self.workload.mix),
                       key=lambda kind: (kind != POST, kind == DELETE))
        for client in self.clients(seed=0):
            for kind in kinds:
                status = client.send(kind, "alice").status_code
                if status >= 500:
                    raise RuntimeError(
                        f"set-up request {kind} answered {status}")

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
        else:
            self.monitors[0].close()


class ClosedLoopClient:
    """One client that sends its next request only after the last reply.

    The request stream is a pure function of the seed and of the replies
    the client has seen: item requests pick among the volume ids this
    client learned from its own POSTs (or the pre-seeded ones).
    """

    def __init__(self, deployment: Deployment, seed: str,
                 tenant: Optional[str] = None):
        self.rng = random.Random(seed)
        kinds, weights = zip(*deployment.workload.mix)
        self._kinds: Sequence[Kind] = kinds
        self._weights: Sequence[int] = weights
        self.volumes: List[str] = list(deployment.volumes)
        self._clients: Dict[str, Client] = {}
        for user, token in deployment.tokens.items():
            headers = {"X-Auth-Token": token}
            if tenant is not None:
                headers[TENANT_HEADER] = tenant
            self._clients[user] = Client(deployment.network, headers)

    def step(self) -> Response:
        """Draw the next request from the seeded mix and send it."""
        kind = self.rng.choices(self._kinds, weights=self._weights)[0]
        return self.send(kind, self.rng.choice(USERS))

    def send(self, kind: Kind, user: str) -> Response:
        """Send one request of *kind* as *user*; returns the reply."""
        method, target = kind
        url = COLLECTION_URL
        if target == "item":
            if self.volumes:
                url = f"{COLLECTION_URL}/{self.rng.choice(self.volumes)}"
            else:
                method = "GET"
        payload = None
        if method == "POST":
            payload = {"volume": {"name": "bench"}}
        elif method == "PUT":
            payload = {"volume": {"name": "renamed"}}
        client = self._clients[user]
        response = client.request(method, url, payload=payload)
        client.history.clear()
        if method == "POST" and response.status_code == 202:
            self.volumes.append(response.json()["volume"]["id"])
        elif method == "DELETE" and response.status_code == 204:
            self.volumes.remove(url.rsplit("/", 1)[1])
        return response
