"""Seeded request workloads for the overhead and workflow benches.

A workload is a list of concrete request plans (user, method, target kind)
drawn from a :class:`RequestMix` with a seeded RNG, so benches are
repeatable.  The :class:`WorkloadRunner` executes the same plan either
straight at the cloud or through the monitor registered on its network,
which is exactly the comparison the OVERHEAD experiment reports.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..cloud import PrivateCloud

#: One planned request: (user, method, target kind) where target kind is
#: "collection" or "item".
Plan = Tuple[str, str, str]


class RequestMix:
    """Relative weights of the request types in a workload."""

    def __init__(self, get_collection: int = 4, get_item: int = 3,
                 post: int = 2, put: int = 1, delete: int = 1):
        self.weights: Dict[Tuple[str, str], int] = {
            ("GET", "collection"): get_collection,
            ("GET", "item"): get_item,
            ("POST", "collection"): post,
            ("PUT", "item"): put,
            ("DELETE", "item"): delete,
        }

    def choices(self) -> Tuple[List[Tuple[str, str]], List[int]]:
        population = list(self.weights)
        weights = [self.weights[entry] for entry in population]
        return population, weights


def make_workload(count: int, seed: int = 42,
                  mix: Optional[RequestMix] = None,
                  users: Tuple[str, ...] = ("alice", "bob", "carol"),
                  ) -> List[Plan]:
    """Generate *count* request plans with a seeded RNG."""
    rng = random.Random(seed)
    mix = mix or RequestMix()
    population, weights = mix.choices()
    plans: List[Plan] = []
    for _ in range(count):
        method, target = rng.choices(population, weights=weights)[0]
        user = rng.choice(users)
        plans.append((user, method, target))
    return plans


def status_histogram(statuses: List[int]) -> Dict[str, int]:
    """Status classes (``2xx``, ``4xx``, ``5xx`` always present) and
    their counts."""
    histogram: Dict[str, int] = {"2xx": 0, "4xx": 0, "5xx": 0}
    for status in statuses:
        bucket = f"{status // 100}xx"
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return histogram


class WorkloadRunner:
    """Executes one plan list against the cloud, directly or monitored."""

    def __init__(self, cloud: PrivateCloud,
                 project_id: str = "myProject",
                 monitor_host: str = "cmonitor"):
        self.cloud = cloud
        self.project_id = project_id
        self.monitor_host = monitor_host
        tokens = cloud.paper_tokens(project_id)
        self.clients = {user: cloud.client(token)
                        for user, token in tokens.items()}

    def _collection_url(self, monitored: bool) -> str:
        if monitored:
            return f"http://{self.monitor_host}/cmonitor/volumes"
        return self.cloud.cinder_url(f"/v3/{self.project_id}/volumes")

    def _item_url(self, monitored: bool) -> Optional[str]:
        volumes = self.cloud.cinder.volumes.where(project_id=self.project_id)
        if not volumes:
            return None
        volume_id = volumes[0]["id"]
        return f"{self._collection_url(monitored)}/{volume_id}"

    def execute(self, plans: List[Plan], monitored: bool = False,
                ) -> List[int]:
        """Run every plan; returns each request's status, in order.

        Requests targeting an item when no volume exists fall back to the
        collection GET, so every plan sends exactly one request.
        """
        statuses: List[int] = []
        for user, method, target in plans:
            client = self.clients[user]
            if target == "item":
                url = self._item_url(monitored)
                if url is None:
                    url = self._collection_url(monitored)
                    method = "GET"
            else:
                url = self._collection_url(monitored)
            payload = None
            if method == "POST":
                payload = {"volume": {"name": "wl"}}
            elif method == "PUT":
                payload = {"volume": {"name": "renamed"}}
            response = client.request(method, url, payload=payload)
            statuses.append(response.status_code)
        return statuses
