#!/usr/bin/env python
"""Everything together: a multi-service cloud behind one composite monitor.

Boots the release-2 cloud (Keystone + Cinder with snapshots + Nova +
Glance), mounts the Cinder and Nova scenario monitors behind a single
composite endpoint, drives mixed traffic -- bootable volumes from a Glance
image, server attachments, snapshot-guarded deletes -- then emits the
Markdown validation report and finishes with a real-socket cURL round
trip against the same monitor.

Run with::

    python examples/full_deployment.py
"""

import urllib.request

from repro.cloud import PrivateCloud
from repro.core import CloudMonitor, CompositeMonitor, cinder_behavior_model
from repro.core import cinder_resource_model
from repro.core.nova_scenario import monitor_for_nova
from repro.httpsim import serve
from repro.validation import session_report

MONITOR = "http://monitor"


def main() -> None:
    # -- deployment -----------------------------------------------------------
    cloud = PrivateCloud.paper_setup(release2=True)
    tokens = cloud.paper_tokens()
    cinder_monitor = CloudMonitor.for_service(
        "cinder", cloud.network, "myProject",
        machine=cinder_behavior_model(with_snapshots=True),
        diagram=cinder_resource_model(with_snapshots=True),
        enforcing=True)
    nova_monitor = monitor_for_nova(cloud.network, "myProject",
                                    enforcing=True)
    composite = CompositeMonitor([cinder_monitor, nova_monitor])
    cloud.network.register("monitor", composite.app)

    alice = cloud.client(tokens["alice"])
    bob = cloud.client(tokens["bob"])
    carol = cloud.client(tokens["carol"])

    # -- image -> bootable volume -> server -> attachment ----------------------
    image = bob.post("http://glance/v2/images",
                     {"name": "ubuntu", "min_disk": 2}).json()
    bob.put(f"http://glance/v2/images/{image['id']}/file", {})
    print(f"registered and activated image {image['id']}")

    volume = bob.post(f"{MONITOR}/cmonitor/volumes",
                      {"volume": {"name": "rootdisk", "size": 4,
                                  "imageRef": image["id"]}}).json()["volume"]
    print(f"bootable volume {volume['id']} created through the monitor "
          f"(bootable={volume['bootable']})")

    server = bob.post(f"{MONITOR}/smonitor/servers",
                      {"server": {"name": "web"}}).json()["server"]
    bob.post(f"http://nova/v3/myProject/servers/{server['id']}"
             f"/volume_attachments",
             {"volumeAttachment": {"volumeId": volume["id"]}})
    print(f"server {server['id']} created and volume attached")

    # The attached volume cannot be deleted: the monitor blocks (412)
    # before the cloud even sees the request.
    response = alice.delete(f"{MONITOR}/cmonitor/volumes/{volume['id']}")
    print(f"DELETE of attached volume through monitor: "
          f"{response.status_code} (blocked by the pre-condition)")

    # Detach, snapshot, and try again: now the snapshot guard blocks.
    bob.delete(f"http://nova/v3/myProject/servers/{server['id']}"
               f"/volume_attachments/{volume['id']}")
    bob.post("http://cinder/v3/myProject/snapshots",
             {"snapshot": {"volume_id": volume["id"]}})
    response = alice.delete(f"{MONITOR}/cmonitor/volumes/{volume['id']}")
    print(f"DELETE of snapshotted volume through monitor: "
          f"{response.status_code} (blocked by the release-2 guard)")

    # Unauthorized traffic across both scenarios.
    carol.post(f"{MONITOR}/cmonitor/volumes", {"volume": {}})
    carol.post(f"{MONITOR}/smonitor/servers", {"server": {}})

    # -- aggregate views --------------------------------------------------------
    print(f"\ncomposite log: {len(composite.log)} monitored requests, "
          f"{len(composite.violations())} violations")
    print("\naggregate coverage across both scenarios:")
    print(composite.coverage().report())

    print("\n" + "=" * 72)
    print(session_report(cinder_monitor,
                         title="Cinder scenario session report"))

    # -- the same monitor over a real socket -----------------------------------
    with serve(composite.app) as server_socket:
        url = f"{server_socket.base_url}/cmonitor/volumes"
        request = urllib.request.Request(
            url, headers={"X-Auth-Token": tokens["carol"]})
        with urllib.request.urlopen(request, timeout=5) as http_response:
            print(f"real HTTP GET {url} -> {http_response.status}")

    assert composite.violations() == []
    print("\nno violations: the release-2 cloud conforms to its models.")


if __name__ == "__main__":
    main()
