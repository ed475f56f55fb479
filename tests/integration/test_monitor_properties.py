"""Property test: the monitor never flags a correct cloud.

The monitor's value hinges on *no false positives*: on an unmutated cloud,
any interleaving of well-formed requests -- through the monitor or around
it (direct cloud calls changing state between monitored requests) -- must
yield zero violation verdicts.  Hypothesis drives random interleavings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import build_from_config
from repro.validation import campaign_config

USERS = ("alice", "bob", "carol")

#: One step: (via_monitor, user, action) where action is one of the
#: well-formed operations below.
_steps = st.lists(
    st.tuples(st.booleans(), st.sampled_from(USERS),
              st.sampled_from(["post", "get_all", "get_item", "put_item",
                               "delete_item", "attach", "detach"])),
    min_size=1, max_size=25)


def _execute(cloud, monitor, clients, via_monitor, user, action):
    base_direct = "http://cinder/v3/myProject/volumes"
    base_monitored = "http://cmonitor/cmonitor/volumes"
    base = base_monitored if via_monitor else base_direct
    client = clients[user]
    volumes = cloud.cinder.volumes.where(project_id="myProject")
    volume_id = volumes[0]["id"] if volumes else "missing"

    if action == "post":
        client.post(base, {"volume": {"name": "p"}})
    elif action == "get_all":
        client.get(base)
    elif action == "get_item":
        client.get(f"{base}/{volume_id}")
    elif action == "put_item":
        client.put(f"{base}/{volume_id}", {"volume": {"name": "renamed"}})
    elif action == "delete_item":
        client.delete(f"{base}/{volume_id}")
    elif action == "attach":
        # State churn outside the monitor: makes volumes in-use.
        clients["bob"].post(f"{base_direct}/{volume_id}/action",
                            {"os-attach": {"server_id": "s"}})
    elif action == "detach":
        clients["bob"].post(f"{base_direct}/{volume_id}/action",
                            {"os-detach": {}})


class TestNoFalsePositives:
    @given(_steps)
    @settings(max_examples=40, deadline=None)
    def test_random_interleavings_never_violate(self, steps):
        cloud, monitor = build_from_config(campaign_config())  # audit mode
        tokens = cloud.paper_tokens()
        clients = {user: cloud.client(token)
                   for user, token in tokens.items()}
        for via_monitor, user, action in steps:
            _execute(cloud, monitor, clients, via_monitor, user, action)
        assert monitor.violations() == [], [
            (str(v.trigger), v.verdict, v.message)
            for v in monitor.violations()]

    @given(_steps)
    @settings(max_examples=20, deadline=None)
    def test_enforcing_mode_no_violations_and_no_shield_gaps(self, steps):
        cloud, monitor = build_from_config(campaign_config(enforcing=True))
        tokens = cloud.paper_tokens()
        clients = {user: cloud.client(token)
                   for user, token in tokens.items()}
        for via_monitor, user, action in steps:
            _execute(cloud, monitor, clients, via_monitor, user, action)
        assert monitor.violations() == []
        # Enforcing invariant: a blocked request was never forwarded.
        for verdict in monitor.log:
            if verdict.verdict == "pre-blocked":
                assert not verdict.forwarded
