"""Shared fixtures for the benchmark harness.

Every bench regenerates one artifact of the paper (table, figure, listing,
or validation claim) and asserts the *shape* the paper reports; the
pytest-benchmark timings quantify the costs the paper only argues about
("we believe this is not computationally expensive").
"""

import pytest

from repro.config import build_from_config
from repro.core import cinder_behavior_model, cinder_resource_model
from repro.validation import campaign_config


@pytest.fixture(scope="module")
def cinder_models():
    """The Figure-3 models, built once per bench module."""
    return cinder_resource_model(), cinder_behavior_model()


@pytest.fixture()
def monitored_cloud():
    """Fresh cloud + audit-mode monitor + per-user clients."""
    cloud, monitor = build_from_config(campaign_config())
    tokens = cloud.paper_tokens()
    clients = {user: cloud.client(token) for user, token in tokens.items()}
    return cloud, monitor, clients
