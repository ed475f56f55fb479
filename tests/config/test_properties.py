"""Hypothesis properties for the config document.

The guarantee the digest gate relies on, pinned over generated configs
rather than hand-picked examples: losslessness -- ``loads(dumps(cfg))
== cfg`` in both formats, so the canonical digest is a true
fingerprint of the deployment.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    MonitorConfig,
    config_digest,
    dumps,
    loads,
)

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
small_floats = st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)

selectors = st.fixed_dictionaries({
    "kind": st.sampled_from(["counter", "observations"]),
    "name": names,
})

slo_specs = st.fixed_dictionaries({
    "name": names,
    "objective": st.floats(min_value=0.5, max_value=0.9999,
                           allow_nan=False),
    "good": selectors,
    "total": selectors,
})

alarm_specs = st.fixed_dictionaries({
    "name": names,
    "slo": st.just("verdict-availability"),
    "warn_breaches": st.integers(min_value=1, max_value=2),
    "critical_breaches": st.sampled_from([0, 2]),
    "clear_after": st.integers(min_value=1, max_value=5),
})

documents = st.fixed_dictionaries({
    "config_version": st.just(1),
    "cloud": st.fixed_dictionaries({
        "volume_quota": st.integers(min_value=1, max_value=50),
        "release2": st.booleans(),
    }),
    "monitor": st.fixed_dictionaries({
        "enforcing": st.booleans(),
        "probe_planning": st.booleans(),
        "fanout": st.integers(min_value=1, max_value=4),
        "probe_cache": st.booleans(),
    }),
    "observability": st.fixed_dictionaries({
        "clock": st.sampled_from(["system", "manual"]),
        "start": small_floats,
        "tick": small_floats,
    }),
    "resilience": st.fixed_dictionaries({
        "enabled": st.booleans(),
        "max_attempts": st.integers(min_value=1, max_value=5),
        "seed": seeds,
    }),
    "fleet": st.fixed_dictionaries({
        "shards": st.integers(min_value=1, max_value=8),
        "router_seed": seeds,
    }),
    "slos": st.lists(slo_specs, max_size=2),
    "alarms": st.lists(alarm_specs, max_size=2, unique_by=lambda a:
                       a["name"]),
})


@settings(max_examples=100, deadline=None)
@given(data=documents)
def test_round_trip_is_lossless_in_both_formats(data):
    config = MonitorConfig.from_dict(data)
    for format in ("json", "yaml"):
        again = loads(dumps(config, format=format))
        assert again == config
        assert config_digest(again) == config_digest(config)


@settings(max_examples=100, deadline=None)
@given(data=documents)
def test_from_dict_to_dict_is_a_fixed_point(data):
    config = MonitorConfig.from_dict(data)
    canonical = config.to_dict()
    assert MonitorConfig.from_dict(canonical).to_dict() == canonical
